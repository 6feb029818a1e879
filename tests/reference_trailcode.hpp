// Reference trail-mark decoder: parse_marker, scan_markers and
// decode_trail_mark as they were before the whole-trail decode
// (decode_trail_marks) was added, kept verbatim as the oracle
// tests/test_trailcode.cpp compares both decoders against at every trail
// position. Calls are qualified with reference:: so argument-dependent
// lookup cannot pick the library's decoder. Test-only: nothing under src/ may
// include this file.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <vector>

#include "advice/trailcode.hpp"

namespace lad::reference {

constexpr int kPreamble[8] = {1, 1, 1, 1, 0, 1, 1, 0};

// Parses a marker whose first bit sits at absolute trail position `start`,
// read in direction d. On success stores the marker length (in positions).
inline std::optional<BitString> parse_marker(const Trail& t, const std::vector<char>& bits,
                                             int start, int d, int* length_out) {
  auto read = [&](int k) -> int {
    const int node = t.node_at(start + d * k);
    if (node < 0) return -1;
    return bits[static_cast<std::size_t>(node)] ? 1 : 0;
  };
  for (int j = 0; j < 8; ++j) {
    if (read(j) != kPreamble[j]) return std::nullopt;
  }
  BitString payload;
  int j = 8;
  while (true) {
    const int b0 = read(j);
    if (b0 == -1) return std::nullopt;
    if (b0 == 0) {
      if (length_out != nullptr) *length_out = j + 1;
      return payload;
    }
    if (read(j + 1) != 1) return std::nullopt;
    const int b2 = read(j + 2);
    if (b2 == 0) {
      payload.append(false);
      j += 3;
    } else if (b2 == 1 && read(j + 3) == 0) {
      payload.append(true);
      j += 4;
    } else {
      return std::nullopt;
    }
  }
}

struct Found {
  int direction = 0;
  BitString payload;
  int start_offset = 0;  // relative to the probe position
  int length = 0;
};

// All markers parsable from trail position pos within the walk window.
inline std::vector<Found> scan_markers(const Trail& t, const std::vector<char>& bits, int pos,
                                       int walk_limit) {
  std::vector<Found> out;
  for (int off = -walk_limit; off <= walk_limit; ++off) {
    for (const int d : {+1, -1}) {
      int len = 0;
      auto payload = reference::parse_marker(t, bits, pos + off, d, &len);
      if (!payload) continue;
      const int far_end = off + d * (len - 1);
      if (std::abs(far_end) > walk_limit) continue;  // must fit in window
      out.push_back({d, std::move(*payload), off, len});
    }
  }
  return out;
}

inline std::optional<TrailDecode> decode_trail_mark(const Graph& g, const Trail& t, int pos,
                                                    const std::vector<char>& bits,
                                                    int walk_limit) {
  (void)g;
  const auto found = reference::scan_markers(t, bits, pos, walk_limit);
  if (found.empty()) return std::nullopt;
  // All markers in range must agree on the direction.
  for (const auto& f : found) {
    if (f.direction != found.front().direction) return std::nullopt;
  }
  const auto& best =
      *std::min_element(found.begin(), found.end(), [](const Found& a, const Found& b) {
        return std::abs(a.start_offset) + a.length < std::abs(b.start_offset) + b.length;
      });
  TrailDecode d;
  d.direction = best.direction;
  d.payload = best.payload;
  const int P = t.positions();
  int start = pos + best.start_offset;
  if (t.closed) start = ((start % P) + P) % P;
  d.marker_start = start;
  d.steps = std::max(std::abs(best.start_offset),
                     std::abs(best.start_offset + best.direction * (best.length - 1)));
  return d;
}

}  // namespace lad::reference
