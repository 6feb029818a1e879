// Reference trail-mark codec, kept verbatim as the oracle
// tests/test_trailcode.cpp compares the library against:
//   * parse_marker, scan_markers and decode_trail_mark as they were before
//     the whole-trail decode (decode_trail_marks) was added; both decoders
//     are checked against them at every trail position;
//   * encode_trail_marks as it was before re-sampling kept its offender set
//     up to date incrementally: every round rewrites all n bits and re-parses
//     every marked trail (violations()). The one addition is the optional
//     ReferencePhases tally of which branch of violations() named each
//     round's offenders.
// Calls are qualified with reference:: so argument-dependent lookup cannot
// pick the library's codec. Test-only: nothing under src/ may include this
// file.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "advice/trailcode.hpp"
#include "graph/rng.hpp"

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

// --- Frozen encoder ----------------------------------------------------------

/// Rounds of encode_trail_marks whose offenders came from each branch of
/// violations(): segments sharing a node (phase 1), spurious markers
/// (phase 2), or a planted marker that no longer parses (the third branch).
struct ReferencePhases {
  long long shared_node_rounds = 0;
  long long spurious_marker_rounds = 0;
  long long lost_marker_rounds = 0;
};

inline BitString expand_marker(const BitString& payload) {
  BitString b;
  for (const int bit : kPreamble) b.append(bit != 0);
  for (int i = 0; i < payload.size(); ++i) {
    if (payload.bit(i)) {
      b.append(true);
      b.append(true);
      b.append(true);
      b.append(false);
    } else {
      b.append(true);
      b.append(true);
      b.append(false);
    }
  }
  b.append(false);
  return b;
}

struct Segment {
  int trail = 0;
  int nominal = 0;
  int start = 0;
  int jitter = 0;  // legal re-sampling window around `nominal`
  BitString code;  // expanded marker for the payload at `start`
};

inline TrailCode encode_trail_marks(const Graph& g, const std::vector<Trail>& trails,
                                    const std::vector<char>& needs_marks,
                                    const SegmentPayloadFn& payload_fn, int max_payload_bits,
                                    const TrailCodeParams& params = {},
                                    ReferencePhases* phases = nullptr) {
  LAD_CHECK(needs_marks.size() == trails.size());
  LAD_CHECK(params.spacing >= 1 && params.jitter >= 0 && max_payload_bits >= 0);
  Rng rng(params.seed);

  const int max_len = 8 + 4 * max_payload_bits + 1;

  TrailCode out;
  out.bits.assign(static_cast<std::size_t>(g.n()), 0);
  out.walk_limit = trail_walk_limit(params, max_len);
  if (std::none_of(needs_marks.begin(), needs_marks.end(), [](char c) { return c != 0; })) {
    return out;
  }

  // Effective spacing guarantees nominal inter-segment gaps of at least
  // max_len + 4 + 2*jitter, so jittered segments can never overlap and every
  // gap keeps >= 4 zero positions (the preamble-uniqueness argument).
  const int min_gap = max_len + 4 + 2 * params.jitter;
  const int spacing = std::max(params.spacing, 2 * min_gap);

  auto make_code = [&](int t, int start) {
    BitString payload = payload_fn(t, start);
    LAD_CHECK_MSG(payload.size() <= max_payload_bits,
                  "segment payload exceeds max_payload_bits");
    return reference::expand_marker(payload);
  };

  // Nominal segment starts, spread evenly along each marked trail. Each
  // segment gets the widest re-sampling window that keeps inter-segment
  // gaps >= max_len + 4 (a single segment may roam its whole trail).
  std::vector<Segment> segs;
  for (std::size_t t = 0; t < trails.size(); ++t) {
    if (!needs_marks[t]) continue;
    const int P = trails[t].positions();
    auto add = [&](int s, int jit) {
      Segment seg;
      seg.trail = static_cast<int>(t);
      seg.nominal = seg.start = s;
      seg.jitter = std::max(0, jit);
      seg.code = make_code(seg.trail, seg.start);
      segs.push_back(std::move(seg));
    };
    if (trails[t].closed) {
      LAD_CHECK_MSG(P >= max_len + 4 + params.jitter,
                    "closed trail of length " << P << " too short for markers of length "
                                              << max_len);
      if (P <= spacing) {
        add(0, P);  // single segment: any position is legal
      } else {
        const int k = std::max(1, (P + spacing / 2) / spacing);
        const int gap = P / k;
        for (int i = 0; i < k; ++i) {
          add(static_cast<int>(static_cast<long long>(i) * P / k),
              (gap - max_len - 4) / 2);
        }
      }
    } else {
      const int span = P - max_len;
      LAD_CHECK_MSG(span >= 0, "open trail too short for its marker");
      if (span <= spacing) {
        add(span / 2, span);  // single segment: clamped to [0, span]
      } else {
        const int k = std::max(1, (span + spacing / 2) / spacing);
        const int gap = span / k;
        for (int i = 0; i <= k; ++i) {
          add(static_cast<int>(static_cast<long long>(i) * span / k),
              (gap - max_len - 4) / 2);
        }
      }
    }
  }

  auto clamp_start = [&](const Segment& seg, int start) {
    const Trail& t = trails[static_cast<std::size_t>(seg.trail)];
    const int P = t.positions();
    if (t.closed) return ((start % P) + P) % P;
    return std::clamp(start, 0, P - max_len);
  };

  // expected[t][pos]: bit that position pos of marked trail t must carry.
  std::vector<std::vector<char>> expected(trails.size());

  auto write_round = [&]() {
    std::fill(out.bits.begin(), out.bits.end(), 0);
    for (std::size_t t = 0; t < trails.size(); ++t) {
      if (needs_marks[t]) expected[t].assign(static_cast<std::size_t>(trails[t].positions()), 0);
    }
    for (const auto& seg : segs) {
      const Trail& t = trails[static_cast<std::size_t>(seg.trail)];
      const int P = t.positions();
      for (int j = 0; j < seg.code.size(); ++j) {
        if (!seg.code.bit(j)) continue;
        const int pos = t.closed ? ((seg.start + j) % P) : (seg.start + j);
        out.bits[static_cast<std::size_t>(t.node_at(pos))] = 1;
        expected[static_cast<std::size_t>(seg.trail)][static_cast<std::size_t>(pos)] = 1;
      }
    }
  };

  // A placement is valid iff (a) segments use pairwise-disjoint node sets
  // with no repeated node inside a segment, and (b) on every marked trail,
  // the set of parseable markers equals exactly the planted segments (read
  // forward, with the planted payload). Stray 1s — a segment node occurring
  // again elsewhere on a marked trail — are harmless unless they corrupt a
  // planted marker or combine into a spurious parse; (b) tests precisely
  // that, which is the property the decoder relies on.
  auto violations = [&]() {
    std::set<int> bad;
    std::vector<int> owner(static_cast<std::size_t>(g.n()), -1);
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const auto& seg = segs[i];
      const Trail& t = trails[static_cast<std::size_t>(seg.trail)];
      std::set<int> mine;
      for (int j = 0; j < seg.code.size(); ++j) {
        const int node = t.node_at(seg.start + j);
        if (!mine.insert(node).second) bad.insert(static_cast<int>(i));
        if (owner[node] >= 0 && owner[node] != static_cast<int>(i)) {
          bad.insert(static_cast<int>(i));
          bad.insert(owner[node]);
        }
        owner[node] = static_cast<int>(i);
      }
    }
    if (!bad.empty()) {
      if (phases != nullptr) ++phases->shared_node_rounds;
      return bad;
    }

    // Planted marker starts per trail.
    std::vector<std::map<int, const Segment*>> planted(trails.size());
    for (const auto& seg : segs) {
      planted[static_cast<std::size_t>(seg.trail)][seg.start] = &seg;
    }
    auto blame_span = [&](const Trail& t, int start, int d, int len, std::set<int>* sink) {
      for (int j = 0; j < len; ++j) {
        const int node = t.node_at(start + d * j);
        if (node >= 0 && out.bits[static_cast<std::size_t>(node)] && owner[node] >= 0) {
          sink->insert(owner[node]);
        }
      }
    };
    bool lost = false;
    for (std::size_t ti = 0; ti < trails.size(); ++ti) {
      if (!needs_marks[ti]) continue;
      const Trail& t = trails[ti];
      const int P = t.positions();
      std::set<const Segment*> seen;
      for (int pos = 0; pos < P; ++pos) {
        for (const int d : {+1, -1}) {
          int len = 0;
          const auto payload = reference::parse_marker(t, out.bits, pos, d, &len);
          if (!payload) continue;
          const auto it = planted[ti].find(pos);
          const bool genuine = d == +1 && it != planted[ti].end() &&
                               reference::expand_marker(*payload) == it->second->code;
          if (genuine) {
            seen.insert(it->second);
          } else {
            blame_span(t, pos, d, len, &bad);  // spurious marker
          }
        }
      }
      for (const auto& [start, seg] : planted[ti]) {
        if (seen.count(seg)) continue;
        // The planted marker got corrupted: blame whoever wrote the
        // unexpected 1s in its span, plus the segment itself.
        lost = true;
        bad.insert(static_cast<int>(seg - segs.data()));
        for (int j = 0; j < seg->code.size(); ++j) {
          const int node = t.node_at(start + j);
          if (out.bits[static_cast<std::size_t>(node)] != (seg->code.bit(j) ? 1 : 0)) {
            if (owner[node] >= 0) bad.insert(owner[node]);
          }
        }
      }
    }
    if (phases != nullptr && !bad.empty()) {
      ++(lost ? phases->lost_marker_rounds : phases->spurious_marker_rounds);
    }
    return bad;
  };

  for (int round = 0; round <= params.max_resample_rounds; ++round) {
    write_round();
    const auto bad = violations();
    if (bad.empty()) {
      out.resample_rounds = round;
      return out;
    }
    LAD_CHECK_MSG(round < params.max_resample_rounds,
                  "trail-mark re-sampling budget exhausted with " << bad.size()
                                                                  << " offending segments");
    // Moser–Tardos-style: each offender re-samples with probability 1/2
    // (simultaneous deterministic moves can cycle); at least one moves.
    bool moved = false;
    for (const int i : bad) {
      if (moved && !rng.flip(0.5)) continue;
      auto& seg = segs[static_cast<std::size_t>(i)];
      const int jit = std::max(params.jitter, seg.jitter);
      const int delta = static_cast<int>(rng.uniform(-jit, jit));
      seg.start = clamp_start(seg, seg.nominal + delta);
      seg.code = make_code(seg.trail, seg.start);
      moved = true;
    }
  }
  throw ContractViolation("unreachable");
}

inline TrailCode encode_trail_marks(const Graph& g, const std::vector<Trail>& trails,
                                    const std::vector<char>& needs_marks,
                                    const std::vector<BitString>& payloads,
                                    const TrailCodeParams& params = {},
                                    ReferencePhases* phases = nullptr) {
  LAD_CHECK(payloads.size() == trails.size());
  int max_bits = 0;
  for (std::size_t t = 0; t < trails.size(); ++t) {
    if (needs_marks[t]) max_bits = std::max(max_bits, payloads[t].size());
  }
  return reference::encode_trail_marks(
      g, trails, needs_marks,
      [&payloads](int t, int /*start*/) { return payloads[static_cast<std::size_t>(t)]; },
      max_bits, params, phases);
}

}  // namespace lad::reference
