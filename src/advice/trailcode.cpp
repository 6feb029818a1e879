#include "advice/trailcode.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <span>

#include "graph/rng.hpp"

namespace lad {
namespace {

constexpr int kPreamble[8] = {1, 1, 1, 1, 0, 1, 1, 0};

BitString expand_marker(const BitString& payload) {
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

// Parses a marker whose first bit sits at absolute trail position `start`,
// read in direction d. On success stores the marker length (in positions).
std::optional<BitString> parse_marker(const Trail& t, const std::vector<char>& bits, int start,
                                      int d, int* length_out) {
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

struct Segment {
  int trail = 0;
  int nominal = 0;
  int start = 0;
  int jitter = 0;  // legal re-sampling window around `nominal`
  BitString code;  // expanded marker for the payload at `start`
};

// Where a probe sees a parsed marker: the trail position of its first bit,
// counted without wrapping, so on a closed trail a window that crosses the
// wrap sees it outside [0, positions).
struct Sighting {
  int start = 0;
  int marker = 0;  // index into the parsed markers
};

// Parses every (start, direction) with start in [first, last], in scan order
// (start ascending, +1 before -1), appending each marker that parses.
void parse_markers(const Trail& t, const std::vector<char>& bits, int first, int last,
                   std::vector<TrailMarker>& markers, std::vector<Sighting>& seen) {
  const int P = t.positions();
  for (int start = first; start <= last; ++start) {
    for (const int d : {+1, -1}) {
      int len = 0;
      auto payload = parse_marker(t, bits, start, d, &len);
      if (!payload) continue;
      seen.push_back({start, static_cast<int>(markers.size())});
      markers.push_back({d, t.closed ? ((start % P) + P) % P : start, len, std::move(*payload)});
    }
  }
}

// The selection rule of both decoders, over the markers a probe at `pos` may
// see, given in scan order. A marker counts only when its first bit and its
// far end both lie within walk_limit of pos; all counting markers must agree
// on the direction; the winner has the smallest |start - pos| + length, the
// first in scan order on a tie. Returns the winner's index in `seen`, or -1.
int select_marker(std::span<const Sighting> seen, const std::vector<TrailMarker>& markers,
                  int pos, int walk_limit) {
  int best = -1;
  int best_cost = 0;
  int direction = 0;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    const TrailMarker& m = markers[static_cast<std::size_t>(seen[i].marker)];
    const int off = seen[i].start - pos;
    const int far_end = off + m.direction * (m.length - 1);
    if (std::abs(off) > walk_limit || std::abs(far_end) > walk_limit) continue;
    if (direction == 0) direction = m.direction;
    if (m.direction != direction) return -1;
    const int cost = std::abs(off) + m.length;
    if (best < 0 || cost < best_cost) {
      best = static_cast<int>(i);
      best_cost = cost;
    }
  }
  return best;
}

}  // namespace

int trail_marker_length(const BitString& payload) { return expand_marker(payload).size(); }

int degree_scaled_spacing(int base_spacing, int max_degree) {
  const int occurrences = (max_degree + 1) / 2;
  return std::max(base_spacing, 150 * std::max(0, occurrences - 1));
}

int trail_walk_limit(const TrailCodeParams& params, int max_marker_len) {
  const int min_gap = max_marker_len + 4 + 2 * params.jitter;
  const int spacing = std::max(params.spacing, 2 * min_gap);
  return (3 * spacing) / 2 + 2 * params.jitter + max_marker_len + 2;
}

TrailCode encode_trail_marks(const Graph& g, const std::vector<Trail>& trails,
                             const std::vector<char>& needs_marks,
                             const SegmentPayloadFn& payload_fn, int max_payload_bits,
                             const TrailCodeParams& params) {
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
    return expand_marker(payload);
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
    if (!bad.empty()) return bad;

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
    for (std::size_t ti = 0; ti < trails.size(); ++ti) {
      if (!needs_marks[ti]) continue;
      const Trail& t = trails[ti];
      const int P = t.positions();
      std::set<const Segment*> seen;
      for (int pos = 0; pos < P; ++pos) {
        for (const int d : {+1, -1}) {
          int len = 0;
          const auto payload = parse_marker(t, out.bits, pos, d, &len);
          if (!payload) continue;
          const auto it = planted[ti].find(pos);
          const bool genuine =
              d == +1 && it != planted[ti].end() && expand_marker(*payload) == it->second->code;
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
        bad.insert(static_cast<int>(seg - segs.data()));
        for (int j = 0; j < seg->code.size(); ++j) {
          const int node = t.node_at(start + j);
          if (out.bits[static_cast<std::size_t>(node)] != (seg->code.bit(j) ? 1 : 0)) {
            if (owner[node] >= 0) bad.insert(owner[node]);
          }
        }
      }
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

TrailCode encode_trail_marks(const Graph& g, const std::vector<Trail>& trails,
                             const std::vector<char>& needs_marks,
                             const std::vector<BitString>& payloads,
                             const TrailCodeParams& params) {
  LAD_CHECK(payloads.size() == trails.size());
  int max_bits = 0;
  for (std::size_t t = 0; t < trails.size(); ++t) {
    if (needs_marks[t]) max_bits = std::max(max_bits, payloads[t].size());
  }
  return encode_trail_marks(
      g, trails, needs_marks,
      [&payloads](int t, int /*start*/) { return payloads[static_cast<std::size_t>(t)]; },
      max_bits, params);
}

std::optional<TrailDecode> decode_trail_mark(const Trail& t, int pos,
                                             const std::vector<char>& bits, int walk_limit) {
  std::vector<TrailMarker> markers;
  std::vector<Sighting> seen;
  parse_markers(t, bits, pos - walk_limit, pos + walk_limit, markers, seen);
  const int best = select_marker(seen, markers, pos, walk_limit);
  if (best < 0) return std::nullopt;
  const Sighting& s = seen[static_cast<std::size_t>(best)];
  TrailMarker& m = markers[static_cast<std::size_t>(s.marker)];
  const int off = s.start - pos;
  TrailDecode d;
  d.direction = m.direction;
  d.payload = std::move(m.payload);
  d.marker_start = m.start;
  d.steps = std::max(std::abs(off), std::abs(off + m.direction * (m.length - 1)));
  return d;
}

TrailMarkTable decode_trail_marks(const Trail& t, const std::vector<char>& bits,
                                  int walk_limit) {
  TrailMarkTable table;
  const int P = t.positions();
  table.chosen.assign(static_cast<std::size_t>(P), -1);
  std::vector<Sighting> seen;
  parse_markers(t, bits, 0, P - 1, table.markers, seen);
  if (t.closed) {
    // A window that crosses the wrap sees a marker again at start ± P, and
    // a window longer than the trail sees it several times, as the
    // per-position scan does: place every copy that lands in
    // [-walk_limit, P - 1 + walk_limit], the union of all windows.
    const int reach = (walk_limit + P - 1) / P;
    std::vector<Sighting> copies;
    for (int k = -reach; k <= reach; ++k) {
      for (const Sighting& s : seen) {
        const int start = s.start + k * P;
        if (start < -walk_limit || start > P - 1 + walk_limit) continue;
        copies.push_back({start, s.marker});
      }
    }
    seen = std::move(copies);
  }

  // The window [pos - walk_limit, pos + walk_limit] slides over `seen`.
  std::size_t first = 0;
  std::size_t last = 0;
  for (int pos = 0; pos < P; ++pos) {
    while (first < seen.size() && seen[first].start < pos - walk_limit) ++first;
    while (last < seen.size() && seen[last].start <= pos + walk_limit) ++last;
    const std::span<const Sighting> window(seen.data() + first, last - first);
    const int best = select_marker(window, table.markers, pos, walk_limit);
    if (best >= 0) {
      table.chosen[static_cast<std::size_t>(pos)] =
          window[static_cast<std::size_t>(best)].marker;
    }
  }
  return table;
}

}  // namespace lad
