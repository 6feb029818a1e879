#include "advice/trailcode.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
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

// Reads the marker whose first bit sits at absolute trail position `start`,
// in direction d. Returns its length in positions, or 0 when none parses
// there. The payload is appended to *payload when one is given; *reach, when
// given, receives how many positions the attempt read, the only positions
// whose bits the answer depends on.
int read_marker(const Trail& t, const std::vector<char>& bits, int start, int d,
                BitString* payload, int* reach) {
  const int P = t.positions();
  int read_to = 0;
  auto read = [&](int k) -> int {
    read_to = k + 1;
    int pos = start + d * k;
    if (pos < 0 || pos >= P) {
      if (!t.closed) return -1;
      pos = ((pos % P) + P) % P;
    }
    return bits[static_cast<std::size_t>(t.nodes[static_cast<std::size_t>(pos)])] ? 1 : 0;
  };
  auto parse = [&]() -> int {
    for (int j = 0; j < 8; ++j) {
      if (read(j) != kPreamble[j]) return 0;
    }
    int j = 8;
    while (true) {
      const int b0 = read(j);
      if (b0 == -1) return 0;
      if (b0 == 0) return j + 1;
      if (read(j + 1) != 1) return 0;
      const int b2 = read(j + 2);
      if (b2 == 0) {
        if (payload != nullptr) payload->append(false);
        j += 3;
      } else if (b2 == 1 && read(j + 3) == 0) {
        if (payload != nullptr) payload->append(true);
        j += 4;
      } else {
        return 0;
      }
    }
  };
  const int length = parse();
  if (reach != nullptr) *reach = read_to;
  return length;
}

struct Segment {
  int trail = 0;
  int nominal = 0;
  int start = 0;
  int jitter = 0;  // legal re-sampling window around `nominal`
  BitString code;  // expanded marker for the payload at `start`
};

// The offenders of a segment placement, kept up to date as segments move:
// the algorithmic LLL re-checks only the events a move touched.
//
// A placement is valid iff (a) segments use pairwise-disjoint node sets with
// no repeated node inside a segment, and (b) on every marked trail the
// markers that parse are exactly the planted segments, read forward. Stray
// 1s (a segment node occurring again elsewhere on a marked trail) are
// harmless unless they combine into a spurious parse. The offenders are
//   * while (a) fails: every segment covering a node that is covered twice,
//     by two segments or twice by one;
//   * otherwise: the owners of the 1-bits in the span of every spurious
//     marker, one that parses anywhere but at a planted start read forward.
//     Once (a) holds, each planted marker's nodes carry its code alone, so it
//     always parses.
//
// State, in flat arrays over the marked trails' positions laid end to end:
// per node, how many segment positions cover it and how many of those carry
// a 1 (its bit is ones > 0), and its positions; per position, the covering
// segment (segments on one trail never overlap, by the spacing) and whether
// a spurious marker starts there in either direction. A move updates the
// counts of its old and new span in place. The first time (a) holds, every
// start on a 1-bit is parsed; a start on a 0-bit reads one position and
// never parses. From then on every position of a node whose bit flipped is
// dirty, and before the next answer under (b) every start whose read could
// reach a dirty position is re-parsed. No cached parse read further than
// reach_ positions, which bounds that window.
class Offenders {
 public:
  Offenders(const Graph& g, const std::vector<Trail>& trails,
            const std::vector<char>& needs_marks, const std::vector<Segment>& segs,
            std::vector<char>& bits)
      : trails_(trails),
        segs_(segs),
        bits_(bits),
        node_(static_cast<std::size_t>(g.n())),
        base_(trails.size(), -1) {
    first_.push_back(0);
    for (std::size_t t = 0; t < trails.size(); ++t) {
      if (!needs_marks[t]) continue;
      base_[t] = first_.back();
      marked_.push_back(static_cast<int>(t));
      const long long end = static_cast<long long>(first_.back()) + trails[t].positions();
      LAD_CHECK_MSG(end <= std::numeric_limits<int>::max() / 2, "marked trails too long");
      first_.push_back(static_cast<int>(end));
    }
    const auto total = static_cast<std::size_t>(first_.back());
    next_.resize(total);
    owner_.assign(total, -1);
    flags_.assign(total, 0);
    for (std::size_t k = 0; k < marked_.size(); ++k) {
      const auto& nodes = trails_[static_cast<std::size_t>(marked_[k])].nodes;
      for (std::size_t p = 0; p < nodes.size(); ++p) {
        const int pos = first_[k] + static_cast<int>(p);
        int& head = node_[static_cast<std::size_t>(nodes[p])].first;
        next_[static_cast<std::size_t>(pos)] = head;
        head = pos;
      }
    }

    // The initial placement and its bits; parse_all() parses them.
    for (std::size_t i = 0; i < segs.size(); ++i) drop(static_cast<int>(i));
    for (const int v : touched_) bits_[static_cast<std::size_t>(v)] = 1;
    touched_.clear();
  }

  /// Takes segment i off its trail, before it moves.
  void lift(int i) { cover(i, -1); }
  /// Puts segment i back, at its new start.
  void drop(int i) { cover(i, +1); }

  /// The current offenders, ascending.
  const std::vector<int>& current() {
    settle();
    bad_.clear();
    if (shared_ > 0) {
      std::erase_if(shared_nodes_,
                    [&](int v) { return node_[static_cast<std::size_t>(v)].cover < 2; });
      std::sort(shared_nodes_.begin(), shared_nodes_.end());
      shared_nodes_.erase(std::unique(shared_nodes_.begin(), shared_nodes_.end()),
                          shared_nodes_.end());
      for (const int v : shared_nodes_) {
        for (int pos = node_[static_cast<std::size_t>(v)].first; pos >= 0; pos = next_[pos]) {
          if (owner_[pos] >= 0) bad_.push_back(owner_[pos]);
        }
      }
    } else {
      shared_nodes_.clear();
      if (parsed_) {
        flush();
      } else {
        parse_all();
      }
      std::erase_if(spurious_, [&](int key) {
        return (flags_[static_cast<std::size_t>(key >> 1)] & spurious_flag(key & 1)) == 0;
      });
      for (const int key : spurious_) blame(key);
    }
    std::sort(bad_.begin(), bad_.end());
    bad_.erase(std::unique(bad_.begin(), bad_.end()), bad_.end());
    return bad_;
  }

 private:
  struct NodeState {
    int first = -1;  // one of its positions; next_ links the others, -1 ends
    int cover = 0;   // segment positions on it
    int ones = 0;    // ... that carry a 1
  };

  // flags_ bits per position. A direction index is 0 for +1, 1 for -1.
  static constexpr std::uint8_t kDirty = 1;    // its node's bit flipped since the last flush
  static constexpr std::uint8_t kRestart = 2;  // a segment start moved here or away
  static std::uint8_t spurious_flag(int dir) { return static_cast<std::uint8_t>(4 << dir); }

  // The index into marked_ of the trail holding global position pos.
  std::size_t trail_of(int pos) const {
    return static_cast<std::size_t>(std::upper_bound(first_.begin(), first_.end(), pos) -
                                    first_.begin() - 1);
  }

  bool planted(int pos) const {
    const int i = owner_[static_cast<std::size_t>(pos)];
    if (i < 0) return false;
    const Segment& seg = segs_[static_cast<std::size_t>(i)];
    return base_[static_cast<std::size_t>(seg.trail)] + seg.start == pos;
  }

  void mark(int pos, std::uint8_t flag, std::vector<int>& list) {
    std::uint8_t& f = flags_[static_cast<std::size_t>(pos)];
    if ((f & flag) != 0) return;
    f |= flag;
    list.push_back(pos);
  }

  // Adds (sign +1) or removes (-1) segment i's span.
  void cover(int i, int sign) {
    const Segment& seg = segs_[static_cast<std::size_t>(i)];
    const Trail& t = trails_[static_cast<std::size_t>(seg.trail)];
    const int base = base_[static_cast<std::size_t>(seg.trail)];
    const int P = t.positions();
    mark(base + seg.start, kRestart, restarts_);
    for (int j = 0; j < seg.code.size(); ++j) {
      const int p = t.closed ? (seg.start + j) % P : seg.start + j;
      const auto pos = static_cast<std::size_t>(base + p);
      const int v = t.nodes[static_cast<std::size_t>(p)];
      NodeState& s = node_[static_cast<std::size_t>(v)];
      if (sign > 0) {
        LAD_ASSERT_MSG(owner_[pos] < 0, "marker segments overlap on a trail");
        owner_[pos] = i;
        if (++s.cover == 2) {
          ++shared_;
          shared_nodes_.push_back(v);
        }
      } else {
        owner_[pos] = -1;
        if (s.cover-- == 2) --shared_;
      }
      if (seg.code.bit(j)) {
        s.ones += sign;
        if (s.ones == (sign > 0 ? 1 : 0)) touched_.push_back(v);
      }
    }
  }

  // Writes the bits of the nodes whose ones count crossed zero, and marks
  // every position of a node whose bit flipped dirty.
  void settle() {
    for (const int v : touched_) {
      const NodeState& s = node_[static_cast<std::size_t>(v)];
      const char bit = s.ones > 0 ? 1 : 0;
      char& b = bits_[static_cast<std::size_t>(v)];
      if (b == bit) continue;
      b = bit;
      for (int pos = s.first; pos >= 0; pos = next_[pos]) mark(pos, kDirty, dirty_);
    }
    touched_.clear();
  }

  // Parses the start at position p of trail t (whose first global position
  // is base) read in direction d, and records whether a spurious marker
  // starts there.
  void parse(const Trail& t, int base, int p, int d) {
    const auto pos = static_cast<std::size_t>(base + p);
    const int dir = d > 0 ? 0 : 1;
    const std::uint8_t spurious = spurious_flag(dir);
    bool is_spurious = false;
    if (bits_[static_cast<std::size_t>(t.nodes[static_cast<std::size_t>(p)])] != 0) {
      int reach = 0;
      const int len = read_marker(t, bits_, p, d, nullptr, &reach);
      reach_ = std::max(reach_, reach);
      is_spurious = len > 0 && !(d > 0 && planted(base + p));
    }
    if (is_spurious && (flags_[pos] & spurious) == 0) spurious_.push_back(2 * (base + p) + dir);
    if (is_spurious) {
      flags_[pos] |= spurious;
    } else {
      flags_[pos] &= static_cast<std::uint8_t>(~spurious);
    }
  }

  // The first parse, once no node is shared: every start on a 1-bit, each
  // of which lies in exactly one segment's span. It stands in for every
  // dirty position marked before it.
  void parse_all() {
    for (const int pos : dirty_) flags_[static_cast<std::size_t>(pos)] = 0;
    for (const int pos : restarts_) flags_[static_cast<std::size_t>(pos)] = 0;
    dirty_.clear();
    restarts_.clear();
    for (const Segment& seg : segs_) {
      const Trail& t = trails_[static_cast<std::size_t>(seg.trail)];
      for (int j = 0; j < seg.code.size(); ++j) {
        if (!seg.code.bit(j)) continue;
        const int v = t.node_at(seg.start + j);
        for (int pos = node_[static_cast<std::size_t>(v)].first; pos >= 0; pos = next_[pos]) {
          const std::size_t k = trail_of(pos);
          const Trail& on = trails_[static_cast<std::size_t>(marked_[k])];
          parse(on, first_[k], pos - first_[k], +1);
          parse(on, first_[k], pos - first_[k], -1);
        }
      }
    }
    parsed_ = true;
  }

  // Re-parses every start whose cached read could reach a dirty position,
  // and the forward read at every start a segment moved to or away from.
  // parse() is idempotent between two moves, so a start seen twice costs
  // only time.
  void flush() {
    const int r = reach_;
    std::sort(dirty_.begin(), dirty_.end());
    for (std::size_t i = 0; i < dirty_.size();) {
      const std::size_t k = trail_of(dirty_[i]);
      std::size_t end = i;
      while (end < dirty_.size() && dirty_[end] < first_[k + 1]) ++end;
      const Trail& t = trails_[static_cast<std::size_t>(marked_[k])];
      if (t.closed && r >= t.positions()) {
        for (int p = 0; p < t.positions(); ++p) {
          parse(t, first_[k], p, +1);
          parse(t, first_[k], p, -1);
        }
      } else {
        // A forward read from [q - r + 1, q] and a backward read from
        // [q, q + r - 1] may reach q.
        parse_windows(t, k, {dirty_.data() + i, end - i}, 1 - r, 0, +1);
        parse_windows(t, k, {dirty_.data() + i, end - i}, 0, r - 1, -1);
      }
      for (; i < end; ++i) {
        flags_[static_cast<std::size_t>(dirty_[i])] &= static_cast<std::uint8_t>(~kDirty);
      }
    }
    for (const int pos : restarts_) {
      const std::size_t k = trail_of(pos);
      parse(trails_[static_cast<std::size_t>(marked_[k])], first_[k], pos - first_[k], +1);
      flags_[static_cast<std::size_t>(pos)] &= static_cast<std::uint8_t>(~kRestart);
    }
    dirty_.clear();
    restarts_.clear();
  }

  // Parses in direction d every start of the union of [q + lo, q + hi] over
  // the positions q of `dirty`, ascending, all on the k-th marked trail t.
  void parse_windows(const Trail& t, std::size_t k, std::span<const int> dirty, int lo, int hi,
                     int d) {
    const int P = t.positions();
    int next = std::numeric_limits<int>::min();  // first start not yet parsed
    for (const int pos : dirty) {
      const int q = pos - first_[k];
      int from = std::max(q + lo, next);
      int to = q + hi;
      if (!t.closed) {
        from = std::max(from, 0);
        to = std::min(to, P - 1);
      }
      for (int s = from; s <= to; ++s) {
        parse(t, first_[k], s < 0 ? s + P : (s >= P ? s - P : s), d);
      }
      next = std::max(next, to + 1);
    }
  }

  // Adds the owners of the 1-bits in a spurious marker's span.
  void blame(int key) {
    const int pos = key >> 1;
    const int d = (key & 1) != 0 ? -1 : +1;
    const std::size_t k = trail_of(pos);
    const Trail& t = trails_[static_cast<std::size_t>(marked_[k])];
    const int p = pos - first_[k];
    const int len = read_marker(t, bits_, p, d, nullptr, nullptr);
    for (int j = 0; j < len; ++j) {
      const int v = t.node_at(p + d * j);
      if (bits_[static_cast<std::size_t>(v)] == 0) continue;
      for (int at = node_[static_cast<std::size_t>(v)].first; at >= 0; at = next_[at]) {
        if (owner_[at] >= 0) bad_.push_back(owner_[at]);
      }
    }
  }

  const std::vector<Trail>& trails_;
  const std::vector<Segment>& segs_;
  std::vector<char>& bits_;
  std::vector<NodeState> node_;
  std::vector<int> base_;    // per trail: its first global position, or -1
  std::vector<int> marked_;  // the marked trails, in order
  std::vector<int> first_;   // per marked trail: its first global position; then the total
  std::vector<int> next_;    // per position: the next position of the same node, or -1
  std::vector<int> owner_;   // per position: the covering segment, or -1
  std::vector<std::uint8_t> flags_;  // per position
  int shared_ = 0;                   // nodes covered at least twice
  bool parsed_ = false;              // parse_all() has run
  int reach_ = 1;                    // longest read of any parse so far
  std::vector<int> shared_nodes_;    // nodes that became shared (some may no longer be)
  std::vector<int> touched_;         // nodes whose ones count crossed zero
  std::vector<int> dirty_;           // positions flagged kDirty
  std::vector<int> restarts_;        // positions flagged kRestart
  std::vector<int> spurious_;        // keys 2·position + direction of spurious markers
                                     // (some may no longer be)
  std::vector<int> bad_;
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
      BitString payload;
      const int len = read_marker(t, bits, start, d, &payload, nullptr);
      if (len == 0) continue;
      seen.push_back({start, static_cast<int>(markers.size())});
      markers.push_back({d, t.closed ? ((start % P) + P) % P : start, len, std::move(payload)});
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

  Offenders offenders(g, trails, needs_marks, segs, out.bits);
  for (int round = 0; round <= params.max_resample_rounds; ++round) {
    const std::vector<int>& bad = offenders.current();
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
      offenders.lift(i);
      seg.start = clamp_start(seg, seg.nominal + delta);
      seg.code = make_code(seg.trail, seg.start);
      offenders.drop(i);
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
