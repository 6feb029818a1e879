#include "faults/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "graph/ruling_set.hpp"
#include "util/contracts.hpp"

namespace lad::faults {
namespace {

// Hash-domain tags: every decision family draws from a disjoint stream.
constexpr std::uint64_t kTagTarget = 0x01;
constexpr std::uint64_t kTagKind = 0x02;
constexpr std::uint64_t kTagFlipCount = 0x03;
constexpr std::uint64_t kTagFlipPos = 0x04;
constexpr std::uint64_t kTagByzLen = 0x05;
constexpr std::uint64_t kTagByzBit = 0x06;
constexpr std::uint64_t kTagTruncLen = 0x07;
constexpr std::uint64_t kTagEntryPick = 0x08;
constexpr std::uint64_t kTagAnchor = 0x09;
constexpr std::uint64_t kTagCrashSel = 0x0a;
constexpr std::uint64_t kTagCrashRound = 0x0b;
constexpr std::uint64_t kTagDrop = 0x0c;
constexpr std::uint64_t kTagCorruptSel = 0x0d;
constexpr std::uint64_t kTagCorruptPos = 0x0e;
constexpr std::uint64_t kTagEdgeDel = 0x0f;
constexpr std::uint64_t kTagDup = 0x10;
constexpr std::uint64_t kTagDelaySel = 0x11;
constexpr std::uint64_t kTagDelayLen = 0x12;
constexpr std::uint64_t kTagBurstPick = 0x13;
constexpr std::uint64_t kTagTargetRank = 0x14;

std::uint64_t pack_pair(int a, int b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(b));
}

// A per-message draw: hash4(seed, tag, round, (from, to)).
std::uint64_t draw(const HashStream& s, int round, int from, int to) {
  return s(static_cast<std::uint64_t>(round), pack_pair(from, to));
}

BitString garbage_bits(std::uint64_t h, int len) {
  BitString out;
  for (int i = 0; i < len; ++i) {
    out.append((hash2(h, static_cast<std::uint64_t>(i)) & 1) != 0);
  }
  return out;
}

}  // namespace

const char* to_string(AdviceFaultKind kind) {
  switch (kind) {
    case AdviceFaultKind::kBitFlip:
      return "bitflip";
    case AdviceFaultKind::kErasure:
      return "erasure";
    case AdviceFaultKind::kByzantine:
      return "byzantine";
    case AdviceFaultKind::kTruncate:
      return "truncate";
  }
  LAD_UNREACHABLE("bad AdviceFaultKind");
}

const char* to_string(AdviceTargeting targeting) {
  switch (targeting) {
    case AdviceTargeting::kUniform:
      return "uniform";
    case AdviceTargeting::kHighDegree:
      return "high_degree";
    case AdviceTargeting::kRegionBoundary:
      return "region_boundary";
  }
  LAD_UNREACHABLE("bad AdviceTargeting");
}

const char* to_string(FaultLayer layer) {
  switch (layer) {
    case FaultLayer::kAdvice:
      return "advice";
    case FaultLayer::kGraph:
      return "graph";
    case FaultLayer::kEngine:
      return "engine";
  }
  LAD_UNREACHABLE("bad FaultLayer");
}

HashedEngineFaults::HashedEngineFaults(std::uint64_t seed, EngineFaultSpec spec)
    : spec_(spec),
      drop_(seed, kTagDrop),
      corrupt_sel_(seed, kTagCorruptSel),
      corrupt_pos_(seed, kTagCorruptPos),
      dup_(seed, kTagDup),
      delay_sel_(seed, kTagDelaySel),
      delay_len_(seed, kTagDelayLen),
      crash_sel_(seed, kTagCrashSel),
      crash_round_(seed, kTagCrashRound) {}

bool HashedEngineFaults::crash_selected(int v) const {
  if (spec_.crash_fraction <= 0.0) return false;
  return unit_from_hash(crash_sel_(static_cast<std::uint64_t>(v))) < spec_.crash_fraction;
}

bool HashedEngineFaults::crashed(int round, int v) const {
  if (!crash_selected(v)) return false;
  const int window = std::max(1, spec_.crash_round_window);
  const int crash_round =
      1 + static_cast<int>(crash_round_(static_cast<std::uint64_t>(v)) %
                           static_cast<std::uint64_t>(window));
  if (round < crash_round) return false;
  // crash_recovery_rounds == 0: crash-stop, down forever. k > 0: down for
  // exactly [crash_round, crash_round + k), then rejoined for good.
  if (spec_.crash_recovery_rounds <= 0) return true;
  return round < crash_round + spec_.crash_recovery_rounds;
}

bool HashedEngineFaults::drop_message(int round, int from, int to) const {
  if (spec_.message_drop_prob <= 0.0) return false;
  return unit_from_hash(draw(drop_, round, from, to)) < spec_.message_drop_prob;
}

bool HashedEngineFaults::corrupt_message(int round, int from, int to,
                                         std::string& payload) const {
  if (spec_.message_corrupt_prob <= 0.0) return false;
  if (unit_from_hash(draw(corrupt_sel_, round, from, to)) >= spec_.message_corrupt_prob) {
    return false;
  }
  const std::uint64_t p = draw(corrupt_pos_, round, from, to);
  if (payload.empty()) {
    payload.push_back(static_cast<char>(p & 0xff));
  } else {
    // XOR with a non-zero mask always changes the byte.
    const std::size_t pos = static_cast<std::size_t>(p % payload.size());
    payload[pos] = static_cast<char>(payload[pos] ^ static_cast<char>(1 + (p >> 8) % 255));
  }
  return true;
}

bool HashedEngineFaults::duplicate_message(int round, int from, int to) const {
  if (spec_.message_duplicate_prob <= 0.0) return false;
  return unit_from_hash(draw(dup_, round, from, to)) < spec_.message_duplicate_prob;
}

int HashedEngineFaults::delay_rounds(int round, int from, int to) const {
  if (spec_.message_delay_prob <= 0.0 || spec_.max_delay_rounds <= 0) return 0;
  if (unit_from_hash(draw(delay_sel_, round, from, to)) >= spec_.message_delay_prob) return 0;
  return 1 + static_cast<int>(draw(delay_len_, round, from, to) %
                              static_cast<std::uint64_t>(spec_.max_delay_rounds));
}

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan), engine_model_(engine_seed(), plan.engine) {}

std::vector<char> FaultInjector::advice_target_mask(const Graph& g) const {
  std::vector<char> mask(static_cast<std::size_t>(g.n()), 0);
  const double fraction = plan_.advice.node_fraction;
  if (fraction <= 0.0 || g.n() == 0) return mask;

  if (plan_.advice.targeting == AdviceTargeting::kUniform) {
    // The legacy oblivious adversary: independent per-node hash.
    const HashStream target(advice_seed(), kTagTarget);
    for (int v = 0; v < g.n(); ++v) {
      if (unit_from_hash(target(static_cast<std::uint64_t>(g.id(v)))) < fraction) {
        mask[static_cast<std::size_t>(v)] = 1;
      }
    }
    return mask;
  }

  // Targeted modes attack exactly round(fraction * n) victims, worst first.
  const int budget = std::clamp(
      static_cast<int>(std::llround(fraction * g.n())), 0, g.n());
  if (budget == 0) return mask;
  const HashStream target_rank(advice_seed(), kTagTargetRank);
  const auto rank = [&](int v) { return target_rank(static_cast<std::uint64_t>(g.id(v))); };
  std::vector<int> order(static_cast<std::size_t>(g.n()));
  for (int v = 0; v < g.n(); ++v) order[static_cast<std::size_t>(v)] = v;

  if (plan_.advice.targeting == AdviceTargeting::kHighDegree) {
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
      if (rank(a) != rank(b)) return rank(a) < rank(b);
      return a < b;
    });
  } else {
    // kRegionBoundary: carve the graph into ruling-set regions (nearest
    // ruling node, BFS tie-break by queue order — deterministic) and put
    // region-boundary nodes first.
    std::vector<int> candidates(static_cast<std::size_t>(g.n()));
    for (int v = 0; v < g.n(); ++v) candidates[static_cast<std::size_t>(v)] = v;
    const std::vector<int> rulers = ruling_set(g, /*alpha=*/3, candidates);
    std::vector<int> region(static_cast<std::size_t>(g.n()), -1);
    std::vector<int> queue;
    queue.reserve(static_cast<std::size_t>(g.n()));
    for (std::size_t i = 0; i < rulers.size(); ++i) {
      region[static_cast<std::size_t>(rulers[i])] = static_cast<int>(i);
      queue.push_back(rulers[i]);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int v = queue[head];
      for (const int w : g.neighbors(v)) {
        if (region[static_cast<std::size_t>(w)] != -1) continue;
        region[static_cast<std::size_t>(w)] = region[static_cast<std::size_t>(v)];
        queue.push_back(w);
      }
    }
    std::vector<char> is_boundary(static_cast<std::size_t>(g.n()), 0);
    for (int v = 0; v < g.n(); ++v) {
      for (const int w : g.neighbors(v)) {
        if (region[static_cast<std::size_t>(w)] != region[static_cast<std::size_t>(v)]) {
          is_boundary[static_cast<std::size_t>(v)] = 1;
          break;
        }
      }
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const char ba = is_boundary[static_cast<std::size_t>(a)];
      const char bb = is_boundary[static_cast<std::size_t>(b)];
      if (ba != bb) return ba > bb;  // boundary nodes first
      if (rank(a) != rank(b)) return rank(a) < rank(b);
      return a < b;
    });
  }
  for (int i = 0; i < budget; ++i) {
    mask[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = 1;
  }
  return mask;
}

AdviceFaultKind FaultInjector::kind_for(const HashStream& kind, NodeId id) const {
  const auto& kinds = plan_.advice.kinds;
  LAD_ASSERT(!kinds.empty());
  return kinds[static_cast<std::size_t>(kind(static_cast<std::uint64_t>(id)) % kinds.size())];
}

void FaultInjector::corrupt_advice(const Graph& g, Advice& advice) {
  LAD_CHECK_MSG(static_cast<int>(advice.size()) == g.n(),
                "corrupt_advice: advice size " << advice.size() << " != n " << g.n());
  if (!plan_.any_advice_faults()) return;
  const std::vector<char> targeted = advice_target_mask(g);
  const std::uint64_t seed = advice_seed();
  const HashStream kind_of(seed, kTagKind), flip_count(seed, kTagFlipCount),
      flip_pos(seed, kTagFlipPos), byz_len(seed, kTagByzLen), byz_bit(seed, kTagByzBit),
      trunc_len(seed, kTagTruncLen);
  for (int v = 0; v < g.n(); ++v) {
    const NodeId id = g.id(v);
    if (!targeted[static_cast<std::size_t>(v)]) continue;
    const auto uid = static_cast<std::uint64_t>(id);
    BitString& label = advice[static_cast<std::size_t>(v)];
    const AdviceFaultKind kind = kind_for(kind_of, id);
    FaultEvent ev;
    ev.layer = FaultLayer::kAdvice;
    ev.advice_kind = kind;
    ev.node = v;
    std::ostringstream detail;
    switch (kind) {
      case AdviceFaultKind::kBitFlip: {
        if (label.empty()) continue;  // nothing to flip
        const auto max_flips = static_cast<std::uint64_t>(
            std::max(1, plan_.advice.max_flips_per_label));
        const int flips = 1 + static_cast<int>(flip_count(uid) % max_flips);
        for (int i = 0; i < flips; ++i) {
          const int pos = static_cast<int>(flip_pos(uid, static_cast<std::uint64_t>(i)) %
                                           static_cast<std::uint64_t>(label.size()));
          label.set_bit(pos, !label.bit(pos));
        }
        detail << "flipped " << flips << " bit(s)";
        break;
      }
      case AdviceFaultKind::kErasure: {
        if (label.empty()) continue;  // already empty
        detail << "erased " << label.size() << " bit(s)";
        label = BitString{};
        break;
      }
      case AdviceFaultKind::kByzantine: {
        const auto range = static_cast<std::uint64_t>(2 * std::max(label.size(), 1) + 4);
        const int len = 1 + static_cast<int>(byz_len(uid) % range);
        label = garbage_bits(byz_bit(uid), len);
        detail << "rewrote label to " << len << " adversarial bit(s)";
        break;
      }
      case AdviceFaultKind::kTruncate: {
        if (label.empty()) continue;
        const int keep =
            static_cast<int>(trunc_len(uid) % static_cast<std::uint64_t>(label.size()));
        detail << "truncated " << label.size() << " -> " << keep << " bit(s)";
        label.truncate(keep);
        break;
      }
    }
    ev.detail = detail.str();
    events_.push_back(std::move(ev));
  }
}

void FaultInjector::corrupt_bits(const Graph& g, std::vector<char>& bits) {
  LAD_CHECK_MSG(static_cast<int>(bits.size()) == g.n(),
                "corrupt_bits: bit vector size " << bits.size() << " != n " << g.n());
  if (!plan_.any_advice_faults()) return;
  const std::vector<char> targeted = advice_target_mask(g);
  for (int v = 0; v < g.n(); ++v) {
    if (!targeted[static_cast<std::size_t>(v)]) continue;
    // A single bit admits only one attack; every kind degenerates to a flip.
    bits[static_cast<std::size_t>(v)] = bits[static_cast<std::size_t>(v)] ? 0 : 1;
    FaultEvent ev;
    ev.layer = FaultLayer::kAdvice;
    ev.advice_kind = AdviceFaultKind::kBitFlip;
    ev.node = v;
    ev.detail = "flipped the 1-bit advice";
    events_.push_back(std::move(ev));
  }
}

void FaultInjector::corrupt_var_advice(const Graph& g, VarAdvice& advice) {
  if (!plan_.any_advice_faults()) return;
  std::vector<int> storage_nodes;
  storage_nodes.reserve(advice.size());
  for (const auto& [node, entries] : advice) {
    (void)entries;
    storage_nodes.push_back(node);
  }
  const std::vector<char> targeted = advice_target_mask(g);
  const std::uint64_t seed = advice_seed();
  const HashStream kind_of(seed, kTagKind), entry_pick(seed, kTagEntryPick),
      flip_pos(seed, kTagFlipPos), anchor(seed, kTagAnchor), byz_bit(seed, kTagByzBit),
      trunc_len(seed, kTagTruncLen);
  for (const int s : storage_nodes) {
    LAD_CHECK_MSG(s >= 0 && s < g.n(), "corrupt_var_advice: storage node out of range");
    const NodeId id = g.id(s);
    if (!targeted[static_cast<std::size_t>(s)]) continue;
    const auto uid = static_cast<std::uint64_t>(id);
    auto& entries = advice[s];
    const AdviceFaultKind kind = kind_for(kind_of, id);
    FaultEvent ev;
    ev.layer = FaultLayer::kAdvice;
    ev.advice_kind = kind;
    ev.node = s;
    std::ostringstream detail;
    switch (kind) {
      case AdviceFaultKind::kErasure: {
        detail << "erased " << entries.size() << " schema entries";
        advice.erase(s);
        break;
      }
      case AdviceFaultKind::kBitFlip: {
        if (entries.empty()) continue;
        auto& entry = entries[static_cast<std::size_t>(entry_pick(uid) % entries.size())];
        if (entry.payload.empty()) continue;
        const int pos = static_cast<int>(flip_pos(uid) %
                                         static_cast<std::uint64_t>(entry.payload.size()));
        entry.payload.set_bit(pos, !entry.payload.bit(pos));
        detail << "flipped payload bit " << pos << " of one entry";
        break;
      }
      case AdviceFaultKind::kByzantine: {
        if (entries.empty()) continue;
        auto& entry = entries[static_cast<std::size_t>(entry_pick(uid) % entries.size())];
        const std::uint64_t h = anchor(uid);
        if ((h & 1) != 0) {
          // Re-anchor to a valid-but-wrong node: the nastiest rewrite,
          // because every field still parses.
          entry.anchor_id = g.id(static_cast<int>((h >> 1) % static_cast<std::uint64_t>(g.n())));
          detail << "re-anchored one entry to node id " << entry.anchor_id;
        } else {
          const int len = 1 + static_cast<int>((h >> 1) % 9);
          entry.payload = garbage_bits(byz_bit(uid), len);
          detail << "rewrote one payload to " << len << " adversarial bit(s)";
        }
        break;
      }
      case AdviceFaultKind::kTruncate: {
        if (entries.empty()) continue;
        const std::uint64_t h = trunc_len(uid);
        if (entries.size() > 1) {
          const std::size_t keep = static_cast<std::size_t>(h % entries.size());
          detail << "dropped " << (entries.size() - keep) << " of " << entries.size()
                 << " entries";
          entries.resize(keep);
          if (entries.empty()) advice.erase(s);
        } else {
          auto& payload = entries.front().payload;
          if (payload.empty()) continue;
          const int keep = static_cast<int>(h % static_cast<std::uint64_t>(payload.size()));
          detail << "truncated payload " << payload.size() << " -> " << keep << " bit(s)";
          payload.truncate(keep);
        }
        break;
      }
    }
    ev.detail = detail.str();
    events_.push_back(std::move(ev));
  }
}

Graph FaultInjector::apply_graph_faults(const Graph& g) {
  if (!plan_.any_graph_faults()) return g;

  // Burst (regional) faults: hash-rank every node, take the burst_count
  // best-ranked as epicenters, and mark every node within burst_radius hops
  // of an epicenter. Edges with both endpoints marked are deleted.
  std::vector<char> in_burst;
  if (plan_.graph.burst_count > 0 && g.n() > 0) {
    const HashStream burst_pick(graph_seed(), kTagBurstPick);
    std::vector<int> order(static_cast<std::size_t>(g.n()));
    for (int v = 0; v < g.n(); ++v) order[static_cast<std::size_t>(v)] = v;
    const auto rank = [&](int v) { return burst_pick(static_cast<std::uint64_t>(g.id(v))); };
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      if (rank(a) != rank(b)) return rank(a) < rank(b);
      return a < b;
    });
    const int epicenters = std::min(plan_.graph.burst_count, g.n());
    in_burst.assign(static_cast<std::size_t>(g.n()), 0);
    std::vector<int> dist(static_cast<std::size_t>(g.n()), -1);
    std::vector<int> queue;
    for (int i = 0; i < epicenters; ++i) {
      const int v = order[static_cast<std::size_t>(i)];
      dist[static_cast<std::size_t>(v)] = 0;
      in_burst[static_cast<std::size_t>(v)] = 1;
      queue.push_back(v);
    }
    const int radius = std::max(0, plan_.graph.burst_radius);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int v = queue[head];
      if (dist[static_cast<std::size_t>(v)] >= radius) continue;
      for (const int w : g.neighbors(v)) {
        if (dist[static_cast<std::size_t>(w)] != -1) continue;
        dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(v)] + 1;
        in_burst[static_cast<std::size_t>(w)] = 1;
        queue.push_back(w);
      }
    }
  }

  // The survivors, in edge order: their subgraph is a copy, not a rebuild.
  const HashStream edge_del(graph_seed(), kTagEdgeDel);
  std::vector<int> kept;
  kept.reserve(static_cast<std::size_t>(g.m()));
  for (int e = 0; e < g.m(); ++e) {
    const int u = g.edge_u(e);
    const int v = g.edge_v(e);
    // Keyed on the unordered ID pair, not the edge index, so the decision
    // is stable under any edge renumbering.
    const NodeId a = std::min(g.id(u), g.id(v));
    const NodeId b = std::max(g.id(u), g.id(v));
    const bool burst_hit = !in_burst.empty() && in_burst[static_cast<std::size_t>(u)] &&
                           in_burst[static_cast<std::size_t>(v)];
    const std::uint64_t h = edge_del(static_cast<std::uint64_t>(a), static_cast<std::uint64_t>(b));
    if (burst_hit || unit_from_hash(h) < plan_.graph.edge_delete_fraction) {
      FaultEvent ev;
      ev.layer = FaultLayer::kGraph;
      ev.node = u;
      ev.other = v;
      std::ostringstream detail;
      detail << (burst_hit ? "burst-deleted" : "deleted") << " edge {" << a << ", " << b
             << "} after encoding";
      ev.detail = detail.str();
      events_.push_back(std::move(ev));
      continue;
    }
    kept.push_back(e);
  }
  return g.edge_subgraph(kept);
}

std::vector<int> FaultInjector::fault_site_nodes(const Graph& g) const {
  std::vector<int> sites;
  for (const FaultEvent& ev : events_) {
    if (ev.node >= 0 && ev.node < g.n()) sites.push_back(ev.node);
    if (ev.other >= 0 && ev.other < g.n()) sites.push_back(ev.other);
  }
  if (plan_.engine.crash_fraction > 0.0) {
    for (int v = 0; v < g.n(); ++v) {
      if (engine_model_.crash_selected(v)) sites.push_back(v);
    }
  }
  std::sort(sites.begin(), sites.end());
  sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
  return sites;
}

}  // namespace lad::faults
