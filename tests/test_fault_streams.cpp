// Pins every seeded fault decision to the hash chain that defines it.
//
// Each stream below is spelled out as the hash3/hash4 chain of
// util/hashing.hpp over (sub-seed, tag, site...), with the tags of
// faults/fault_plan.cpp and core/pipeline.cpp copied here, and the library
// must agree decision for decision: every engine-fault hook, the advice
// victim mask in all three targeting modes, the §1.5 membership instance
// and the graph-fault injector, whose graph is also compared array for
// array with a Graph::Builder rebuild of the kept edges. The advice attacks
// that consume the victim mask are pinned by fingerprint. These are the
// only checks that see a changed stream: the engine oracle shares the
// fault model with the engine under test, and the faultsim and chaos
// goldens see only aggregates.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "faults/fault_plan.hpp"
#include "graph/io.hpp"
#include "graph/ruling_set.hpp"
#include "graph/source.hpp"
#include "util/hashing.hpp"

namespace lad::faults {
namespace {

// Hash-domain tags (faults/fault_plan.cpp, core/pipeline.cpp).
constexpr std::uint64_t kTagTarget = 0x01;
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
constexpr std::uint64_t kTagMembership = 0xed6e;

// Layer sub-seeds of a FaultPlan.
std::uint64_t advice_seed(const FaultPlan& plan) { return hash2(plan.seed, 0xADu); }
std::uint64_t graph_seed(const FaultPlan& plan) { return hash2(plan.seed, 0x6EAFu); }
std::uint64_t engine_seed(std::uint64_t plan_seed) { return hash2(plan_seed, 0xE6u); }

std::uint64_t u64(long long x) { return static_cast<std::uint64_t>(x); }

std::uint64_t pack_pair(int a, int b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(b));
}

std::uint64_t message_hash(std::uint64_t seed, std::uint64_t tag, int round, int from, int to) {
  return hash4(seed, tag, u64(round), pack_pair(from, to));
}

Graph load(const std::string& spec) {
  std::string err;
  auto lg = load_graph_source(spec, &err);
  EXPECT_TRUE(lg.has_value()) << spec << ": " << err;
  return lg.has_value() ? std::move(lg->graph) : Graph{};
}

// Graphs with mixed degrees, so the targeting modes' orders have ties to
// break and hubs to find.
const std::vector<std::string>& graph_specs() {
  static const std::vector<std::string> specs = {
      "cycle:300@1", "grid:12x9@3", "torus:10x12@2", "tree:200x3@1",
      "regular:120x3@2", "banded:150x4x3x6@1", "star:40@1",
  };
  return specs;
}

// --- The keyed form ----------------------------------------------------------

TEST(Hashing, KeyedFormEqualsChain) {
  std::uint64_t r = 0x1234;
  const auto next = [&r] { return r = splitmix64(r); };
  for (int i = 0; i < 10000; ++i) {
    // Small values too: tags, rounds and node IDs are small.
    const std::uint64_t a = i % 4 == 0 ? next() % 64 : next();
    const std::uint64_t b = next(), x = next(), y = i % 3 == 0 ? next() % 8 : next();
    const HashStream s(a, b);
    ASSERT_EQ(s(x), hash3(a, b, x));
    ASSERT_EQ(s(x, y), hash4(a, b, x, y));
  }
}

// --- Engine faults -----------------------------------------------------------

EngineFaultSpec every_kind(int recovery_rounds) {
  EngineFaultSpec s;
  s.message_drop_prob = 0.2;
  s.message_corrupt_prob = 0.25;
  s.crash_fraction = 0.3;
  s.crash_round_window = 4;
  s.crash_recovery_rounds = recovery_rounds;
  s.message_duplicate_prob = 0.2;
  s.message_delay_prob = 0.3;
  s.max_delay_rounds = 3;
  return s;
}

bool expected_crash_selected(std::uint64_t seed, const EngineFaultSpec& s, int v) {
  return unit_from_hash(hash3(seed, kTagCrashSel, u64(v))) < s.crash_fraction;
}

bool expected_crashed(std::uint64_t seed, const EngineFaultSpec& s, int round, int v) {
  if (!expected_crash_selected(seed, s, v)) return false;
  const int crash_round =
      1 + static_cast<int>(hash3(seed, kTagCrashRound, u64(v)) % u64(s.crash_round_window));
  if (round < crash_round) return false;
  return s.crash_recovery_rounds <= 0 || round < crash_round + s.crash_recovery_rounds;
}

bool expected_corrupt(std::uint64_t seed, const EngineFaultSpec& s, int round, int from, int to,
                      std::string& payload) {
  if (unit_from_hash(message_hash(seed, kTagCorruptSel, round, from, to)) >=
      s.message_corrupt_prob) {
    return false;
  }
  const std::uint64_t p = message_hash(seed, kTagCorruptPos, round, from, to);
  if (payload.empty()) {
    payload.push_back(static_cast<char>(p & 0xff));
  } else {
    const std::size_t pos = static_cast<std::size_t>(p % payload.size());
    payload[pos] = static_cast<char>(payload[pos] ^ static_cast<char>(1 + (p >> 8) % 255));
  }
  return true;
}

int expected_delay(std::uint64_t seed, const EngineFaultSpec& s, int round, int from, int to) {
  if (unit_from_hash(message_hash(seed, kTagDelaySel, round, from, to)) >= s.message_delay_prob) {
    return 0;
  }
  return 1 + static_cast<int>(message_hash(seed, kTagDelayLen, round, from, to) %
                              u64(s.max_delay_rounds));
}

TEST(FaultStreams, EveryEngineHookFollowsItsChain) {
  const std::vector<int> sites = {0, 1, 2, 3, 17, 255, 4096, 65535, 1000003, INT_MAX};
  const std::vector<std::string> payloads = {"", "x", "ok", "digest:1f2e3d4c",
                                             std::string(40, '\x7f')};
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{17},
                                   engine_seed(99)}) {
    for (const int recovery : {0, 2}) {
      const EngineFaultSpec s = every_kind(recovery);
      const HashedEngineFaults model(seed, s);
      long long fired = 0;
      for (const int v : sites) {
        ASSERT_EQ(model.crash_selected(v), expected_crash_selected(seed, s, v)) << v;
        for (int r = 1; r <= 6; ++r) {
          ASSERT_EQ(model.crashed(r, v), expected_crashed(seed, s, r, v)) << r << " " << v;
        }
      }
      for (int r = 1; r <= 6; ++r) {
        for (const int from : sites) {
          for (const int to : sites) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " round " + std::to_string(r) +
                         " edge " + std::to_string(from) + "->" + std::to_string(to));
            const bool drop = model.drop_message(r, from, to);
            ASSERT_EQ(drop, unit_from_hash(message_hash(seed, kTagDrop, r, from, to)) <
                                s.message_drop_prob);
            const bool dup = model.duplicate_message(r, from, to);
            ASSERT_EQ(dup, unit_from_hash(message_hash(seed, kTagDup, r, from, to)) <
                               s.message_duplicate_prob);
            const int delay = model.delay_rounds(r, from, to);
            ASSERT_EQ(delay, expected_delay(seed, s, r, from, to));
            fired += (drop ? 1 : 0) + (dup ? 1 : 0) + (delay > 0 ? 1 : 0);
            for (const std::string& payload : payloads) {
              std::string got = payload;
              std::string want = payload;
              ASSERT_EQ(model.corrupt_message(r, from, to, got),
                        expected_corrupt(seed, s, r, from, to, want));
              ASSERT_EQ(got, want);
              fired += got != payload ? 1 : 0;
            }
          }
        }
      }
      EXPECT_GT(fired, 0);  // the grid exercises both outcomes of each hook
    }
  }
}

TEST(FaultStreams, DisabledEngineKindsNeverFire) {
  const HashedEngineFaults model(5, EngineFaultSpec{});
  for (int r = 1; r <= 6; ++r) {
    for (int v = 0; v < 50; ++v) {
      EXPECT_FALSE(model.crash_selected(v));
      EXPECT_FALSE(model.crashed(r, v));
      std::string payload = "abc";
      EXPECT_FALSE(model.drop_message(r, v, v + 1));
      EXPECT_FALSE(model.corrupt_message(r, v, v + 1, payload));
      EXPECT_EQ(payload, "abc");
      EXPECT_FALSE(model.duplicate_message(r, v, v + 1));
      EXPECT_EQ(model.delay_rounds(r, v, v + 1), 0);
    }
  }
}

// --- Advice victims ----------------------------------------------------------

// The victim mask as defined: an independent per-ID draw for kUniform;
// otherwise the round(fraction * n) first nodes by (class, rank, index),
// where the class is the degree (descending) or being on a ruling-set
// region boundary (boundary first), and the rank is a per-ID draw.
std::vector<char> expected_mask(const FaultPlan& plan, const Graph& g) {
  std::vector<char> mask(static_cast<std::size_t>(g.n()), 0);
  const double fraction = plan.advice.node_fraction;
  const std::uint64_t as = advice_seed(plan);
  if (plan.advice.targeting == AdviceTargeting::kUniform) {
    for (int v = 0; v < g.n(); ++v) {
      mask[static_cast<std::size_t>(v)] =
          unit_from_hash(hash3(as, kTagTarget, u64(g.id(v)))) < fraction ? 1 : 0;
    }
    return mask;
  }
  std::vector<int> cls(static_cast<std::size_t>(g.n()));
  if (plan.advice.targeting == AdviceTargeting::kHighDegree) {
    for (int v = 0; v < g.n(); ++v) cls[static_cast<std::size_t>(v)] = -g.degree(v);
  } else {
    std::vector<int> all(static_cast<std::size_t>(g.n()));
    for (int v = 0; v < g.n(); ++v) all[static_cast<std::size_t>(v)] = v;
    const std::vector<int> rulers = ruling_set(g, 3, all);
    std::vector<int> region(static_cast<std::size_t>(g.n()), -1);
    std::vector<int> queue;
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
    for (int v = 0; v < g.n(); ++v) {
      for (const int w : g.neighbors(v)) {
        if (region[static_cast<std::size_t>(w)] != region[static_cast<std::size_t>(v)]) {
          cls[static_cast<std::size_t>(v)] = -1;
        }
      }
    }
  }
  struct Key {
    int cls;
    std::uint64_t rank;
    int v;
    bool operator<(const Key& o) const {
      if (cls != o.cls) return cls < o.cls;
      if (rank != o.rank) return rank < o.rank;
      return v < o.v;
    }
  };
  std::vector<Key> keys;
  for (int v = 0; v < g.n(); ++v) {
    keys.push_back({cls[static_cast<std::size_t>(v)], hash3(as, kTagTargetRank, u64(g.id(v))), v});
  }
  std::sort(keys.begin(), keys.end());
  const auto budget = static_cast<std::size_t>(
      std::clamp(static_cast<int>(std::llround(fraction * g.n())), 0, g.n()));
  for (std::size_t i = 0; i < budget; ++i) mask[static_cast<std::size_t>(keys[i].v)] = 1;
  return mask;
}

TEST(FaultStreams, AdviceVictimsFollowTheirChainInEveryTargetingMode) {
  for (const std::string& spec : graph_specs()) {
    const Graph g = load(spec);
    for (const AdviceTargeting mode : {AdviceTargeting::kUniform, AdviceTargeting::kHighDegree,
                                       AdviceTargeting::kRegionBoundary}) {
      for (const double fraction : {0.03, 0.2, 0.5}) {
        for (const std::uint64_t seed : {1, 2, 77}) {
          SCOPED_TRACE(spec + " " + to_string(mode) + " fraction " + std::to_string(fraction) +
                       " seed " + std::to_string(seed));
          FaultPlan plan;
          plan.seed = seed;
          plan.advice.node_fraction = fraction;
          plan.advice.kinds = {AdviceFaultKind::kBitFlip};
          plan.advice.targeting = mode;
          const FaultInjector inj(plan);
          ASSERT_EQ(inj.advice_target_mask(g), expected_mask(plan, g));
        }
      }
    }
  }
}

// The three advice attacks consume the victim mask and the per-ID kind,
// flip, rewrite and truncation streams. Their outputs are pinned by one
// fingerprint per attack, over every graph, targeting mode and seed below.
struct Fingerprint {
  std::uint64_t h = 0x5eed;
  void add(std::uint64_t x) { h = hash2(h, x); }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) add(static_cast<unsigned char>(c));
  }
  void add(const BitString& b) {
    add(static_cast<std::uint64_t>(b.size()));
    for (int i = 0; i < b.size(); ++i) add(b.bit(i) ? 1 : 0);
  }
  void add(const std::vector<FaultEvent>& events) {
    add(events.size());
    for (const FaultEvent& e : events) {
      add(static_cast<std::uint64_t>(e.layer));
      add(static_cast<std::uint64_t>(e.advice_kind));
      add(u64(e.node));
      add(u64(e.other));
      add(e.detail);
    }
  }
};

FaultPlan attack_plan(std::uint64_t seed, AdviceTargeting mode) {
  FaultPlan plan;
  plan.seed = seed;
  plan.advice.node_fraction = 0.3;
  plan.advice.kinds = {AdviceFaultKind::kBitFlip, AdviceFaultKind::kErasure,
                       AdviceFaultKind::kByzantine, AdviceFaultKind::kTruncate};
  plan.advice.max_flips_per_label = 4;
  plan.advice.targeting = mode;
  return plan;
}

template <typename Attack>
std::uint64_t attack_fingerprint(Attack attack) {
  Fingerprint fp;
  for (const std::string& spec : graph_specs()) {
    const Graph g = load(spec);
    for (const AdviceTargeting mode : {AdviceTargeting::kUniform, AdviceTargeting::kHighDegree,
                                       AdviceTargeting::kRegionBoundary}) {
      for (const std::uint64_t seed : {3, 4}) {
        FaultInjector inj(attack_plan(seed, mode));
        attack(inj, g, fp);
        fp.add(inj.events());
      }
    }
  }
  return fp.h;
}

TEST(FaultStreams, AdviceAttacksArePinned) {
  const std::uint64_t labels = attack_fingerprint([](FaultInjector& inj, const Graph& g,
                                                     Fingerprint& fp) {
    Advice adv(static_cast<std::size_t>(g.n()));
    for (int v = 0; v < g.n(); ++v) {
      for (int i = 0; i < v % 9; ++i) adv[static_cast<std::size_t>(v)].append((v + i) % 3 == 0);
    }
    inj.corrupt_advice(g, adv);
    for (const BitString& b : adv) fp.add(b);
  });
  const std::uint64_t bits = attack_fingerprint([](FaultInjector& inj, const Graph& g,
                                                   Fingerprint& fp) {
    std::vector<char> b(static_cast<std::size_t>(g.n()));
    for (int v = 0; v < g.n(); ++v) b[static_cast<std::size_t>(v)] = v % 2 == 0 ? 1 : 0;
    inj.corrupt_bits(g, b);
    for (const char c : b) fp.add(static_cast<std::uint64_t>(c));
  });
  const std::uint64_t var = attack_fingerprint([](FaultInjector& inj, const Graph& g,
                                                  Fingerprint& fp) {
    VarAdvice adv;
    for (int v = 0; v < g.n(); v += 2) {
      auto& entries = adv[v];
      for (int k = 0; k <= v % 3; ++k) {
        SchemaEntry e;
        e.schema_id = k;
        e.anchor_id = g.id((v + k) % g.n());
        for (int i = 0; i < 1 + (v + k) % 6; ++i) e.payload.append((v * k + i) % 2 == 1);
        entries.push_back(e);
      }
    }
    inj.corrupt_var_advice(g, adv);
    for (const auto& [node, entries] : adv) {
      fp.add(u64(node));
      for (const SchemaEntry& e : entries) {
        fp.add(u64(e.schema_id));
        fp.add(u64(e.anchor_id));
        fp.add(e.payload);
      }
    }
  });
  // Taken from the library before its decision streams were keyed.
  EXPECT_EQ(labels, 0x611ac1e3dbcd8ff3ULL) << std::hex << labels;
  EXPECT_EQ(bits, 0x3af29c457ba97270ULL) << std::hex << bits;
  EXPECT_EQ(var, 0x2f812d89862b0cbdULL) << std::hex << var;
}

// --- §1.5 membership ---------------------------------------------------------

TEST(FaultStreams, HashedEdgeMembershipFollowsItsChain) {
  for (const std::string& spec : graph_specs()) {
    const Graph g = load(spec);
    for (const std::uint64_t seed : {0, 1, 42}) {
      for (const double density : {0.0, 0.3, 1.0}) {
        const auto got = hashed_edge_membership(g, seed, density);
        ASSERT_EQ(got.size(), static_cast<std::size_t>(g.m()));
        for (int e = 0; e < g.m(); ++e) {
          const auto a = u64(g.id(g.edge_u(e)));
          const auto b = u64(g.id(g.edge_v(e)));
          const bool in_x =
              unit_from_hash(hash4(seed, kTagMembership, std::min(a, b), std::max(a, b))) <
              density;
          ASSERT_EQ(got[static_cast<std::size_t>(e)], in_x ? 1 : 0) << spec << " edge " << e;
        }
      }
    }
  }
}

// --- Graph faults ------------------------------------------------------------

// The graph-fault injector as first written: rank every node for the burst
// epicentres, BFS the bursts, draw every edge, and rebuild the survivors
// through Graph::Builder.
struct Faulted {
  Graph g;
  std::vector<FaultEvent> events;
};

Faulted rebuild_faulted(const FaultPlan& plan, const Graph& g) {
  const std::uint64_t gs = graph_seed(plan);
  std::vector<char> in_burst;
  if (plan.graph.burst_count > 0 && g.n() > 0) {
    std::vector<int> order(static_cast<std::size_t>(g.n()));
    for (int v = 0; v < g.n(); ++v) order[static_cast<std::size_t>(v)] = v;
    const auto rank = [&](int v) { return hash3(gs, kTagBurstPick, u64(g.id(v))); };
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      if (rank(a) != rank(b)) return rank(a) < rank(b);
      return a < b;
    });
    in_burst.assign(static_cast<std::size_t>(g.n()), 0);
    std::vector<int> dist(static_cast<std::size_t>(g.n()), -1);
    std::vector<int> queue;
    for (int i = 0; i < std::min(plan.graph.burst_count, g.n()); ++i) {
      const int v = order[static_cast<std::size_t>(i)];
      dist[static_cast<std::size_t>(v)] = 0;
      in_burst[static_cast<std::size_t>(v)] = 1;
      queue.push_back(v);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int v = queue[head];
      if (dist[static_cast<std::size_t>(v)] >= std::max(0, plan.graph.burst_radius)) continue;
      for (const int w : g.neighbors(v)) {
        if (dist[static_cast<std::size_t>(w)] != -1) continue;
        dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(v)] + 1;
        in_burst[static_cast<std::size_t>(w)] = 1;
        queue.push_back(w);
      }
    }
  }
  Faulted out;
  Graph::Builder builder;
  for (int v = 0; v < g.n(); ++v) builder.add_node(g.id(v));
  for (int e = 0; e < g.m(); ++e) {
    const int u = g.edge_u(e);
    const int v = g.edge_v(e);
    const NodeId a = std::min(g.id(u), g.id(v));
    const NodeId b = std::max(g.id(u), g.id(v));
    const bool burst_hit = !in_burst.empty() && in_burst[static_cast<std::size_t>(u)] &&
                           in_burst[static_cast<std::size_t>(v)];
    const std::uint64_t h = hash4(gs, kTagEdgeDel, u64(a), u64(b));
    if (burst_hit || unit_from_hash(h) < plan.graph.edge_delete_fraction) {
      FaultEvent ev;
      ev.layer = FaultLayer::kGraph;
      ev.node = u;
      ev.other = v;
      std::ostringstream detail;
      detail << (burst_hit ? "burst-deleted" : "deleted") << " edge {" << a << ", " << b
             << "} after encoding";
      ev.detail = detail.str();
      out.events.push_back(std::move(ev));
      continue;
    }
    builder.add_edge(u, v);
  }
  out.g = std::move(builder).build();
  return out;
}

template <typename T>
void expect_same(std::span<const T> got, std::span<const T> want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin())) << what;
}

void expect_same_graph(const Graph& got, const Graph& want) {
  expect_same(got.raw_ids(), want.raw_ids(), "ids");
  expect_same(got.raw_adj_off(), want.raw_adj_off(), "adj_off");
  expect_same(got.raw_adj(), want.raw_adj(), "adj");
  expect_same(got.raw_inc(), want.raw_inc(), "inc");
  expect_same(got.raw_edge_u(), want.raw_edge_u(), "edge_u");
  expect_same(got.raw_edge_v(), want.raw_edge_v(), "edge_v");
  expect_same(got.nodes_by_id(), want.nodes_by_id(), "nodes_by_id");
  EXPECT_EQ(got.max_degree(), want.max_degree());
  EXPECT_EQ(graph_digest(got), graph_digest(want));
  for (int v = 0; v < want.n(); ++v) ASSERT_EQ(got.find_index(want.id(v)), v);
}

void expect_same_events(const std::vector<FaultEvent>& got, const std::vector<FaultEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].layer, want[i].layer) << i;
    EXPECT_EQ(got[i].node, want[i].node) << i;
    EXPECT_EQ(got[i].other, want[i].other) << i;
    EXPECT_EQ(got[i].detail, want[i].detail) << i;
  }
}

TEST(FaultStreams, GraphFaultsEqualTheBuilderRebuild) {
  struct Shape {
    const char* name;
    double fraction;
    int bursts;
    int radius;
  };
  const Shape shapes[] = {
      {"scattered", 0.1, 0, 1},  {"scattered dense", 0.6, 0, 1}, {"burst", 0.0, 3, 2},
      {"burst radius 0", 0.0, 4, 0}, {"burst and scattered", 0.05, 2, 1},
      {"every edge", 1.0, 0, 1},
  };
  for (const std::string& spec : graph_specs()) {
    const Graph g = load(spec);
    for (const Shape& shape : shapes) {
      for (const std::uint64_t seed : {5, 6}) {
        SCOPED_TRACE(spec + " " + shape.name + " seed " + std::to_string(seed));
        FaultPlan plan;
        plan.seed = seed;
        plan.graph.edge_delete_fraction = shape.fraction;
        plan.graph.burst_count = shape.bursts;
        plan.graph.burst_radius = shape.radius;
        FaultInjector inj(plan);
        const Graph got = inj.apply_graph_faults(g);
        const Faulted want = rebuild_faulted(plan, g);
        expect_same_graph(got, want.g);
        expect_same_events(inj.events(), want.events);
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace lad::faults
