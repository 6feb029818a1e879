// Tests for the locality-conformance auditor (local/audit.hpp).
//
// Structure:
//   * contracts:   LAD_CHECK / LAD_ASSERT / LAD_UNREACHABLE behavior
//   * provenance:  the engine's per-round information-flow accounting
//   * cheats:      planted non-local algorithms MUST be flagged, with node,
//                  round, and offending origin
//   * audit-clean: every shipped paper algorithm and baseline passes
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "advice/advice.hpp"
#include "baselines/cole_vishkin.hpp"
#include "core/decompress.hpp"
#include "core/delta_coloring.hpp"
#include "core/orientation.hpp"
#include "core/splitting.hpp"
#include "core/subexp_lcl.hpp"
#include "core/three_coloring.hpp"
#include "graph/checkers.hpp"
#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "lcl/problems.hpp"
#include "local/audit.hpp"
#include "local/gather.hpp"
#include "util/contracts.hpp"

namespace lad {
namespace {

// ---------------------------------------------------------------------------
// Contracts layer

TEST(Contracts, CheckThrowsContractViolation) {
  EXPECT_THROW(LAD_CHECK(1 + 1 == 3), ContractViolation);
  EXPECT_THROW(LAD_CHECK_MSG(false, "custom " << 42), ContractViolation);
  EXPECT_NO_THROW(LAD_CHECK(true));
}

TEST(Contracts, CheckMessageNamesSite) {
  try {
    LAD_CHECK_MSG(2 > 3, "two is not more than three");
    FAIL() << "LAD_CHECK_MSG did not throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 > 3"), std::string::npos);
    EXPECT_NE(what.find("two is not more than three"), std::string::npos);
    EXPECT_NE(what.find("test_audit.cpp"), std::string::npos);
  }
}

TEST(Contracts, AssertIsNoopOnTrue) {
  EXPECT_NO_THROW(LAD_ASSERT(true));
  EXPECT_NO_THROW(LAD_ASSERT_MSG(true, "never shown"));
#if LAD_ASSERTS_ENABLED
  EXPECT_THROW(LAD_ASSERT(false), ContractViolation);
  EXPECT_THROW(LAD_UNREACHABLE("planted"), ContractViolation);
#endif
}

// ---------------------------------------------------------------------------
// View comparison and ID perturbations

TEST(Audit, IdenticalInstancesHaveIdenticalViews) {
  const Graph g = make_cycle(24, IdMode::kRandomDense, 1);
  DecodedInstance a;
  a.g = &g;
  DecodedInstance b;
  b.g = &g;
  for (int v = 0; v < g.n(); ++v) {
    EXPECT_TRUE(views_identical(a, b, v, 0));
    EXPECT_TRUE(views_identical(a, b, v, 3));
    EXPECT_TRUE(views_identical(a, b, v, g.n()));
  }
}

TEST(Audit, RotationPreservesViewsInsideAndBreaksThemOutside) {
  const Graph g = make_cycle(40, IdMode::kRandomDense, 2);
  const Graph alt = rotate_ids_outside_ball(g, 0, 5);
  EXPECT_EQ(alt.n(), g.n());
  // IDs inside the ball are untouched, outside they moved.
  const auto dist = bfs_distances(g, 0);
  int changed = 0;
  for (int v = 0; v < g.n(); ++v) {
    if (dist[static_cast<std::size_t>(v)] <= 5) {
      EXPECT_EQ(g.id(v), alt.id(v));
    } else if (g.id(v) != alt.id(v)) {
      ++changed;
    }
  }
  EXPECT_GT(changed, 0);

  DecodedInstance a;
  a.g = &g;
  DecodedInstance b;
  b.g = &alt;
  // A node two hops from the center sees no difference at radius 3 (ball
  // within the identity region) but does at radius 10.
  EXPECT_TRUE(views_identical(a, b, 2, 3));
  EXPECT_FALSE(views_identical(a, b, 2, 10));
}

TEST(Audit, AdviceDifferenceBreaksViewEquality) {
  const Graph g = make_path(10, IdMode::kRandomDense, 3);
  std::vector<char> bits_a(10, 0);
  std::vector<char> bits_b(10, 0);
  bits_b[9] = 1;
  DecodedInstance a;
  a.g = &g;
  a.advice = advice_strings_from_bits(bits_a);
  DecodedInstance b;
  b.g = &g;
  b.advice = advice_strings_from_bits(bits_b);
  EXPECT_TRUE(views_identical(a, b, 0, 5));
  EXPECT_FALSE(views_identical(a, b, 0, 9));
}

// ---------------------------------------------------------------------------
// Provenance tracking in the engine

// Plain flooding: every node repeats everything it knows for `radius`
// rounds. Provenance must grow exactly like the ball.
class Flooder : public SyncAlgorithm {
 public:
  explicit Flooder(int radius) : radius_(radius) {}
  void init(const Graph& g) override {
    known_.assign(static_cast<std::size_t>(g.n()), "");
    for (int v = 0; v < g.n(); ++v) {
      known_[static_cast<std::size_t>(v)] = std::to_string(g.id(v));
    }
  }
  void round(NodeCtx& ctx) override {
    auto& k = known_[static_cast<std::size_t>(ctx.node())];
    for (int p = 0; p < ctx.degree(); ++p) {
      if (!ctx.has_message(p)) continue;
      k += '|';
      k += ctx.received(p);
    }
    if (ctx.round_number() > radius_) {
      ctx.halt(k);
      return;
    }
    ctx.broadcast(k);
  }

 private:
  int radius_ = 0;
  std::vector<std::string> known_;
};

TEST(Provenance, FlooderGrowsExactlyOneHopPerRound) {
  const Graph g = make_cycle(30, IdMode::kRandomDense, 4);
  Flooder alg(4);
  Engine eng(g);
  eng.enable_audit();
  const auto run = eng.run(alg, 10);
  EXPECT_TRUE(run.all_halted);
  const auto& log = eng.audit_log();
  EXPECT_TRUE(log.clean());
  ASSERT_GE(log.per_round.size(), 5u);
  for (const auto& stats : log.per_round) {
    // Initial knowledge is the radius-1 ball (own ID + neighbor IDs), and
    // each round of flooding extends it by one hop, so after round r the
    // provenance radius is exactly r (capped at the halting round). On a
    // cycle the radius-r ball has exactly 2r+1 nodes.
    const int expected_radius = std::min(4 + 1, stats.round);
    if (stats.active_nodes == 0) continue;
    EXPECT_EQ(stats.max_radius, expected_radius) << "round " << stats.round;
    EXPECT_EQ(stats.max_set_size, 2 * expected_radius + 1) << "round " << stats.round;
    EXPECT_LE(stats.max_radius, stats.round);
  }
}

TEST(Provenance, GatherByMessagesMatchesBallSemantics) {
  // The flooding gather is the operational proof of the view API; it must
  // run audit-clean (its information flow is exactly the radius-t ball).
  const Graph g = make_grid(8, 8, IdMode::kRandomDense, 5);
  const auto balls = gather_balls_by_messages(g, 2);
  EXPECT_EQ(static_cast<int>(balls.size()), g.n());
}

TEST(Provenance, ColeVishkinRunsAuditClean) {
  const Graph g = make_cycle(64, IdMode::kRandomDense, 6);
  EngineAuditLog log;
  const auto res = cole_vishkin_cycle(g, cycle_successors(g), &log);
  EXPECT_TRUE(is_proper_coloring(g, res.colors, 3));
  EXPECT_TRUE(log.clean());
  ASSERT_FALSE(log.per_round.empty());
  for (const auto& stats : log.per_round) {
    EXPECT_LE(stats.max_radius, stats.round);
  }
}

// ---------------------------------------------------------------------------
// Planted cheats: the auditor must flag them with node, round, and origin

// Cheat 1: reads topology two hops away through the Graph reference captured
// in init(), yet halts after a single round. A 1-round algorithm may only
// know its radius-1 ball.
class TwoHopPeeker : public SyncAlgorithm {
 public:
  void init(const Graph& g) override { g_ = &g; }
  void round(NodeCtx& ctx) override {
    const int v = ctx.node();
    std::vector<NodeId> seen{g_->id(v)};
    for (const int u : g_->neighbors(v)) {
      seen.push_back(g_->id(u));
      for (const int w : g_->neighbors(u)) seen.push_back(g_->id(w));
    }
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    std::ostringstream os;
    for (const auto id : seen) os << id << ',';
    ctx.halt(os.str());
  }

 private:
  const Graph* g_ = nullptr;
};

TEST(AuditCheats, TwoHopPeekerIsFlaggedWithNodeRoundAndOrigin) {
  const Graph g = make_cycle(40, IdMode::kRandomDense, 7);
  const Graph alt = rotate_ids_outside_ball(g, 0, 3);
  const auto report = audit_sync_algorithm(
      g, alt, [](const Graph&) { return std::make_unique<TwoHopPeeker>(); }, 5);

  EXPECT_FALSE(report.clean());
  EXPECT_GT(report.nodes_checked, 0);
  // make_cycle connects consecutive indices: the checked nodes are
  // ball(0, 2) = {38, 39, 0, 1, 2}; of these, 2 and 38 peek at rotated IDs
  // at distance 2.
  ASSERT_EQ(report.violations.size(), 2u);
  for (const auto& viol : report.violations) {
    EXPECT_TRUE(viol.node == 2 || viol.node == 38) << viol.detail;
    EXPECT_EQ(viol.round, 1);
    EXPECT_GE(viol.origin, 0);
    EXPECT_EQ(viol.origin_distance, 2);
    EXPECT_EQ(viol.origin_id, g.id(viol.origin));
    EXPECT_GT(viol.origin_distance, viol.round) << "origin must lie outside the audited ball";
  }
  // The provenance layer cannot see this cheat — it bypasses NodeCtx
  // entirely. That is exactly why the indistinguishability pass exists.
  EXPECT_TRUE(report.provenance.clean());
}

// Cheat 2: the classical simulator race — reads per-node state that another
// node already updated *this* round. Because the engine steps nodes in index
// order, a chain of same-round reads carries an ID transcript across many
// hops within one round. (Note the leaked quantity must not be a symmetric
// function of the far IDs: the perturbation permutes the out-of-ball IDs
// among themselves, so e.g. a max over them would be invariant.)
class SameRoundLeaker : public SyncAlgorithm {
 public:
  void init(const Graph& g) override {
    g_ = &g;
    seen_.assign(static_cast<std::size_t>(g.n()), "");
  }
  void round(NodeCtx& ctx) override {
    const int v = ctx.node();
    std::string s = std::to_string(g_->id(v));
    for (const int u : g_->neighbors(v)) {
      if (u < v) s += "|" + seen_[static_cast<std::size_t>(u)];  // race: same-round read
    }
    seen_[static_cast<std::size_t>(v)] = s;
    ctx.halt(std::move(s));
  }

 private:
  const Graph* g_ = nullptr;
  std::vector<std::string> seen_;
};

TEST(AuditCheats, SameRoundStateRaceIsFlagged) {
  const Graph g = make_cycle(40, IdMode::kRandomDense, 8);
  const Graph alt = rotate_ids_outside_ball(g, 0, 3);
  const auto report = audit_sync_algorithm(
      g, alt, [](const Graph&) { return std::make_unique<SameRoundLeaker>(); }, 5);
  EXPECT_FALSE(report.clean());
  for (const auto& viol : report.violations) {
    EXPECT_EQ(viol.round, 1);
    EXPECT_GT(viol.origin_distance, viol.round) << viol.detail;
  }
}

// Honest control for the same harness: a 1-round algorithm that reports its
// radius-1 ball through the sanctioned API must be clean.
class OneHopReporter : public SyncAlgorithm {
 public:
  void round(NodeCtx& ctx) override {
    std::ostringstream os;
    os << ctx.id() << ':';
    for (int p = 0; p < ctx.degree(); ++p) os << ctx.neighbor_id(p) << ',';
    ctx.halt(os.str());
  }
};

TEST(AuditCheats, HonestOneHopAlgorithmIsClean) {
  const Graph g = make_cycle(40, IdMode::kRandomDense, 9);
  const Graph alt = rotate_ids_outside_ball(g, 0, 3);
  const auto report = audit_sync_algorithm(
      g, alt, [](const Graph&) { return std::make_unique<OneHopReporter>(); }, 5);
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.nodes_checked, 0);
  EXPECT_TRUE(report.provenance.clean());
}

// Cheat 3: an advice decoder that reads the advice bit of the globally
// largest-ID node while declaring a 1-round decoder.
DecodedInstance global_bit_cheat(const Graph& g, const std::vector<char>& bits) {
  int peek = 0;
  for (int v = 1; v < g.n(); ++v) {
    if (g.id(v) > g.id(peek)) peek = v;
  }
  DecodedInstance inst;
  inst.g = &g;
  inst.advice = advice_strings_from_bits(bits);
  inst.rounds = 1;
  for (int v = 0; v < g.n(); ++v) {
    inst.outputs.push_back(bits[static_cast<std::size_t>(peek)] ? "1" : "0");
  }
  return inst;
}

TEST(AuditCheats, DecoderReadingAdviceOutsideItsBallIsFlagged) {
  const Graph g = make_cycle(30, IdMode::kRandomDense, 10);
  int peek = 0;
  for (int v = 1; v < g.n(); ++v) {
    if (g.id(v) > g.id(peek)) peek = v;
  }
  std::vector<char> bits(30, 0);
  std::vector<char> alt_bits = bits;
  alt_bits[static_cast<std::size_t>(peek)] = 1;  // flip only the peeked bit

  const auto report =
      audit_decoded_pair(global_bit_cheat(g, bits), global_bit_cheat(g, alt_bits));
  EXPECT_FALSE(report.clean());
  // Every node at distance >= 2 from the flipped bit has an unchanged
  // radius-1 view yet a flipped output.
  EXPECT_EQ(static_cast<int>(report.violations.size()), g.n() - 3);
  for (const auto& viol : report.violations) {
    EXPECT_EQ(viol.round, 1);
    EXPECT_EQ(viol.origin, peek) << viol.detail;
    EXPECT_EQ(viol.origin_id, g.id(peek));
    EXPECT_GE(viol.origin_distance, 2);
  }
}

TEST(AuditCheats, HonestOwnBitDecoderIsClean) {
  const Graph g = make_cycle(30, IdMode::kRandomDense, 11);
  std::vector<char> bits(30, 0);
  std::vector<char> alt_bits = bits;
  alt_bits[7] = 1;
  auto honest = [](const Graph& gr, const std::vector<char>& b) {
    DecodedInstance inst;
    inst.g = &gr;
    inst.advice = advice_strings_from_bits(b);
    inst.rounds = 1;
    for (int v = 0; v < gr.n(); ++v) inst.outputs.push_back(b[static_cast<std::size_t>(v)] ? "1" : "0");
    return inst;
  };
  const auto report = audit_decoded_pair(honest(g, bits), honest(g, alt_bits));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.nodes_checked, g.n() - 3);
  EXPECT_EQ(report.nodes_skipped, 3);
}

// ---------------------------------------------------------------------------
// Audit-clean runs of the shipped paper algorithms.
//
// Standard setup: the instance is a disjoint union MAIN ⊎ PROBE. The
// perturbation rotates every ID in PROBE (rotate_ids_outside_ball with the
// whole MAIN component as the ball) and re-encodes. Every MAIN node's view
// is confined to its own component, so all of MAIN must be checked and
// unchanged; a decoder with any cross-component (= non-local) dependence
// would be flagged.

std::string orientation_output(const Graph& g, const Orientation& o, int v) {
  std::string s;
  for (const int e : g.incident_edges(v)) {
    const bool tail = (o[static_cast<std::size_t>(e)] == EdgeDir::kForward) == (g.edge_u(e) == v);
    s += tail ? '>' : '<';
  }
  return s;
}

TEST(AuditClean, Orientation) {
  const Graph g =
      disjoint_union({make_cycle(400), make_cycle(24), make_path(16)}, IdMode::kRandomDense, 12);
  const Graph alt = rotate_ids_outside_ball(g, 0, g.n());

  auto decode_instance = [](const Graph& gr) {
    const auto enc = encode_orientation_advice(gr);
    const auto dec = decode_orientation(gr, enc.bits);
    DecodedInstance inst;
    inst.g = &gr;
    inst.advice = advice_strings_from_bits(enc.bits);
    inst.rounds = dec.rounds;
    for (int v = 0; v < gr.n(); ++v) {
      inst.outputs.push_back(orientation_output(gr, dec.orientation, v));
    }
    return inst;
  };

  const auto report = audit_decoded_pair(decode_instance(g), decode_instance(alt));
  EXPECT_TRUE(report.clean()) << (report.violations.empty() ? "" : report.violations[0].detail);
  EXPECT_EQ(report.nodes_checked, 400);
}

TEST(AuditClean, DecompressAcrossComponents) {
  const Graph g = disjoint_union({make_cycle(400), make_cycle(24)}, IdMode::kRandomDense, 13);
  const Graph alt = rotate_ids_outside_ball(g, 0, g.n());

  auto decode_instance = [](const Graph& gr) {
    std::vector<char> x(static_cast<std::size_t>(gr.m()));
    for (int e = 0; e < gr.m(); ++e) x[static_cast<std::size_t>(e)] = e % 3 == 0;
    const auto c = compress_edge_set(gr, x);
    const auto r = decompress_edge_set(gr, c);
    DecodedInstance inst;
    inst.g = &gr;
    for (int v = 0; v < gr.n(); ++v) {
      inst.advice.push_back(c.labels[static_cast<std::size_t>(v)].to_string());
    }
    inst.rounds = r.rounds;
    for (int v = 0; v < gr.n(); ++v) {
      std::string s;
      for (const int e : gr.incident_edges(v)) s += r.in_x[static_cast<std::size_t>(e)] ? '1' : '0';
      inst.outputs.push_back(s);
    }
    return inst;
  };

  const auto report = audit_decoded_pair(decode_instance(g), decode_instance(alt));
  EXPECT_TRUE(report.clean()) << (report.violations.empty() ? "" : report.violations[0].detail);
  EXPECT_EQ(report.nodes_checked, 400);
}

TEST(AuditClean, DecompressUnderFarInputFlip) {
  // Within-component coverage: flipping the membership of one far edge may
  // only change outputs within the decoder's declared radius of it.
  const Graph g = make_cycle(1200, IdMode::kRandomDense, 14);
  std::vector<char> x(static_cast<std::size_t>(g.m()), 0);
  for (int e = 0; e < g.m(); e += 5) x[static_cast<std::size_t>(e)] = 1;
  std::vector<char> x_alt = x;
  const int flipped_edge = g.edge_between(600, 601);
  ASSERT_GE(flipped_edge, 0);
  x_alt[static_cast<std::size_t>(flipped_edge)] ^= 1;

  auto decode_instance = [&g](const std::vector<char>& in_x) {
    const auto c = compress_edge_set(g, in_x);
    const auto r = decompress_edge_set(g, c);
    DecodedInstance inst;
    inst.g = &g;
    for (int v = 0; v < g.n(); ++v) {
      inst.advice.push_back(c.labels[static_cast<std::size_t>(v)].to_string());
    }
    inst.rounds = r.rounds;
    for (int v = 0; v < g.n(); ++v) {
      std::string s;
      for (const int e : g.incident_edges(v)) s += r.in_x[static_cast<std::size_t>(e)] ? '1' : '0';
      inst.outputs.push_back(s);
    }
    return inst;
  };

  const auto report = audit_decoded_pair(decode_instance(x), decode_instance(x_alt));
  EXPECT_TRUE(report.clean()) << (report.violations.empty() ? "" : report.violations[0].detail);
  EXPECT_GT(report.nodes_checked, 400);
}

TEST(AuditClean, Splitting) {
  const Graph g = disjoint_union({make_cycle(400), make_cycle(16)}, IdMode::kRandomDense, 15);
  const Graph alt = rotate_ids_outside_ball(g, 0, g.n());

  auto decode_instance = [](const Graph& gr) {
    const auto enc = encode_splitting_advice(gr);
    const auto dec = decode_splitting(gr, enc.bits);
    DecodedInstance inst;
    inst.g = &gr;
    inst.advice = advice_strings_from_bits(enc.bits);
    inst.rounds = dec.rounds;
    for (int v = 0; v < gr.n(); ++v) {
      std::string s = std::to_string(dec.node_color[static_cast<std::size_t>(v)]) + ":";
      for (const int e : gr.incident_edges(v)) {
        s += std::to_string(dec.edge_color[static_cast<std::size_t>(e)]);
      }
      inst.outputs.push_back(s);
    }
    return inst;
  };

  const auto report = audit_decoded_pair(decode_instance(g), decode_instance(alt));
  EXPECT_TRUE(report.clean()) << (report.violations.empty() ? "" : report.violations[0].detail);
  EXPECT_EQ(report.nodes_checked, 400);
}

TEST(AuditClean, ThreeColoring) {
  const auto main_part = make_planted_caterpillar(200, 16);
  const auto probe_part = make_planted_caterpillar(12, 17);
  const Graph g =
      disjoint_union({main_part.graph, probe_part.graph}, IdMode::kRandomDense, 18);
  std::vector<int> witness = main_part.coloring;
  witness.insert(witness.end(), probe_part.coloring.begin(), probe_part.coloring.end());
  const Graph alt = rotate_ids_outside_ball(g, 0, g.n());
  const int main_n = main_part.graph.n();

  auto decode_instance = [&witness](const Graph& gr) {
    const auto enc = encode_three_coloring_advice(gr, witness);
    const auto dec = decode_three_coloring(gr, enc.bits);
    LAD_CHECK(is_proper_coloring(gr, dec.coloring, 3));
    DecodedInstance inst;
    inst.g = &gr;
    inst.advice = advice_strings_from_bits(enc.bits);
    inst.rounds = dec.rounds;
    for (int v = 0; v < gr.n(); ++v) {
      inst.outputs.push_back(std::to_string(dec.coloring[static_cast<std::size_t>(v)]));
    }
    return inst;
  };

  const auto report = audit_decoded_pair(decode_instance(g), decode_instance(alt));
  EXPECT_TRUE(report.clean()) << (report.violations.empty() ? "" : report.violations[0].detail);
  EXPECT_GE(report.nodes_checked, main_n);
}

std::vector<std::string> var_advice_strings(const Graph& g, const VarAdvice& advice) {
  std::vector<std::string> out(static_cast<std::size_t>(g.n()));
  for (const auto& [v, entries] : advice) {
    std::ostringstream os;
    for (const auto& e : entries) {
      os << e.schema_id << ':' << e.anchor_id << ':' << e.payload.to_string() << ';';
    }
    out[static_cast<std::size_t>(v)] = os.str();
  }
  return out;
}

TEST(AuditClean, DeltaColoring) {
  const auto main_part = make_planted_colorable(300, 4, 3.0, 4, 19);
  const auto probe_part = make_planted_colorable(24, 4, 3.0, 4, 20);
  const Graph g =
      disjoint_union({main_part.graph, probe_part.graph}, IdMode::kRandomDense, 21);
  std::vector<int> witness = main_part.coloring;
  witness.insert(witness.end(), probe_part.coloring.begin(), probe_part.coloring.end());
  const Graph alt = rotate_ids_outside_ball(g, 0, g.n());
  const int main_n = main_part.graph.n();

  auto decode_instance = [&witness](const Graph& gr) {
    const auto enc = encode_delta_coloring_advice(gr, witness);
    const auto dec = decode_delta_coloring(gr, enc.advice);
    LAD_CHECK(is_proper_coloring(gr, dec.coloring, gr.max_degree()));
    DecodedInstance inst;
    inst.g = &gr;
    inst.advice = var_advice_strings(gr, enc.advice);
    inst.rounds = dec.rounds;
    for (int v = 0; v < gr.n(); ++v) {
      inst.outputs.push_back(std::to_string(dec.coloring[static_cast<std::size_t>(v)]));
    }
    return inst;
  };

  const auto report = audit_decoded_pair(decode_instance(g), decode_instance(alt));
  EXPECT_TRUE(report.clean()) << (report.violations.empty() ? "" : report.violations[0].detail);
  // The Δ-coloring encoder draws its clustering from a global rng stream, so
  // relabeling the probe component can perturb advice for a few main-component
  // nodes; those nodes are (correctly) skipped, not audited. Coverage must
  // still be essentially the whole main component.
  EXPECT_GE(report.nodes_checked, main_n * 9 / 10);
}

TEST(AuditClean, SubexpLcl) {
  const Graph g = disjoint_union({make_cycle(1200), make_cycle(36)}, IdMode::kRandomDense, 22);
  const Graph alt = rotate_ids_outside_ball(g, 0, g.n());
  VertexColoringLcl p(3);
  SubexpLclParams params;
  params.x = 100;

  auto decode_instance = [&p, &params](const Graph& gr) {
    const auto enc = encode_subexp_lcl_advice(gr, p, params);
    const auto dec = decode_subexp_lcl(gr, p, enc.bits, params);
    LAD_CHECK(is_valid_labeling(gr, p, dec.labeling));
    DecodedInstance inst;
    inst.g = &gr;
    inst.advice = advice_strings_from_bits(enc.bits);
    inst.rounds = dec.rounds;
    for (int v = 0; v < gr.n(); ++v) {
      inst.outputs.push_back(std::to_string(dec.labeling.node_labels[static_cast<std::size_t>(v)]));
    }
    return inst;
  };

  const auto report = audit_decoded_pair(decode_instance(g), decode_instance(alt));
  EXPECT_TRUE(report.clean()) << (report.violations.empty() ? "" : report.violations[0].detail);
  EXPECT_EQ(report.nodes_checked, 1200);
}

TEST(AuditClean, GatherUnderEngineAudit) {
  const Graph g = make_cycle(60, IdMode::kRandomDense, 23);
  const Graph alt = rotate_ids_outside_ball(g, 0, 10);
  const auto report = audit_sync_algorithm(
      g, alt, [](const Graph&) { return std::make_unique<Flooder>(2); }, 10);
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.nodes_checked, 0);
  EXPECT_TRUE(report.provenance.clean());
}

}  // namespace
}  // namespace lad
