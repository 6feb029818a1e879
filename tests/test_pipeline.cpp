// The Pipeline registry (core/pipeline.hpp): every paper pipeline is
// reachable through the uniform interface, and encode -> decode -> verify
// round-trips on the pipeline's own instance family.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "faults/robust.hpp"
#include "graph/generators.hpp"
#include "graph/source.hpp"
#include "obs/profile.hpp"
#include "util/hashing.hpp"

namespace lad {
namespace {

TEST(PipelineRegistry, CoversAllSixPipelinesWithUniqueNames) {
  const auto& all = pipelines();
  ASSERT_EQ(all.size(), 6u);
  std::set<std::string> names;
  for (const Pipeline* p : all) {
    names.insert(p->name());
    EXPECT_EQ(&pipeline(p->id()), p);
    EXPECT_EQ(find_pipeline(p->name()), p);
  }
  EXPECT_EQ(names.size(), 6u);
  EXPECT_EQ(find_pipeline("no_such_pipeline"), nullptr);
}

TEST(PipelineRegistry, EncodeDecodeVerifyRoundTripsOnOwnInstances) {
  for (const Pipeline* p : pipelines()) {
    SCOPED_TRACE(p->name());
    const PipelineConfig cfg;
    const Graph g = p->make_instance(96, 3);
    const auto adv = p->encode(g, cfg);
    EXPECT_EQ(adv.carrier, p->carrier());
    const auto out = p->decode(g, adv, cfg);
    EXPECT_TRUE(p->verify(g, out, cfg));
    EXPECT_EQ(p->node_digests(g, out).size(), static_cast<std::size_t>(g.n()));
    EXPECT_EQ(adv.node_strings(g.n()).size(), static_cast<std::size_t>(g.n()));
    const auto stats = adv.stats(g.n());
    EXPECT_GT(stats.total_bits, 0);
  }
}

// On clean advice the guarded decode must detect, repair and flag nothing.
// A tolerant decoder's failed flag counts as a detection, so this also
// checks that the tolerant decodes contain nothing on clean advice.
TEST(PipelineRegistry, GuardedDecodeIsCleanOnUncorruptedAdvice) {
  for (const Pipeline* p : pipelines()) {
    for (const auto& [n, seed] : {std::pair{96, 3}, std::pair{400, 4}}) {
      SCOPED_TRACE(std::string(p->name()) + " n=" + std::to_string(n));
      const PipelineConfig cfg;
      const Graph g = p->make_instance(n, seed);
      const auto adv = robust::guarded_encode(*p, g, cfg);
      const auto out = robust::guarded_decode(*p, g, adv, cfg);
      EXPECT_TRUE(out.report.output_valid);
      EXPECT_FALSE(out.report.degraded()) << out.report.to_string();
      EXPECT_TRUE(p->verify(g, out.output, cfg));
    }
  }
}

// Output pins, run the way `lad bench --graph SPEC --pipeline P` runs them:
// the fingerprint of the per-node output digests, the fingerprint of the
// per-node advice strings, the rounds and the total advice bits. The advice
// fingerprint is the one that sees where the §5 markers sit: every valid
// marker placement decodes to the same planted output.
struct Pin {
  const char* pipeline;
  const char* spec;
  const char* fingerprint;
  const char* advice_fingerprint;
  int rounds;
  long long total_bits;
};

void expect_pins(const std::vector<Pin>& pins) {
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(pin.pipeline) + " on " + pin.spec);
    const Pipeline* p = find_pipeline(pin.pipeline);
    ASSERT_NE(p, nullptr);
    std::string err;
    const auto lg = load_graph_source(pin.spec, &err);
    ASSERT_TRUE(lg.has_value()) << err;
    const Graph& g = lg->graph;
    PipelineConfig cfg = p->sweep_config(g.n());
    cfg.seed = hash2(1, static_cast<std::uint64_t>(g.n()));
    const auto adv = p->encode(g, cfg);
    const auto out = p->decode(g, adv, cfg);
    EXPECT_TRUE(p->verify(g, out, cfg));
    EXPECT_EQ(obs::fingerprint_hex(p->node_digests(g, out)), pin.fingerprint);
    EXPECT_EQ(obs::fingerprint_hex(adv.node_strings(g.n())), pin.advice_fingerprint);
    EXPECT_EQ(out.rounds, pin.rounds);
    EXPECT_EQ(adv.stats(g.n()).total_bits, pin.total_bits);
  }
}

// At n ≈ 10⁵. Splitting has none: on torus:316x316@1 its encoder exhausts
// the trail-mark re-sampling budget (ROADMAP 1(b)).
TEST(PipelinePins, LargeInstanceDigestsAreStable) {
  expect_pins({
      {"three_coloring", "grid:316x316@1", "a845b603411b75a7", "a6e2224d088d3c97", 1, 99856},
      {"delta_coloring", "torus:316x316@1", "b8850d96bf141fb5", "51d24709021b3b55", 61, 25659},
      {"subexp_lcl", "cycle:100000@1", "26c52fa430c52029", "f153f9995f1a8f07", 908115, 100000},
      {"decompress", "torus:316x316@1", "d2c89e60b639d64e", "f5dc629ce3c5266f", 257, 299568},
      {"orientation", "cycle:100000@1", "31ecac3182a2861b", "a5ee7518c48a9b87", 130, 100000},
  });
}

// At n = 16384, where all six run (splitting included) in about a second
// together, so the sanitizer job runs them too.
TEST(PipelinePins, ReducedInstanceDigestsAreStable) {
  expect_pins({
      {"orientation", "cycle:16384@1", "8d7ee0c33138aabc", "3a91a3a399a96667", 130, 16384},
      {"decompress", "torus:128x128@1", "6c5fdcfbfb96c433", "80912169d85e01e5", 257, 49152},
      {"splitting", "torus:128x128@1", "9dc728e0cd23d694", "2df20bb67b0a5feb", 262, 16384},
      {"delta_coloring", "torus:128x128@1", "f532c238444a8355", "aeb61292ca5006b6", 61, 3513},
      {"three_coloring", "grid:128x128@1", "8a9992fd19268a8e", "eacbfc3a1c1d326f", 1, 16384},
      {"subexp_lcl", "cycle:16384@1", "931bfb1a61814363", "d01800fc70ceeedd", 908115, 16384},
  });
}

// Admission rejects with the named type before any work, and the knobs a
// caller leaves at 0 are derived from n and Δ (DESIGN.md §8.5).
TEST(PipelineAdmission, RejectsOutsideTheTheoremAndDerivesUnsetKnobs) {
  const PipelineConfig cfg;
  EXPECT_THROW(pipeline(PipelineId::kSplitting).encode(make_cycle(101), cfg), InadmissibleInput);
  EXPECT_THROW(pipeline(PipelineId::kDeltaColoring).encode(make_complete(5), cfg),
               InadmissibleInput);
  EXPECT_THROW(pipeline(PipelineId::kThreeColoring).encode(make_complete(4), cfg),
               InadmissibleInput);
  // Δ = 2 derives a repair cap of 20, long enough for a 4096-cycle's parity.
  EXPECT_NO_THROW(
      pipeline(PipelineId::kDeltaColoring).encode(make_cycle(4096, IdMode::kRandomDense, 1), cfg));
  EXPECT_EQ(subexp_at_scale({}, 511).x, 60);
  EXPECT_EQ(subexp_at_scale({}, 512).x, 150);
  EXPECT_EQ(subexp_at_scale(pipeline(PipelineId::kSubexpLcl).sweep_config(64).subexp, 64).x, 150);
  EXPECT_EQ(delta_repair_cap(2), 20);
  EXPECT_EQ(delta_repair_cap(3), 6);
}

TEST(PipelineHelpers, HashedMembershipIsIdKeyedAndDensityBounded) {
  const Graph g = make_cycle(400, IdMode::kRandomDense, 9);
  const auto a = hashed_edge_membership(g, 7, 0.5);
  EXPECT_EQ(a, hashed_edge_membership(g, 7, 0.5));
  EXPECT_NE(a, hashed_edge_membership(g, 8, 0.5));
  int ones = 0;
  for (const char b : a) ones += b != 0;
  EXPECT_GT(ones, g.m() / 4);
  EXPECT_LT(ones, 3 * g.m() / 4);
  for (const char b : hashed_edge_membership(g, 7, 0.0)) EXPECT_EQ(b, 0);
}

}  // namespace
}  // namespace lad
