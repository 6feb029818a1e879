// Guarded-decoder campaigns: every paper decoder runs >= 100 seeded trials
// under the mixed adversary (advice + graph + engine faults at once). The
// layer's contract, asserted per campaign:
//
//   * zero silent corruptions — every invalid output is detected, repaired,
//     or flagged;
//   * zero residual violations — whatever the checker still rejects lies
//     inside the flagged scope;
//   * the adversary genuinely fired (faults_injected > 0, some trials
//     degraded), so the assertions are not vacuous.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/orientation.hpp"
#include "core/three_coloring.hpp"
#include "faults/campaign.hpp"
#include "faults/robust.hpp"
#include "graph/euler.hpp"
#include "graph/generators.hpp"
#include "graph/source.hpp"

namespace lad::faults {
namespace {

CampaignConfig campaign_for(PipelineId decoder) {
  CampaignConfig cfg;
  cfg.decoder = decoder;
  cfg.family = GraphFamily::kCycle;
  cfg.n = 200;
  cfg.trials = 100;
  cfg.seed = 2024;
  // Keep the §4 cluster machinery (x derived from n) small enough for 100 trials.
  if (decoder == PipelineId::kSubexpLcl) cfg.n = 128;
  return cfg;
}

class RobustCampaignTest : public ::testing::TestWithParam<const Pipeline*> {};

TEST_P(RobustCampaignTest, MixedAdversaryHundredTrialsNoSilentCorruption) {
  const auto cfg = campaign_for(GetParam()->id());
  const auto s = run_fault_campaign(cfg);

  ASSERT_EQ(s.trials, cfg.trials);
  EXPECT_GT(s.faults_injected, 0) << "adversary never fired; campaign is vacuous";
  EXPECT_GT(s.trials_degraded, 0) << "no trial was even perturbed; campaign is vacuous";

  EXPECT_EQ(s.silent_corruptions, 0) << s.to_string();
  EXPECT_EQ(s.trials_residual, 0) << s.to_string();

  // Every trial ends in an explicit verdict: valid output, or flagged
  // nodes surfacing the unservable region.
  for (int t = 0; t < s.trials; ++t) {
    const auto& r = s.reports[static_cast<std::size_t>(t)];
    EXPECT_TRUE(r.output_valid || !r.flagged_nodes.empty() || r.degraded())
        << "trial " << t << " ended with no verdict:\n"
        << r.to_string();
    EXPECT_FALSE(r.silent_corruption) << "trial " << t << ":\n" << r.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(AllDecoders, RobustCampaignTest, ::testing::ValuesIn(pipelines()),
                         [](const ::testing::TestParamInfo<const Pipeline*>& info) {
                           return std::string(info.param->name());
                         });

// Uniform one-bit advice in the registry's carrier.
PipelineAdvice uniform_bits(std::vector<char> bits) {
  PipelineAdvice adv;
  adv.bits = std::move(bits);
  return adv;
}

TEST(RobustDecoders, CleanAdviceIsNotDegraded) {
  // No adversary: the guarded decoders must agree with the raw ones and
  // report a perfectly healthy run (no false-positive detections).
  const Graph g = make_cycle(300, IdMode::kRandomDense, 5);
  const auto enc = encode_orientation_advice(g);
  const auto res = robust::guarded_decode(pipeline(PipelineId::kOrientation), g,
                                          uniform_bits(enc.bits), {});
  EXPECT_TRUE(res.report.output_valid);
  EXPECT_FALSE(res.report.degraded());
  EXPECT_TRUE(is_balanced_orientation(g, res.output.orientation, 1));

  const auto pc = make_planted_colorable(400, 3, 2.4, 5, 7);
  const auto enc3 = encode_three_coloring_advice(pc.graph, pc.coloring);
  const auto res3 = robust::guarded_decode(pipeline(PipelineId::kThreeColoring), pc.graph,
                                           uniform_bits(enc3.bits), {});
  EXPECT_TRUE(res3.report.output_valid);
  EXPECT_FALSE(res3.report.degraded());
  EXPECT_TRUE(is_proper_coloring(pc.graph, res3.output.node_color, 3));
}

TEST(RobustDecoders, GuardedDecompressFlagsInsteadOfGuessing) {
  // Byzantine rewrites of membership labels are information-theoretically
  // undetectable without the appended guard; with it, tampered labels are
  // flagged and the affected edges reported unknown — never guessed.
  const Pipeline& p = pipeline(PipelineId::kDecompress);
  const Graph g = make_cycle(240, IdMode::kRandomDense, 6);
  const PipelineConfig cfg;
  const auto x = hashed_edge_membership(g, cfg.seed, kDecompressDensity);
  auto tampered = robust::guarded_encode(p, g, cfg);

  // Flip a membership bit inside one label, leaving its length intact.
  BitString& label = tampered.labels[17];
  ASSERT_GT(label.size(), 1);
  BitString rebuilt;
  for (int i = 0; i < label.size(); ++i) rebuilt.append(i == 1 ? !label.bit(i) : label.bit(i));
  label = rebuilt;

  const auto dec = robust::guarded_decode(p, g, tampered, cfg);
  EXPECT_FALSE(dec.report.silent_corruption);
  EXPECT_FALSE(dec.report.flagged_nodes.empty());
  EXPECT_FALSE(dec.report.output_valid);
  // Untampered nodes keep their membership bits, and they are correct.
  int known = 0;
  for (int e = 0; e < g.m(); ++e) {
    if (!dec.output.edge_known[static_cast<std::size_t>(e)]) continue;
    ++known;
    EXPECT_EQ(dec.output.edge_in_x[static_cast<std::size_t>(e)], x[static_cast<std::size_t>(e)])
        << e;
  }
  EXPECT_GT(known, 0);
}

TEST(RobustDecoders, GuardedDecodersSurviveEmptyBits) {
  // Wrong-sized advice is a detection, not UB and not a throw: the guarded
  // layer normalizes, repairs what it can, and reports.
  const Graph g = make_cycle(60, IdMode::kRandomDense, 8);
  const PipelineAdvice empty;
  const PipelineConfig cfg;

  const auto o = robust::guarded_decode(pipeline(PipelineId::kOrientation), g, empty, cfg);
  EXPECT_GT(o.report.detected_violations, 0);
  EXPECT_FALSE(o.report.silent_corruption);

  const auto s = robust::guarded_decode(pipeline(PipelineId::kSplitting), g, empty, cfg);
  EXPECT_GT(s.report.detected_violations, 0);
  EXPECT_FALSE(s.report.silent_corruption);

  const auto t = robust::guarded_decode(pipeline(PipelineId::kThreeColoring), g, empty, cfg);
  EXPECT_GT(t.report.detected_violations, 0);
  EXPECT_FALSE(t.report.silent_corruption);

  const auto d = robust::guarded_decode(pipeline(PipelineId::kDecompress), g, empty, cfg);
  EXPECT_GT(d.report.detected_violations, 0);
  EXPECT_FALSE(d.report.output_valid);
}

TEST(RobustDecoders, TrailFallbackIsChargedTheWholeTrail) {
  // All-zero advice decodes no marker, so every marked trail falls back to
  // its advice-free canonical direction, which needs the whole trail: both
  // trail decoders charge it its positions, not the walk limit, which here
  // exceeds every trail.
  const auto src = parse_graph_source("torus:16x16", nullptr);
  ASSERT_TRUE(src.has_value());
  const Graph g = load_graph_source(*src).graph;
  const TrailSchema schema = trail_schema(g, {}, /*payload_bits=*/1);
  int longest = 0;
  for (std::size_t i = 0; i < schema.trails.size(); ++i) {
    const Trail& t = schema.trails[i];
    longest = std::max(longest, schema.marked[i] != 0 ? t.positions() : t.length());
  }
  ASSERT_GT(schema.walk_limit, longest);

  const PipelineAdvice zeros = uniform_bits(std::vector<char>(static_cast<std::size_t>(g.n()), 0));
  const PipelineConfig cfg;
  const auto o = robust::guarded_decode(pipeline(PipelineId::kOrientation), g, zeros, cfg);
  const auto s = robust::guarded_decode(pipeline(PipelineId::kSplitting), g, zeros, cfg);
  EXPECT_EQ(o.report.rounds, longest);
  EXPECT_EQ(s.report.rounds, longest);
}

TEST(RobustDecoders, LongCycleWithoutMarkersTakesTheCanonicalFallback) {
  // One closed trail of 65536 positions and all-zero advice: no marker
  // decodes, so the whole trail falls back to its advice-free canonical
  // direction, read in one linear scan (a quadratic rule took minutes
  // here). Every edge is oriented, and along the trail.
  const auto src = parse_graph_source("cycle:65536", nullptr);
  ASSERT_TRUE(src.has_value());
  const Graph g = load_graph_source(*src).graph;
  const PipelineAdvice zeros = uniform_bits(std::vector<char>(static_cast<std::size_t>(g.n()), 0));
  const auto o = robust::guarded_decode(pipeline(PipelineId::kOrientation), g, zeros, {});
  EXPECT_EQ(o.report.detected_violations, 1);
  EXPECT_EQ(o.report.rounds, g.n());  // the fallback is charged the whole trail
  EXPECT_EQ(static_cast<int>(o.report.repaired_nodes.size()), g.n());
  EXPECT_TRUE(o.report.output_valid);
  EXPECT_FALSE(o.report.silent_corruption);

  const auto trails = euler_partition(g);
  ASSERT_EQ(trails.size(), 1u);
  Orientation want(static_cast<std::size_t>(g.m()), EdgeDir::kUnset);
  orient_trail(g, trails[0], canonical_trail_direction(g, trails[0]) ? +1 : -1, want);
  EXPECT_EQ(std::count(o.output.orientation.begin(), o.output.orientation.end(), EdgeDir::kUnset),
            0);
  EXPECT_EQ(o.output.orientation, want);
}

}  // namespace
}  // namespace lad::faults
