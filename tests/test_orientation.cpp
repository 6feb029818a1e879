#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "advice/advice.hpp"
#include "core/orientation.hpp"
#include "graph/generators.hpp"

namespace lad {
namespace {

void round_trip(const Graph& g, const OrientationParams& params = {}) {
  const auto enc = encode_orientation_advice(g, params);
  ASSERT_EQ(static_cast<int>(enc.bits.size()), g.n());
  const auto dec = decode_orientation(g, enc.bits, params);
  EXPECT_TRUE(is_balanced_orientation(g, dec.orientation, 1));
  for (int v = 0; v < g.n(); ++v) {
    if (g.degree(v) % 2 == 0) {
      EXPECT_EQ(out_degree(g, dec.orientation, v), in_degree(g, dec.orientation, v));
    }
  }
}

TEST(Orientation, LongCycle) { round_trip(make_cycle(500, IdMode::kRandomDense, 1)); }
TEST(Orientation, ShortCycle) { round_trip(make_cycle(12)); }
TEST(Orientation, Path) { round_trip(make_path(300, IdMode::kRandomDense, 2)); }
TEST(Orientation, Grid) { round_trip(make_grid(20, 20, IdMode::kRandomDense, 3)); }
TEST(Orientation, Torus) { round_trip(make_torus(12, 12, IdMode::kRandomDense, 4)); }
TEST(Orientation, Tree) { round_trip(make_bounded_degree_tree(400, 4, 5)); }
TEST(Orientation, EvenDegree) { round_trip(make_even_degree_graph(300, 4, 6)); }
TEST(Orientation, RandomRegular4) { round_trip(make_random_regular(300, 4, 7)); }
TEST(Orientation, RandomRegular5) { round_trip(make_random_regular(200, 5, 8)); }
TEST(Orientation, SparseIds) { round_trip(make_cycle(400, IdMode::kRandomSparse, 9)); }

TEST(Orientation, BandedRandom) { round_trip(make_banded_random(1500, 6, 3.0, 6, 15)); }
TEST(Orientation, CircularLadder) { round_trip(make_circular_ladder(300, IdMode::kRandomDense, 16)); }
TEST(Orientation, Caterpillar) { round_trip(make_planted_caterpillar(400, 17).graph); }
TEST(Orientation, CompleteBipartiteEven) { round_trip(make_complete_bipartite(6, 8, IdMode::kRandomDense, 18)); }
TEST(Orientation, Hypercube) { round_trip(make_hypercube(7, IdMode::kRandomDense, 19)); }

TEST(Orientation, DisjointMix) {
  round_trip(disjoint_union({make_cycle(200), make_cycle(7), make_path(90)},
                            IdMode::kRandomDense, 10));
}

TEST(Orientation, AdviceIsOneBitUniform) {
  const Graph g = make_cycle(300, IdMode::kRandomDense, 11);
  const auto enc = encode_orientation_advice(g);
  const auto stats = advice_stats(advice_from_bits(enc.bits));
  EXPECT_TRUE(stats.uniform_one_bit);
  EXPECT_GT(stats.ones, 0);
  EXPECT_LT(stats.ones_ratio, 0.5);
}

TEST(Orientation, RoundsIndependentOfN) {
  OrientationParams params;
  int rounds_small = 0, rounds_large = 0;
  {
    const Graph g = make_cycle(400, IdMode::kRandomDense, 12);
    const auto enc = encode_orientation_advice(g, params);
    rounds_small = decode_orientation(g, enc.bits, params).rounds;
  }
  {
    const Graph g = make_cycle(4000, IdMode::kRandomDense, 13);
    const auto enc = encode_orientation_advice(g, params);
    rounds_large = decode_orientation(g, enc.bits, params).rounds;
  }
  EXPECT_EQ(rounds_small, rounds_large);
}

TEST(Orientation, SparsityKnob) {
  const Graph g = make_cycle(4000, IdMode::kRandomDense, 14);
  OrientationParams dense_params;
  dense_params.marker_spacing = 40;
  OrientationParams sparse_params;
  sparse_params.marker_spacing = 400;
  const auto d = encode_orientation_advice(g, dense_params);
  const auto s = encode_orientation_advice(g, sparse_params);
  const auto ds = advice_stats(advice_from_bits(d.bits));
  const auto ss = advice_stats(advice_from_bits(s.bits));
  EXPECT_LT(ss.ones_ratio, ds.ones_ratio);
  // Both decode correctly.
  EXPECT_TRUE(is_balanced_orientation(g, decode_orientation(g, d.bits, dense_params).orientation, 1));
  EXPECT_TRUE(
      is_balanced_orientation(g, decode_orientation(g, s.bits, sparse_params).orientation, 1));
}

class OrientationSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OrientationSweep, RandomRegularFamilies) {
  const auto [n, d] = GetParam();
  round_trip(make_random_regular(n, d, static_cast<std::uint64_t>(n * 31 + d)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, OrientationSweep,
                         ::testing::Combine(::testing::Values(120, 260),
                                            ::testing::Values(2, 3, 4, 6)));

TEST(Orientation, ThresholdTooSmallRejected) {
  OrientationParams params;
  params.short_trail_threshold = 5;
  const Graph g = make_cycle(100);
  EXPECT_THROW(encode_orientation_advice(g, params), ContractViolation);
}

TEST(Orientation, EncodeAndDecodeAreDeterministic) {
  const Graph g = make_cycle(600, IdMode::kRandomDense, 21);
  const auto a = encode_orientation_advice(g);
  const auto b = encode_orientation_advice(g);
  EXPECT_EQ(a.bits, b.bits);
  const auto da = decode_orientation(g, a.bits);
  const auto db = decode_orientation(g, a.bits);
  EXPECT_EQ(da.orientation, db.orientation);
}

// The §1.5 compressor writes memberships under the encoder's planted
// orientation without decoding it, which is sound only if the decoder
// recovers exactly that orientation. Re-sampling guarantees it: every
// marker that parses on a marked trail is a planted forward one. Checked
// on the E2 families, Δ = 3..6, the E8 spacing sweep and A1's mixed union.
TEST(Orientation, DecoderRecoversThePlantedOrientation) {
  struct Instance {
    std::string name;
    Graph g;
    OrientationParams params;
  };
  std::vector<Instance> instances = {
      {"cycle", make_cycle(2000, IdMode::kRandomDense, 7), {}},
      {"torus", make_torus(40, 50, IdMode::kRandomDense, 7), {}},
      {"grid", make_grid(40, 50, IdMode::kRandomDense, 7), {}},
  };
  for (const int d : {3, 4, 5, 6}) {
    instances.push_back({"regular-" + std::to_string(d), make_random_regular(2400, d, 7), {}});
  }
  const Graph long_cycle = make_cycle(40000, IdMode::kRandomDense, 11);
  for (const int spacing : {40, 120, 360, 1080, 3240}) {
    OrientationParams params;
    params.marker_spacing = spacing;
    instances.push_back({"spacing=" + std::to_string(spacing), long_cycle, params});
  }
  const Graph mixed = disjoint_union({make_cycle(2000), make_cycle(60), make_cycle(90),
                                      make_cycle(120), make_grid(30, 30)},
                                     IdMode::kRandomDense, 8);
  for (const int threshold : {40, 100, 400}) {
    OrientationParams params;
    params.short_trail_threshold = threshold;
    instances.push_back({"mixed/threshold=" + std::to_string(threshold), mixed, params});
  }
  for (const auto& [name, g, params] : instances) {
    SCOPED_TRACE(name);
    const auto enc = encode_orientation_advice(g, params);
    EXPECT_EQ(decode_orientation(g, enc.bits, params).orientation, enc.orientation);
    EXPECT_TRUE(is_balanced_orientation(g, enc.orientation, 1));
  }
}

TEST(Orientation, SingleNodeAndEmpty) {
  const Graph one = make_path(1);
  const auto enc = encode_orientation_advice(one);
  const auto dec = decode_orientation(one, enc.bits);
  EXPECT_TRUE(is_balanced_orientation(one, dec.orientation, 1));
}

}  // namespace
}  // namespace lad
