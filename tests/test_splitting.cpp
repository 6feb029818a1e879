#include <gtest/gtest.h>

#include "advice/advice.hpp"
#include "core/splitting.hpp"
#include "graph/generators.hpp"

namespace lad {
namespace {

void round_trip(const Graph& g) {
  const auto enc = encode_splitting_advice(g);
  const auto dec = decode_splitting(g, enc.bits);
  EXPECT_TRUE(is_splitting(g, dec.edge_color));
  EXPECT_TRUE(is_proper_coloring(g, dec.node_color, 2));
}

TEST(Splitting, EvenCycle) { round_trip(make_cycle(400, IdMode::kRandomDense, 1)); }
TEST(Splitting, ShortEvenCycle) { round_trip(make_cycle(16)); }
TEST(Splitting, Torus) { round_trip(make_torus(12, 14, IdMode::kRandomDense, 2)); }
TEST(Splitting, BipartiteRegular4) { round_trip(make_bipartite_regular(120, 4, 3)); }
TEST(Splitting, Hypercube) { round_trip(make_hypercube(6, IdMode::kRandomDense, 4)); }

TEST(Splitting, OddCycleRejected) {
  EXPECT_THROW(encode_splitting_advice(make_cycle(401)), ContractViolation);
}

TEST(Splitting, OddDegreeRejected) {
  EXPECT_THROW(encode_splitting_advice(make_path(10)), ContractViolation);
}

TEST(Splitting, AdviceIsOneBit) {
  const Graph g = make_torus(10, 12, IdMode::kRandomDense, 5);
  const auto enc = encode_splitting_advice(g);
  const auto stats = advice_stats(advice_from_bits(enc.bits));
  EXPECT_TRUE(stats.uniform_one_bit);
}

TEST(EdgeColoring, BipartiteRegularPowersOfTwo) {
  for (const int d : {2, 4, 8}) {
    const Graph g = make_bipartite_regular(80 * d, d, 10 + d);
    const auto res = edge_color_bipartite_regular(g);
    EXPECT_TRUE(is_proper_edge_coloring(g, res.edge_color, d)) << "d=" << d;
    EXPECT_EQ(res.levels, d == 2 ? 1 : (d == 4 ? 2 : 3));
    for (int v = 0; v < g.n(); ++v) {
      EXPECT_LE(res.bits_per_node[static_cast<std::size_t>(v)], d - 1);
    }
  }
}

TEST(EdgeColoring, TorusIsFourEdgeColorable) {
  const Graph g = make_torus(8, 12, IdMode::kRandomDense, 6);
  const auto res = edge_color_bipartite_regular(g);
  EXPECT_TRUE(is_proper_edge_coloring(g, res.edge_color, 4));
}

TEST(EdgeColoring, NonPowerOfTwoRejected) {
  const Graph g = make_bipartite_regular(30, 3, 7);
  EXPECT_THROW(edge_color_bipartite_regular(g), ContractViolation);
}

TEST(EdgeColoring, NonRegularRejected) {
  const Graph g = make_path(10);
  EXPECT_THROW(edge_color_bipartite_regular(g), ContractViolation);
}

TEST(Splitting, CompleteBipartiteEvenDegrees) {
  // K_{8,8}: 8-regular bipartite, tiny diameter — all trails short, the
  // canonical channel handles everything.
  round_trip(make_complete_bipartite(8, 8, IdMode::kRandomDense, 8));
}

TEST(Splitting, DecodeIsDeterministic) {
  const Graph g = make_torus(10, 12, IdMode::kRandomDense, 9);
  const auto enc = encode_splitting_advice(g);
  const auto a = decode_splitting(g, enc.bits);
  const auto b = decode_splitting(g, enc.bits);
  EXPECT_EQ(a.edge_color, b.edge_color);
  EXPECT_EQ(a.node_color, b.node_color);
}

class SplittingSweep : public ::testing::TestWithParam<int> {};

TEST_P(SplittingSweep, EvenCyclesOfManySizes) {
  round_trip(make_cycle(GetParam(), IdMode::kRandomDense, 100 + GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SplittingSweep, ::testing::Values(12, 50, 128, 250, 600));

}  // namespace
}  // namespace lad
