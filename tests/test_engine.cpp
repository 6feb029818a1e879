#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "graph/generators.hpp"
#include "local/ball.hpp"
#include "local/engine.hpp"

namespace lad {
namespace {

// Every node halts immediately with its own ID.
class IdEcho : public SyncAlgorithm {
 public:
  void round(NodeCtx& ctx) override { ctx.halt(std::to_string(ctx.id())); }
};

TEST(Engine, HaltWithOutput) {
  const Graph g = make_cycle(5);
  IdEcho alg;
  Engine eng(g);
  const auto res = eng.run(alg, 10);
  EXPECT_TRUE(res.all_halted);
  EXPECT_EQ(res.rounds, 1);
  for (int v = 0; v < g.n(); ++v) EXPECT_EQ(res.outputs[v], std::to_string(g.id(v)));
}

// Round 1: broadcast own ID. Round 2: halt with the sum of received IDs.
class NeighborSum : public SyncAlgorithm {
 public:
  void round(NodeCtx& ctx) override {
    if (ctx.round_number() == 1) {
      ctx.broadcast(std::to_string(ctx.id()));
      return;
    }
    long long sum = 0;
    for (int p = 0; p < ctx.degree(); ++p) {
      EXPECT_TRUE(ctx.has_message(p));
      sum += std::stoll(std::string(ctx.received(p)));
    }
    ctx.halt(std::to_string(sum));
  }
};

TEST(Engine, MessageDelivery) {
  const Graph g = make_cycle(6, IdMode::kRandomDense, 4);
  NeighborSum alg;
  Engine eng(g);
  const auto res = eng.run(alg, 10);
  EXPECT_TRUE(res.all_halted);
  EXPECT_EQ(res.rounds, 2);
  for (int v = 0; v < g.n(); ++v) {
    long long expect = 0;
    for (const int u : g.neighbors(v)) expect += g.id(u);
    EXPECT_EQ(res.outputs[v], std::to_string(expect));
  }
}

TEST(Engine, MessageComplexityCounters) {
  const Graph g = make_cycle(6);
  NeighborSum alg;
  Engine eng(g);
  const auto res = eng.run(alg, 10);
  // Round 1: every node broadcasts on both ports = 2m messages total.
  EXPECT_EQ(res.messages, 2LL * g.m());
  EXPECT_GT(res.bytes, 0);
}

TEST(Engine, NeighborIdsMatchPorts) {
  const Graph g = make_grid(3, 3, IdMode::kRandomDense, 8);
  class PortCheck : public SyncAlgorithm {
   public:
    explicit PortCheck(const Graph& g) : g_(g) {}
    void round(NodeCtx& ctx) override {
      for (int p = 0; p < ctx.degree(); ++p) {
        EXPECT_EQ(ctx.neighbor_id(p), g_.id(g_.neighbors(ctx.node())[p]));
      }
      ctx.halt("");
    }
    const Graph& g_;
  };
  PortCheck alg(g);
  Engine eng(g);
  EXPECT_TRUE(eng.run(alg, 2).all_halted);
}

TEST(Engine, MaxRoundsStopsNonTerminating) {
  class Forever : public SyncAlgorithm {
   public:
    void round(NodeCtx& ctx) override { ctx.broadcast("x"); }
  };
  const Graph g = make_cycle(4);
  Forever alg;
  Engine eng(g);
  const auto res = eng.run(alg, 7);
  EXPECT_FALSE(res.all_halted);
  EXPECT_EQ(res.rounds, 7);
}

// Flood the ball: after t rounds, a gather-by-messages algorithm knows
// exactly the radius-t ball that extract_ball reports — the semantic
// equivalence the view API relies on.
class GatherIds : public SyncAlgorithm {
 public:
  explicit GatherIds(int t) : t_(t) {}

  void init(const Graph& g) override { known_.assign(static_cast<std::size_t>(g.n()), {}); }

  void round(NodeCtx& ctx) override {
    auto& mine = known_[static_cast<std::size_t>(ctx.node())];
    if (ctx.round_number() == 1) mine.insert(ctx.id());
    for (int p = 0; p < ctx.degree(); ++p) {
      if (!ctx.has_message(p)) continue;
      std::istringstream is{std::string(ctx.received(p))};
      long long id = 0;
      while (is >> id) mine.insert(id);
    }
    if (ctx.round_number() > t_) {
      std::ostringstream os;
      for (const auto id : mine) os << id << ' ';
      ctx.halt(os.str());
      return;
    }
    std::ostringstream os;
    for (const auto id : mine) os << id << ' ';
    ctx.broadcast(os.str());
  }

 private:
  int t_;
  std::vector<std::set<long long>> known_;
};

TEST(Engine, FloodingMatchesBallExtraction) {
  const Graph g = make_grid(5, 5, IdMode::kRandomDense, 31);
  const int t = 2;
  GatherIds alg(t);
  Engine eng(g);
  const auto res = eng.run(alg, t + 2);
  ASSERT_TRUE(res.all_halted);
  for (int v = 0; v < g.n(); ++v) {
    const Ball ball = extract_ball(g, v, t);
    std::set<long long> expect;
    for (int i = 0; i < ball.graph.n(); ++i) expect.insert(ball.graph.id(i));
    std::set<long long> got;
    std::istringstream is(res.outputs[v]);
    long long id = 0;
    while (is >> id) got.insert(id);
    EXPECT_EQ(got, expect) << "node " << g.id(v);
  }
}

TEST(Ball, StructureAndDistances) {
  const Graph g = make_grid(5, 5);
  const Ball b = extract_ball(g, g.find_index(13).value(), 2);
  EXPECT_EQ(b.graph.id(b.center), 13);
  for (int i = 0; i < b.graph.n(); ++i) {
    EXPECT_LE(b.dist[static_cast<std::size_t>(i)], 2);
    EXPECT_EQ(g.id(b.to_parent[static_cast<std::size_t>(i)]), b.graph.id(i));
  }
  EXPECT_EQ(b.from_parent(g.find_index(13).value()), b.center);
}

TEST(Ball, MaskRespected) {
  const Graph g = make_cycle(10);
  NodeMask mask(10, 1);
  mask[1] = 0;
  const Ball b = extract_ball(g, 0, 3, mask);
  for (int i = 0; i < b.graph.n(); ++i) EXPECT_NE(b.to_parent[static_cast<std::size_t>(i)], 1);
}

}  // namespace
}  // namespace lad
