// The determinism contract of the parallel execution layer (DESIGN.md §8):
// running the engine, the ball gather, or a fault campaign on a thread pool
// of ANY size produces byte-identical results to the serial path. These
// tests pin that down by direct comparison at 1, 2, and 8 threads.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "faults/campaign.hpp"
#include "faults/fault_plan.hpp"
#include "graph/generators.hpp"
#include "local/engine.hpp"
#include "local/gather.hpp"
#include "util/thread_pool.hpp"

namespace lad {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

std::vector<Graph> engine_families() {
  std::vector<Graph> gs;
  gs.push_back(make_cycle(200, IdMode::kRandomDense, 11));
  gs.push_back(make_grid(12, 12, IdMode::kRandomDense, 12));
  gs.push_back(make_bounded_degree_tree(150, 4, 13));
  return gs;
}

// Flooding with halting: accumulates every received payload, so any
// scheduling-order effect on outboxes or delivery would corrupt outputs.
class Flood final : public SyncAlgorithm {
 public:
  explicit Flood(int rounds) : rounds_(rounds) {}

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
    if (ctx.round_number() > rounds_) {
      ctx.halt(k);
      return;
    }
    ctx.broadcast(k);
  }

 private:
  int rounds_;
  std::vector<std::string> known_;
};

std::string run_signature(const RunResult& r) {
  std::ostringstream os;
  os << r.rounds << '/' << r.all_halted << '/' << r.messages << '/' << r.bytes << '\n';
  for (const auto& o : r.outputs) os << o << '\n';
  for (const int h : r.halt_round) os << h << ',';
  os << '\n';
  for (const char c : r.crashed) os << int(c);
  return os.str();
}

TEST(ParallelEngine, ByteIdenticalToSerialAcrossThreadCounts) {
  for (const auto& g : engine_families()) {
    Flood serial_alg(3);
    Engine serial(g);
    const auto want = run_signature(serial.run(serial_alg, 8));
    for (const int t : kThreadCounts) {
      Flood alg(3);
      ThreadPool pool(t);
      Engine eng(g);
      eng.set_thread_pool(&pool);
      const auto got = run_signature(eng.run(alg, 8));
      EXPECT_EQ(got, want) << "n=" << g.n() << " threads=" << t;
    }
  }
}

std::string stats_signature(const EngineFaultStats& f) {
  std::ostringstream os;
  os << f.dropped << '/' << f.corrupted << '/' << f.duplicated << '/' << f.delayed << '/'
     << f.stale_discarded << '/' << f.crashed_nodes << '/' << f.recovered_nodes;
  return os.str();
}

TEST(ParallelEngine, FaultModelParityAcrossThreadCounts) {
  // Every engine fault kind at once, crash-recovery included, so delayed
  // and duplicated copies replay from the per-chunk pending lists.
  faults::EngineFaultSpec spec;
  spec.message_drop_prob = 0.05;
  spec.message_corrupt_prob = 0.05;
  spec.message_delay_prob = 0.1;
  spec.message_duplicate_prob = 0.1;
  spec.crash_fraction = 0.03;
  spec.crash_recovery_rounds = 2;
  const faults::HashedEngineFaults model(99, spec);

  for (const auto& g : engine_families()) {
    Flood serial_alg(3);
    Engine serial(g);
    serial.set_fault_model(&model);
    const auto want = run_signature(serial.run(serial_alg, 8));
    const auto want_stats = stats_signature(serial.fault_stats());
    EXPECT_GT(serial.fault_stats().delayed, 0);
    EXPECT_GT(serial.fault_stats().duplicated, 0);
    for (const int t : kThreadCounts) {
      Flood alg(3);
      ThreadPool pool(t);
      Engine eng(g);
      eng.set_thread_pool(&pool);
      eng.set_fault_model(&model);
      const auto got = run_signature(eng.run(alg, 8));
      EXPECT_EQ(got, want) << "n=" << g.n() << " threads=" << t;
      EXPECT_EQ(stats_signature(eng.fault_stats()), want_stats)
          << "n=" << g.n() << " threads=" << t;
    }
  }
}

TEST(ParallelEngine, AuditLogParityAcrossThreadCounts) {
  const Graph g = make_grid(10, 10, IdMode::kRandomDense, 21);
  Flood serial_alg(3);
  Engine serial(g);
  serial.enable_audit(/*fail_fast=*/false);
  serial.run(serial_alg, 8);
  const auto& want = serial.audit_log();
  ASSERT_TRUE(want.clean());

  for (const int t : kThreadCounts) {
    Flood alg(3);
    ThreadPool pool(t);
    Engine eng(g);
    eng.set_thread_pool(&pool);
    eng.enable_audit(/*fail_fast=*/false);
    eng.run(alg, 8);
    const auto& got = eng.audit_log();
    EXPECT_TRUE(got.clean());
    ASSERT_EQ(got.per_round.size(), want.per_round.size());
    for (std::size_t i = 0; i < want.per_round.size(); ++i) {
      EXPECT_EQ(got.per_round[i].active_nodes, want.per_round[i].active_nodes);
      EXPECT_EQ(got.per_round[i].max_set_size, want.per_round[i].max_set_size);
      EXPECT_EQ(got.per_round[i].max_radius, want.per_round[i].max_radius);
    }
  }
}

std::string ball_signature(const Ball& b) {
  std::ostringstream os;
  os << b.center << '/' << b.radius << '/' << b.graph.n() << '/' << b.graph.m() << ':';
  for (int v = 0; v < b.graph.n(); ++v) os << b.graph.id(v) << ',';
  os << ':';
  for (const int p : b.to_parent) os << p << ',';
  os << ':';
  for (const int d : b.dist) os << d << ',';
  return os.str();
}

TEST(ParallelGather, BallsByteIdenticalAcrossThreadCounts) {
  for (const auto& g : engine_families()) {
    const auto want = gather_balls_by_messages(g, 3);
    for (const int t : kThreadCounts) {
      ThreadPool pool(t);
      const auto got = gather_balls_by_messages(g, 3, &pool);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t v = 0; v < want.size(); ++v) {
        EXPECT_EQ(ball_signature(got[v]), ball_signature(want[v])) << "threads=" << t;
      }
    }
  }
}

TEST(ParallelGather, CanonicalViewsDeterministicAndMemoized) {
  for (const auto& g : engine_families()) {
    const auto want = gather_canonical_views(g, 2);
    for (const int t : kThreadCounts) {
      ThreadPool pool(t);
      const auto got = gather_canonical_views(g, 2, {}, &pool);
      EXPECT_EQ(got.view_class, want.view_class) << "threads=" << t;
      EXPECT_EQ(got.key, want.key);
      EXPECT_EQ(got.representative, want.representative);
      EXPECT_EQ(got.memo_hits, want.memo_hits);
    }
  }
  // The memo is the point: structured families have O(1) distinct views.
  const Graph cyc = make_cycle(300, IdMode::kSequential, 1);
  const auto views = gather_canonical_views(cyc, 2);
  EXPECT_LT(views.distinct(), 10);
  EXPECT_EQ(views.memo_hits, cyc.n() - views.distinct());
}

std::string campaign_signature(const faults::CampaignSummary& s) {
  std::string sig = s.to_string();
  for (const auto& rep : s.reports) {
    sig += '\n';
    sig += rep.to_string();
  }
  return sig;
}

TEST(ParallelCampaign, ReportsByteIdenticalAcrossThreadCounts) {
  struct Setup {
    PipelineId decoder;
    faults::GraphFamily family;
  };
  const Setup setups[] = {
      {PipelineId::kOrientation, faults::GraphFamily::kCycle},
      {PipelineId::kThreeColoring, faults::GraphFamily::kGrid},
      {PipelineId::kSplitting, faults::GraphFamily::kTorus},
  };
  for (const auto& setup : setups) {
    faults::CampaignConfig cfg;
    cfg.decoder = setup.decoder;
    cfg.family = setup.family;
    cfg.n = 64;
    cfg.trials = 4;
    cfg.seed = 5;
    cfg.threads = 1;
    const auto want = campaign_signature(faults::run_fault_campaign(cfg));
    for (const int t : kThreadCounts) {
      cfg.threads = t;
      EXPECT_EQ(campaign_signature(faults::run_fault_campaign(cfg)), want)
          << pipeline(setup.decoder).name() << " threads=" << t;
    }
  }
}

}  // namespace
}  // namespace lad
