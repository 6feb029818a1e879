// The per-round instruments behind the observed run's record (DESIGN.md
// §13.3–13.5), the pooled cases driven through faults::observe_run:
//
//   1. Wait accounting is zero by construction on the serial inline path
//      (threads = 1 never opens a dispatch window), while a pooled run
//      records dispatch windows, per-worker chunk rows and imbalance.
//   2. An empty round — zero messages, zero workers — produces finite,
//      neutral statistics (imbalance 1.0, no division by zero).
//   3. The flight-recorder ring is bounded: overflow counts dropped rounds
//      instead of growing or failing, and the post-mortem dump renders.
//   4. Amdahl's law arithmetic is exact, clamped at both ends (s in [0,1],
//      T >= 1), and the record predicts and measures speedup per row.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "faults/campaign.hpp"
#include "graph/generators.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"

namespace lad {
namespace {

// One observed orientation run on a 512-cycle, one rep per count.
obs::RunReport observe_orientation(const std::vector<int>& threads) {
  const Pipeline* p = find_pipeline("orientation");
  EXPECT_NE(p, nullptr);
  PipelineConfig cfg;
  cfg.seed = 7;
  const Graph g = make_cycle(512, IdMode::kSequential, 7);
  auto report = faults::observe_run(*p, g, "cycle:512@7", cfg, threads, /*reps=*/1);
  obs::reset_instruments();
  return report;
}

// --- Wait accounting -------------------------------------------------------

TEST(Timeline, SerialPathReportsZeroWaits) {
  // A drained window with no dispatches is all zeros.
  obs::WaitAccounting::instance().reset();
  const auto empty = obs::WaitAccounting::instance().drain_window();
  EXPECT_EQ(empty.dispatches, 0);
  EXPECT_EQ(empty.wait_us, 0);
  EXPECT_EQ(empty.workers, 0);

  // A full single-threaded run never opens a dispatch window, so every
  // recorded round reports zero dispatch/queue/wait time and no workers.
  const auto report = observe_orientation({1});
  ASSERT_EQ(report.runs.size(), 1u);
  ASSERT_FALSE(report.runs[0].rounds.empty());
  for (const auto& r : report.runs[0].rounds) {
    EXPECT_EQ(r.workers, 0) << "round " << r.round;
    EXPECT_DOUBLE_EQ(r.dispatch_us, 0.0) << "round " << r.round;
    EXPECT_DOUBLE_EQ(r.queue_us, 0.0) << "round " << r.round;
    EXPECT_DOUBLE_EQ(r.wait_us, 0.0) << "round " << r.round;
    EXPECT_DOUBLE_EQ(r.imbalance, 1.0) << "round " << r.round;
    EXPECT_EQ(r.critical_tid, -1) << "round " << r.round;
  }
}

TEST(Timeline, PooledRunRecordsDispatchWindowsAndPoolRows) {
  const auto report = observe_orientation({4});
  ASSERT_EQ(report.runs.size(), 1u);
  const auto& run = report.runs[0];
  long long workers = 0;
  for (const auto& r : run.rounds) {
    workers += r.workers;
    EXPECT_GE(r.imbalance, 1.0) << "round " << r.round;
  }
  EXPECT_GT(workers, 0) << "pooled echo rounds recorded no dispatch workers";
  EXPECT_GE(run.imbalance, 1.0);
  long long chunks = 0;
  for (const auto& row : run.thread_rows) chunks += row.chunks;
  EXPECT_GT(chunks, 0) << "pooled echo recorded no chunks";
  EXPECT_GT(run.trace_events, 0);
  // The markdown report names its top time sinks.
  EXPECT_NE(report.to_markdown().find("### Top time sinks"), std::string::npos);
}

TEST(Timeline, EmptyRoundIsFiniteAndNeutral) {
  auto& fr = obs::FlightRecorder::instance();
  obs::WaitAccounting::instance().reset();
  fr.clear();
  fr.begin_run();
  fr.begin_round();
  // A round that moved nothing: zero message/fault deltas, no dispatches.
  fr.end_round(1, /*cum_messages=*/0, /*cum_bytes=*/0, /*cum_faults=*/0, /*cum_repairs=*/0);
  const auto samples = fr.samples();
  ASSERT_EQ(samples.size(), 1u);
  const auto& s = samples.front();
  EXPECT_EQ(s.round, 1);
  EXPECT_EQ(s.messages, 0);
  EXPECT_EQ(s.bytes, 0);
  EXPECT_EQ(s.workers, 0);
  EXPECT_DOUBLE_EQ(s.imbalance, 1.0);  // no division by zero busy time
  EXPECT_GE(s.wall_ms, 0.0);
  fr.clear();
}

// --- Flight-recorder ring --------------------------------------------------

TEST(Timeline, RingOverflowCountsDroppedRounds) {
  auto& fr = obs::FlightRecorder::instance();
  fr.clear();
  fr.begin_run();
  const long long extra = 50;
  const long long total = static_cast<long long>(obs::FlightRecorder::kRingCapacity) + extra;
  for (long long r = 1; r <= total; ++r) {
    fr.begin_round();
    fr.end_round(r, /*cum_messages=*/r, /*cum_bytes=*/2 * r, /*cum_faults=*/0,
                 /*cum_repairs=*/0);
  }
  EXPECT_EQ(fr.samples().size(), obs::FlightRecorder::kRingCapacity);
  EXPECT_EQ(fr.dropped(), extra);
  // Oldest-first order: the ring must start right after the dropped prefix,
  // with unit message deltas (cumulative counts increase by one per round).
  const auto samples = fr.samples();
  EXPECT_EQ(samples.front().round, extra + 1);
  EXPECT_EQ(samples.back().round, total);
  EXPECT_EQ(samples.back().messages, 1);

  std::ostringstream os;
  fr.dump(os, "test reason", /*max_rounds=*/4);
  EXPECT_NE(os.str().find("[flight-recorder]"), std::string::npos);
  EXPECT_NE(os.str().find("test reason"), std::string::npos);
  fr.clear();
}

// --- Amdahl ----------------------------------------------------------------

TEST(Timeline, AmdahlMathAndClamps) {
  // s = 0: perfectly parallel, speedup = T.
  EXPECT_DOUBLE_EQ(obs::amdahl_speedup(0.0, 4), 4.0);
  // s = 1: fully serial, no speedup at any T.
  EXPECT_DOUBLE_EQ(obs::amdahl_speedup(1.0, 8), 1.0);
  // s = 0.5, T = 4: 1 / (0.5 + 0.125) = 1.6.
  EXPECT_DOUBLE_EQ(obs::amdahl_speedup(0.5, 4), 1.6);
  // T = 1 collapses to 1 regardless of s.
  EXPECT_DOUBLE_EQ(obs::amdahl_speedup(0.5, 1), 1.0);
  // Clamping: s outside [0, 1] and T < 1 are normalized, not propagated.
  EXPECT_DOUBLE_EQ(obs::amdahl_speedup(-0.5, 4), 4.0);
  EXPECT_DOUBLE_EQ(obs::amdahl_speedup(2.0, 4), 1.0);
  EXPECT_DOUBLE_EQ(obs::amdahl_speedup(0.5, 0), 1.0);

  // The record predicts every row from the 1-thread serial fraction and
  // measures speedup against the 1-thread total, whatever the add order.
  obs::RunReport report;
  obs::RunMeasured two;
  two.threads = 2;
  two.total_ms = 5.0;
  obs::RunMeasured one;
  one.threads = 1;
  one.total_ms = 10.0;
  one.serial_fraction = 0.5;
  report.add_run({}, two);
  report.add_run({}, one);
  ASSERT_EQ(report.runs.size(), 2u);
  EXPECT_EQ(report.runs[0].threads, 1);
  EXPECT_DOUBLE_EQ(report.runs[1].measured_speedup, 2.0);
  EXPECT_DOUBLE_EQ(report.runs[1].predicted_max_speedup, obs::amdahl_speedup(0.5, 2));
  EXPECT_NE(report.to_markdown().find("serial_fraction"), std::string::npos);
}

}  // namespace
}  // namespace lad
