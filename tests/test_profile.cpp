// The observed-run contract (DESIGN.md §13), pinned through the one driver
// `lad profile` uses (faults::observe_run):
//
//   1. The phase taxonomy is total over the span-name catalog, the explicit
//      mappings land where the taxonomy says, and self-time stack replay is
//      exact arithmetic on a hand-built event stream.
//   2. The record's "deterministic" slice is byte-identical across thread
//      counts (1, 2, 8) for real pipeline workloads — the slice `lad diff`
//      and the CI profile-smoke job gate exactly — and a cross-thread-count
//      divergence throws instead of averaging.
//   3. The record round-trips through the one run-document parser, and the
//      one differ maps drift to the shared exit-code convention: 0 clean, 3
//      timing regression (tolerance-gated), 4 structural mismatch.
//
// The per-round instruments the record is built from (wait accounting,
// flight recorder, Amdahl) are pinned in tests/test_timeline.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "faults/campaign.hpp"
#include "graph/generators.hpp"
#include "obs/diff.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"

namespace lad {
namespace {

// One observed run of `pipeline_name` on a 512-cycle, one rep per count.
obs::RunReport observe(const std::string& pipeline_name, const std::vector<int>& threads) {
  const Pipeline* p = find_pipeline(pipeline_name);
  EXPECT_NE(p, nullptr) << pipeline_name;
  PipelineConfig cfg;
  cfg.seed = 7;
  const Graph g = make_cycle(512, IdMode::kSequential, 7);
  auto report = faults::observe_run(*p, g, "cycle:512@7", cfg, threads, /*reps=*/1);
  obs::reset_instruments();
  return report;
}

// --- Phase taxonomy and self-time ------------------------------------------

TEST(Profile, TaxonomyIsTotalOverSpanCatalog) {
  const auto& phases = obs::phase_taxonomy();
  ASSERT_EQ(phases.size(), 6u);
  EXPECT_EQ(phases.front(), "gather");
  EXPECT_EQ(phases.back(), "other");
  // Every catalog entry (prefixes composed with a pipeline name, as the
  // instrumentation sites do) maps to a phase of the taxonomy.
  for (const auto& entry : obs::span_name_catalog()) {
    const std::string name = entry.back() == '/' ? entry + "orientation" : entry;
    const std::string phase = obs::phase_of_span(name);
    EXPECT_NE(std::find(phases.begin(), phases.end(), phase), phases.end())
        << name << " -> " << phase;
  }
}

TEST(Profile, ExplicitSpanMappings) {
  EXPECT_EQ(obs::phase_of_span("gather.balls"), "gather");
  EXPECT_EQ(obs::phase_of_span("gather.views"), "gather");
  EXPECT_EQ(obs::phase_of_span("engine.compute"), "compute");
  EXPECT_EQ(obs::phase_of_span("pool.chunk"), "compute");
  EXPECT_EQ(obs::phase_of_span("pipeline.encode/orientation"), "compute");
  EXPECT_EQ(obs::phase_of_span("pipeline.decode/decompress"), "compute");
  EXPECT_EQ(obs::phase_of_span("engine.deliver"), "message-exchange");
  EXPECT_EQ(obs::phase_of_span("engine.faults"), "fault-transition");
  EXPECT_EQ(obs::phase_of_span("inject.graph"), "fault-transition");
  EXPECT_EQ(obs::phase_of_span("inject.advice"), "fault-transition");
  EXPECT_EQ(obs::phase_of_span("pipeline.verify/orientation"), "verify");
  EXPECT_EQ(obs::phase_of_span("guarded.decode/orientation"), "verify");
  EXPECT_EQ(obs::phase_of_span("campaign.checks"), "verify");
  EXPECT_EQ(obs::phase_of_span("engine.run"), "other");
  EXPECT_EQ(obs::phase_of_span("campaign.trial"), "other");
  EXPECT_EQ(obs::phase_of_span("no.such.span"), "other");
}

TEST(Profile, SelfTimeSubtractsDirectChildren) {
  std::vector<obs::TraceEvent> ev;
  const auto push = [&ev](const char* name, std::uint64_t ts, char ph) {
    obs::TraceEvent e;
    e.name = name;
    e.ts_us = ts;
    e.phase = ph;
    ev.push_back(e);
  };
  // engine.compute [0,100] containing engine.deliver [10,30] and
  // gather.balls [40,90]; self(compute) = 100 - 20 - 50 = 30.
  push("engine.compute", 0, 'B');
  push("engine.deliver", 10, 'B');
  push("engine.deliver", 30, 'E');
  push("gather.balls", 40, 'B');
  push("gather.balls", 90, 'E');
  push("engine.compute", 100, 'E');
  // An unbalanced leftover B must be ignored, not guessed at.
  push("engine.round", 120, 'B');

  const auto cells = obs::self_times_by_cell({{5, ev}});
  ASSERT_EQ(cells.size(), 3u);
  const auto compute = cells.at({"compute", 5});
  EXPECT_EQ(compute.self_us, 30);
  EXPECT_EQ(compute.spans, 1);
  const auto deliver = cells.at({"message-exchange", 5});
  EXPECT_EQ(deliver.self_us, 20);
  EXPECT_EQ(deliver.spans, 1);
  const auto gather = cells.at({"gather", 5});
  EXPECT_EQ(gather.self_us, 50);
  EXPECT_EQ(gather.spans, 1);
}

TEST(Profile, WarmupDiscipline) {
  // One discarded warmup run before the timed min-of-K loop when
  // --reps > 1, none for a single rep — the discipline `lad bench` uses.
  // Pinned so a refactor cannot silently time the cold first run.
  EXPECT_EQ(obs::profile_warmup_runs(1), 0);
  EXPECT_EQ(obs::profile_warmup_runs(2), 1);
  EXPECT_EQ(obs::profile_warmup_runs(3), 1);
  EXPECT_EQ(obs::profile_warmup_runs(100), 1);
  EXPECT_EQ(obs::profile_warmup_runs(0), 0);
}

TEST(Profile, FingerprintIsStableAndOrderSensitive) {
  const std::vector<std::string> parts = {"a", "b", "c"};
  const std::string h = obs::fingerprint_hex(parts);
  EXPECT_EQ(h.size(), 16u);
  EXPECT_EQ(h, obs::fingerprint_hex(parts));
  EXPECT_NE(h, obs::fingerprint_hex({"c", "b", "a"}));
  // Length folding: {"ab",""} and {"a","b"} must not collide by
  // concatenation.
  EXPECT_NE(obs::fingerprint_hex({"ab", ""}), obs::fingerprint_hex({"a", "b"}));
}

// --- Determinism across thread counts --------------------------------------

TEST(Profile, DeterministicSliceIsByteStableAcrossThreads) {
  for (const char* name : {"orientation", "decompress"}) {
    const auto base = observe(name, {1});
    EXPECT_TRUE(base.det.verify_ok) << name;
    EXPECT_FALSE(base.det.rounds.empty()) << name;
    for (const int threads : {2, 8}) {
      EXPECT_EQ(base.deterministic_json(), observe(name, {threads}).deterministic_json())
          << name << " deterministic slice drifted at " << threads << " threads";
    }
  }
}

TEST(Profile, AddRunThrowsOnSeriesDivergence) {
  auto report = observe("orientation", {1});
  auto perturbed = report.det;
  ASSERT_FALSE(perturbed.rounds.empty());
  perturbed.rounds.front().messages += 1;
  obs::RunMeasured row;
  row.threads = 2;
  EXPECT_THROW(report.add_run(perturbed, row), std::runtime_error);
  EXPECT_EQ(report.runs.size(), 1u);
}

// --- JSON round-trip and the differ ----------------------------------------

TEST(Profile, JsonRoundTripsThroughParser) {
  const auto report = observe("orientation", {1, 2});
  ASSERT_EQ(report.runs.size(), 2u);
  const std::string json = report.to_json();
  const auto doc = obs::parse_run_document(json);
  EXPECT_EQ(doc.to_json(), json);
  EXPECT_EQ(doc.meta.find("suite")->string, "profile");
  EXPECT_EQ(doc.meta.find("reps")->string, std::to_string(report.reps));
  ASSERT_EQ(doc.records.size(), 1u);
  const auto& rec = doc.records[0];
  EXPECT_EQ(rec.name, "orientation");
  // The deterministic slice reads back byte for byte.
  EXPECT_EQ(obs::jsonmini::render_json(rec.deterministic), report.deterministic_json());
  EXPECT_EQ(rec.deterministic.find("phases")->array.size(), obs::phase_taxonomy().size());
  ASSERT_EQ(rec.measured.size(), 2u);
  for (std::size_t i = 0; i < rec.measured.size(); ++i) {
    EXPECT_EQ(rec.measured[i].find("threads")->number, report.runs[i].threads);
    EXPECT_NEAR(rec.measured[i].find("wall_ms")->number, report.runs[i].total_ms, 5e-4);
  }

  EXPECT_THROW(obs::parse_run_document("{}"), std::runtime_error);
  EXPECT_THROW(obs::parse_run_document("not json"), std::runtime_error);
}

TEST(Profile, DiffFollowsExitCodeConvention) {
  using obs::jsonmini::JsonValue;
  auto base = obs::parse_run_document(observe("orientation", {1, 2}).to_json());
  auto& rec = base.records.at(0);
  *rec.measured.at(0).find("wall_ms") = obs::jsonmini::json_number("10.000");
  *rec.measured.at(1).find("wall_ms") = obs::jsonmini::json_number("5.000");
  const auto det = [](obs::RunDocument& doc) -> JsonValue& {
    return doc.records.at(0).deterministic;
  };
  const auto bump = [](JsonValue& leaf) {
    leaf = obs::jsonmini::json_int(std::stoll(leaf.string) + 1);
  };

  obs::DiffOptions tight;
  tight.tol_ms = 1.0;
  tight.tol_rel = 0.0;
  EXPECT_EQ(obs::diff_run_documents(base, base, tight).status(), obs::DiffStatus::kClean);

  // Thread counts present on only one side are not timed.
  auto fewer = base;
  fewer.records[0].measured.pop_back();
  EXPECT_EQ(obs::diff_run_documents(base, fewer, tight).status(), obs::DiffStatus::kClean);

  // Deterministic drift: structural mismatch (exit 4), named field.
  auto digest_drift = base;
  *det(digest_drift).find("output_digest") = obs::jsonmini::json_string("0000000000000000");
  const auto mism = obs::diff_run_documents(base, digest_drift, tight);
  EXPECT_EQ(mism.status(), obs::DiffStatus::kMismatch);
  EXPECT_NE(mism.to_text().find("output_digest"), std::string::npos);

  auto alloc_drift = base;
  ASSERT_FALSE(det(alloc_drift).find("phases")->array.empty());
  bump(*det(alloc_drift).find("phases")->array[0].find("allocs"));
  EXPECT_EQ(obs::diff_run_documents(base, alloc_drift, tight).status(),
            obs::DiffStatus::kMismatch);

  auto round_drift = base;
  ASSERT_FALSE(det(round_drift).find("rounds")->array.empty());
  bump(*det(round_drift).find("rounds")->array[0].find("messages"));
  EXPECT_EQ(obs::diff_run_documents(base, round_drift, tight).status(),
            obs::DiffStatus::kMismatch);

  // Timing drift at one thread count beyond tolerance: regression (exit
  // 3); absorbed by a generous tolerance: clean.
  auto slow = base;
  *slow.records[0].measured[1].find("wall_ms") = obs::jsonmini::json_number("1005.000");
  const auto reg = obs::diff_run_documents(base, slow, tight);
  EXPECT_EQ(reg.status(), obs::DiffStatus::kRegression);
  EXPECT_NE(reg.to_text().find("orientation [t=2 wall_ms]"), std::string::npos);
  obs::DiffOptions loose;
  loose.tol_ms = 100000.0;
  EXPECT_EQ(obs::diff_run_documents(base, slow, loose).status(), obs::DiffStatus::kClean);

  // A run record against a bench document is graded like any pair: the
  // suites and the record sets differ (exit 4).
  const auto mixed = obs::diff_documents(
      base.to_json(),
      R"({"schema_version": 8, "suite": "smoke", "records": [{"name": "orientation/n=96",
          "deterministic": {"n": 96}, "measured": [{"threads": 1, "wall_ms": 1.0}]}]})");
  EXPECT_EQ(mixed.status(), obs::DiffStatus::kMismatch);
  EXPECT_NE(mixed.to_text().find("[records]"), std::string::npos);

  // Exit codes are the enum values — the CLI returns status() directly.
  EXPECT_EQ(static_cast<int>(obs::DiffStatus::kClean), 0);
  EXPECT_EQ(static_cast<int>(obs::DiffStatus::kRegression), 3);
  EXPECT_EQ(static_cast<int>(obs::DiffStatus::kMismatch), 4);
}

}  // namespace
}  // namespace lad
