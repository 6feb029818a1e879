// The claims observatory (DESIGN.md §9.6), pinned from three sides:
//
//   1. The scaling-law fitter classifies synthetic series of every growth
//      class correctly — and rejects the neighboring classes, which is the
//      part that keeps verify-claims honest (a fitter that calls noisy
//      constants "log" would fail good pipelines; one that calls log
//      "constant" would pass broken ones).
//   2. The claim registry is assembled from the Pipeline registry, one
//      claim set per pipeline, and a real (small-n) sweep of every
//      pipeline conforms to its declared classes.
//   3. The bench-diff sentinel round-trips the bench writer's own JSON and
//      grades perturbations with the documented severities; the runner
//      turns a case's contract violation into an error row.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_runner.hpp"
#include "core/pipeline.hpp"
#include "graph/source.hpp"
#include "obs/diff.hpp"
#include "obs/claims.hpp"
#include "obs/fit.hpp"

namespace lad {
namespace {

using obs::GrowthClass;

std::vector<double> geometric_ns() { return {256, 512, 1024, 2048, 4096, 8192}; }

std::vector<double> map_ns(const std::vector<double>& ns, double (*f)(double)) {
  std::vector<double> ys;
  ys.reserve(ns.size());
  for (const double n : ns) ys.push_back(f(n));
  return ys;
}

// --- fitter ----------------------------------------------------------------

TEST(Fit, LogStarValues) {
  EXPECT_EQ(obs::log_star(1), 0);
  EXPECT_EQ(obs::log_star(2), 1);
  EXPECT_EQ(obs::log_star(4), 2);
  EXPECT_EQ(obs::log_star(16), 3);
  EXPECT_EQ(obs::log_star(65536), 4);
  EXPECT_EQ(obs::log_star(1e300), 5);
}

TEST(Fit, GrowthClassNamesRoundTrip) {
  for (const GrowthClass cls : {GrowthClass::kConstant, GrowthClass::kLogStar, GrowthClass::kLog,
                                GrowthClass::kSqrt, GrowthClass::kLinear}) {
    const auto parsed = obs::parse_growth_class(obs::to_string(cls));
    ASSERT_TRUE(parsed.has_value()) << obs::to_string(cls);
    EXPECT_EQ(*parsed, cls);
  }
  EXPECT_FALSE(obs::parse_growth_class("exponential").has_value());
}

TEST(Fit, ClassifiesExactConstant) {
  const auto ns = geometric_ns();
  const auto res = obs::fit_growth(ns, std::vector<double>(ns.size(), 7.0));
  EXPECT_EQ(res.cls, GrowthClass::kConstant);
  EXPECT_LE(res.rel_range, 1e-12);
}

TEST(Fit, ClassifiesNoisyConstantNotLog) {
  // Uncorrelated bounded noise (the Δ-coloring rounds shape): any basis
  // correlates a little over a finite sweep, so the growth margin must
  // demote this to constant — the regression that motivated the margin.
  const auto res = obs::fit_growth(geometric_ns(), {14, 12, 15, 13, 14, 13});
  EXPECT_EQ(res.cls, GrowthClass::kConstant);
}

TEST(Fit, FlatnessShortcutEatsSmallDrift) {
  // Monotone but materially flat (4% total drift): still constant.
  const auto res = obs::fit_growth(geometric_ns(), {100, 101, 102, 103, 104, 104});
  EXPECT_EQ(res.cls, GrowthClass::kConstant);
  EXPECT_LE(res.rel_range, 0.10);
}

TEST(Fit, ClassifiesLog) {
  const auto res =
      obs::fit_growth(geometric_ns(), map_ns(geometric_ns(), [](double n) { return 3 * std::log2(n); }));
  EXPECT_EQ(res.cls, GrowthClass::kLog);
  EXPECT_GT(res.r2, 0.99);
  EXPECT_NEAR(res.slope, 3.0, 0.01);
}

TEST(Fit, ClassifiesLogStar) {
  // log* is near-constant over any feasible n-range, so distinguishing it
  // needs astronomically spaced sweep points (tower-function gaps).
  const std::vector<double> ns = {4, 16, 65536, 1e300};
  const auto res = obs::fit_growth(ns, map_ns(ns, [](double n) {
                                     return 2.0 * obs::log_star(n);
                                   }));
  EXPECT_EQ(res.cls, GrowthClass::kLogStar);
  EXPECT_GT(res.r2, 0.99);
}

TEST(Fit, ClassifiesSqrt) {
  const auto res = obs::fit_growth(
      geometric_ns(), map_ns(geometric_ns(), [](double n) { return 0.5 * std::sqrt(n); }));
  EXPECT_EQ(res.cls, GrowthClass::kSqrt);
  EXPECT_NEAR(res.exponent, 0.5, 0.05);
}

TEST(Fit, ClassifiesLinear) {
  const auto res = obs::fit_growth(geometric_ns(),
                                   map_ns(geometric_ns(), [](double n) { return 2 * n + 5; }));
  EXPECT_EQ(res.cls, GrowthClass::kLinear);
  EXPECT_NEAR(res.exponent, 1.0, 0.05);
}

TEST(Fit, RejectsNeighboringClasses) {
  // Each generator must land in its own class, not a neighbor: log must not
  // read as sqrt (or constant), sqrt not as log or linear.
  const auto ns = geometric_ns();
  EXPECT_NE(obs::fit_growth(ns, map_ns(ns, [](double n) { return 3 * std::log2(n); })).cls,
            GrowthClass::kSqrt);
  EXPECT_NE(obs::fit_growth(ns, map_ns(ns, [](double n) { return 0.5 * std::sqrt(n); })).cls,
            GrowthClass::kLog);
  EXPECT_NE(obs::fit_growth(ns, map_ns(ns, [](double n) { return 0.5 * std::sqrt(n); })).cls,
            GrowthClass::kLinear);
  EXPECT_NE(obs::fit_growth(ns, map_ns(ns, [](double n) { return 2 * n; })).cls,
            GrowthClass::kSqrt);
}

TEST(Fit, InputValidation) {
  EXPECT_THROW(obs::fit_growth({1, 2}, {1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(obs::fit_growth({1, 2}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(obs::fit_growth({4, 2, 8}, {1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(obs::fit_growth({2, 4, 8}, {1, -2, 3}), std::invalid_argument);
}

// --- claim registry + real sweeps ------------------------------------------

TEST(Claims, EveryPipelineDeclaresItsClaims) {
  for (const Pipeline* p : pipelines()) {
    const PipelineClaims c = p->claims();
    EXPECT_NE(std::string(c.statement), "") << p->name() << " has no claim statement";
    if (p->carrier() == AdviceCarrier::kUniformBits) {
      EXPECT_GT(c.max_bits_per_node, 0) << p->name() << ": uniform carriers are 1-bit bounded";
    }
  }
}

TEST(Claims, SmallSweepConformsForEveryPipeline) {
  // A bench-scale version of `lad verify-claims`: every registered
  // pipeline must pass its own declared claims on a small sweep. The big
  // default sweep is exercised by CI's verify-claims smoke.
  const auto report = obs::verify_claims({64, 128, 256}, "", /*seed=*/1);
  ASSERT_EQ(report.pipelines.size(), pipelines().size());
  for (const auto& r : report.pipelines) {
    EXPECT_TRUE(r.pass()) << r.name << ":\n" << report.to_text();
    for (const auto& pt : r.points) EXPECT_TRUE(pt.verified) << r.name << " n=" << pt.n;
  }
  EXPECT_TRUE(report.pass());
  EXPECT_NE(report.to_json().find("\"pass\": true"), std::string::npos);
  EXPECT_NE(report.to_markdown().find("**PASS**"), std::string::npos);
}

TEST(Claims, SweepIsDeterministic) {
  const Pipeline& p = pipeline(PipelineId::kOrientation);
  const auto a = obs::run_claim_sweep(p, {64, 128, 256}, 9);
  const auto b = obs::run_claim_sweep(p, {64, 128, 256}, 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rounds, b[i].rounds);
    EXPECT_EQ(a[i].total_bits, b[i].total_bits);
    EXPECT_EQ(a[i].ones_ratio, b[i].ones_ratio);
  }
}

TEST(Claims, UnknownFamilyAndShortSweepsThrow) {
  EXPECT_THROW(obs::verify_claims({64, 128, 256}, "no_such_pipeline"), std::invalid_argument);
  EXPECT_THROW(obs::verify_claims({64, 128}), std::invalid_argument);
  const Pipeline& p = pipeline(PipelineId::kOrientation);
  EXPECT_THROW(obs::check_pipeline_claims(p, obs::run_claim_sweep(p, {64, 128})),
               std::invalid_argument);
}

TEST(Claims, FailedVerificationFailsTheClaim) {
  const Pipeline& p = pipeline(PipelineId::kOrientation);
  auto points = obs::run_claim_sweep(p, {64, 128, 256});
  points[1].verified = false;
  const auto report = obs::check_pipeline_claims(p, points);
  EXPECT_FALSE(report.pass());
}

// --- bench diff ------------------------------------------------------------

obs::BenchDoc tiny_doc() {
  obs::BenchDoc doc;
  doc.schema_version = 7;
  doc.suite = "smoke";
  doc.reps = 3;
  obs::BenchCaseRow row;
  row.name = "orientation/n=96";
  row.n = 96;
  row.m = 96;
  row.rounds = 130;
  row.bits_per_node = 1.0;
  row.total_bits = 192;
  row.wall_ms_1 = 10.0;
  row.wall_ms = 8.0;
  row.digest = "4a12e85475579ad0";
  row.counters = {{"ones_ratio", 0.0625}, {"marked_trails", 1}};
  doc.cases.push_back(row);
  return doc;
}

TEST(BenchDiff, RoundTripsTheWritersOwnJson) {
  auto res = bench::run_bench_suite("smoke", {1}, /*with_metrics=*/false, /*reps=*/2);
  EXPECT_EQ(res.reps, 2);
  // A source-driven case names a user-supplied path, which may carry the
  // JSON metacharacters " and \.
  auto quoted = res.cases.front();
  quoted.name = "orientation/q\"x\\y.ladg";
  quoted.source = "q\"x\\y.ladg";
  quoted.graph_digest = "0123456789abcdef";
  res.cases.push_back(quoted);
  // Counters are written with %.17g, so a non-terminating binary fraction
  // must come back bit-identical.
  auto counted = res.cases.front();
  counted.name = "subexp_lcl/mis/cycle/n=2000";
  counted.counters = {{"ones_ratio", 1.0 / 3.0}, {"clusters", 17}, {"max_blast_radius", 0}};
  res.cases.push_back(counted);
  // An error row carries the message and nothing else.
  bench::BenchCaseResult failed;
  failed.name = "edge_coloring/bipartite-regular/delta=8";
  failed.error = "LAD_CHECK failed: round < budget \"quoted\" \\ — exhausted";
  res.cases.push_back(failed);
  const auto doc = obs::parse_bench_json(res.to_json());
  EXPECT_EQ(doc.schema_version, res.schema_version);
  EXPECT_EQ(doc.suite, "smoke");
  EXPECT_EQ(doc.reps, 2);
  ASSERT_EQ(doc.cases.size(), res.cases.size());
  for (std::size_t i = 0; i < doc.cases.size(); ++i) {
    EXPECT_EQ(doc.cases[i].name, res.cases[i].name);
    EXPECT_EQ(doc.cases[i].source, res.cases[i].source);
    EXPECT_EQ(doc.cases[i].digest, res.cases[i].digest);
    EXPECT_EQ(doc.cases[i].rounds, res.cases[i].rounds);
    EXPECT_EQ(doc.cases[i].error, res.cases[i].error);
    ASSERT_EQ(doc.cases[i].counters.size(), res.cases[i].counters.size()) << res.cases[i].name;
    for (std::size_t j = 0; j < doc.cases[i].counters.size(); ++j) {
      EXPECT_EQ(doc.cases[i].counters[j].first, res.cases[i].counters[j].first);
      EXPECT_EQ(doc.cases[i].counters[j].second, res.cases[i].counters[j].second);
    }
  }
  EXPECT_EQ(doc.cases.back().n, 0);  // nothing but name and error
  const auto diff = obs::diff_bench(doc, doc);
  EXPECT_EQ(diff.status(), obs::DiffStatus::kClean);
  // Every row but the error row is timed.
  EXPECT_EQ(diff.compared, static_cast<int>(doc.cases.size()) - 1);
}

TEST(BenchDiff, RepsDoNotChangeDeterministicFields) {
  const auto once = bench::run_bench_suite("smoke", {1}, false, 1);
  const auto thrice = bench::run_bench_suite("smoke", {1}, false, 3);
  ASSERT_EQ(once.cases.size(), thrice.cases.size());
  for (std::size_t i = 0; i < once.cases.size(); ++i) {
    EXPECT_EQ(once.cases[i].digest, thrice.cases[i].digest) << once.cases[i].name;
    EXPECT_EQ(once.cases[i].rounds, thrice.cases[i].rounds);
    EXPECT_EQ(once.cases[i].total_bits, thrice.cases[i].total_bits);
  }
}

TEST(BenchDiff, GradesTimingAsRegression) {
  const auto base = tiny_doc();
  auto cand = tiny_doc();
  cand.cases[0].wall_ms_1 = 1000.0;
  obs::DiffOptions opts;
  opts.tol_ms = 100.0;
  opts.tol_rel = 0.5;
  const auto diff = obs::diff_bench(base, cand, opts);
  EXPECT_EQ(diff.status(), obs::DiffStatus::kRegression);
  // Within tolerance: clean.
  cand.cases[0].wall_ms_1 = 60.0;
  EXPECT_EQ(obs::diff_bench(base, cand, opts).status(), obs::DiffStatus::kClean);
}

TEST(BenchDiff, GradesDeterministicDivergenceAsMismatch) {
  const auto base = tiny_doc();
  for (const char* field : {"rounds", "total_bits", "digest", "n", "counters", "error"}) {
    auto cand = tiny_doc();
    if (std::string(field) == "rounds") cand.cases[0].rounds = 131;
    if (std::string(field) == "total_bits") cand.cases[0].total_bits = 200;
    if (std::string(field) == "digest") cand.cases[0].digest = "ffffffffffffffff";
    if (std::string(field) == "n") cand.cases[0].n = 97;
    if (std::string(field) == "counters") cand.cases[0].counters[0].second = 0.0626;
    if (std::string(field) == "error") cand.cases[0].error = "LAD_CHECK failed: x";
    const auto diff = obs::diff_bench(base, cand);
    EXPECT_EQ(diff.status(), obs::DiffStatus::kMismatch) << field;
    ASSERT_EQ(diff.findings.size(), 1u) << field;
    EXPECT_EQ(diff.findings[0].field, field);
  }
  // Mismatch outranks a simultaneous regression in the exit code.
  auto cand = tiny_doc();
  cand.cases[0].rounds = 131;
  cand.cases[0].wall_ms_1 = 1e6;
  EXPECT_EQ(obs::diff_bench(base, cand).status(), obs::DiffStatus::kMismatch);
}

TEST(BenchDiff, CaseSetChangesAreMismatches) {
  const auto base = tiny_doc();
  auto cand = tiny_doc();
  cand.cases[0].name = "orientation/n=128";
  const auto diff = obs::diff_bench(base, cand);
  EXPECT_EQ(diff.status(), obs::DiffStatus::kMismatch);
  EXPECT_EQ(diff.findings.size(), 2u);  // missing from candidate + extra in candidate

  auto other_suite = tiny_doc();
  other_suite.suite = "e2";
  const auto sdiff = obs::diff_bench(base, other_suite);
  EXPECT_EQ(sdiff.status(), obs::DiffStatus::kMismatch);
  EXPECT_EQ(sdiff.findings[0].field, "suite");
}

TEST(BenchDiff, SchemaV2DigestlessDocsStillDiff) {
  // Pre-digest (schema 2) documents: digest comparison is skipped, the
  // other deterministic fields still have teeth.
  auto base = tiny_doc();
  base.schema_version = 2;
  base.cases[0].digest.clear();
  auto cand = tiny_doc();
  cand.cases[0].digest.clear();
  EXPECT_EQ(obs::diff_bench(base, cand).status(), obs::DiffStatus::kClean);
  cand.cases[0].rounds = 7;
  EXPECT_EQ(obs::diff_bench(base, cand).status(), obs::DiffStatus::kMismatch);
}

TEST(BenchRunner, ContractViolationBecomesAnErrorRow) {
  // Splitting needs a bipartite graph: the odd cycle's case is rejected at
  // the pipeline's admission point, and the runner records the rejection
  // instead of abandoning the batch.
  // At 2 threads each source also gets its parallel CSR rebuild case.
  std::vector<GraphSource> sources;
  for (const char* spec : {"cycle:64", "cycle:101"}) {
    const auto src = parse_graph_source(spec, nullptr);
    ASSERT_TRUE(src.has_value()) << spec;
    sources.push_back(*src);
  }
  const auto res = bench::run_source_bench(sources, "splitting", {2});
  ASSERT_EQ(res.cases.size(), 4u);
  for (const std::size_t i : {std::size_t{2}, std::size_t{3}}) {
    const auto& csr = res.cases[i];
    EXPECT_EQ(csr.name, "csr/" + sources[i - 2].spec);
    EXPECT_TRUE(csr.error.empty()) << csr.error;
    EXPECT_TRUE(csr.identical);
    EXPECT_EQ(csr.graph_digest.size(), 16u);
  }
  const auto& ok = res.cases[0];
  EXPECT_EQ(ok.name, "source/cycle:64/splitting");
  EXPECT_TRUE(ok.error.empty()) << ok.error;
  EXPECT_EQ(ok.n, 64);
  EXPECT_TRUE(ok.identical);
  EXPECT_EQ(ok.digest.size(), 16u);
  const auto& bad = res.cases[1];
  EXPECT_EQ(bad.name, "source/cycle:101/splitting");
  EXPECT_NE(bad.error.find("splitting: inadmissible input: requires a bipartite graph"),
            std::string::npos)
      << bad.error;
  EXPECT_TRUE(bad.rejected);
  EXPECT_TRUE(bad.digest.empty());
  EXPECT_EQ(bad.wall_ms_1, 0.0);
}

TEST(BenchDiff, ParserRejectsGarbageAndOldSchemas) {
  EXPECT_THROW(obs::parse_bench_json("not json"), std::runtime_error);
  EXPECT_THROW(obs::parse_bench_json("{\"schema_version\": 3}"), std::runtime_error);
  EXPECT_THROW(obs::parse_bench_json(
                   "{\"schema_version\": 1, \"git_commit\": \"x\", \"timestamp\": \"t\", "
                   "\"suite\": \"smoke\", \"threads\": 1, \"hardware_threads\": 1, "
                   "\"cases\": []}"),
               std::runtime_error);
}

}  // namespace
}  // namespace lad
