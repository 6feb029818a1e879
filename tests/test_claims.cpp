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
//   3. The run document round-trips both writers (bench and profile)
//      through the one parser, and the one differ grades perturbations at
//      every depth with the documented severities without knowing any
//      field; the runner turns a case's contract violation into an error
//      row.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_runner.hpp"
#include "core/pipeline.hpp"
#include "faults/campaign.hpp"
#include "graph/source.hpp"
#include "obs/claims.hpp"
#include "obs/diff.hpp"
#include "obs/fit.hpp"
#include "obs/profile.hpp"
#include "obs/version.hpp"

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

// --- run documents and the differ ----------------------------------------

using obs::jsonmini::JsonValue;
using obs::jsonmini::json_int;
using obs::jsonmini::json_number;
using obs::jsonmini::json_string;

// One bench case as the runner reports it: serial and 2-thread timings,
// counters.
bench::BenchSuiteResult tiny_suite() {
  bench::BenchSuiteResult res;
  res.suite = "smoke";
  res.reps = 3;
  bench::BenchCaseResult c;
  c.name = "orientation/n=96";
  c.det.n = 96;
  c.det.m = 96;
  c.det.rounds = 130;
  c.det.bits_per_node = 1.0;
  c.det.total_bits = 192;
  c.det.digest = "4a12e85475579ad0";
  c.det.counters = {{"ones_ratio", 0.0625}, {"marked_trails", 1}};
  c.wall_ms_1 = 10.0;
  c.runs = {{2, 8.0, 1.25, true}};
  res.cases.push_back(c);
  return res;
}

obs::RunDocument tiny_doc() { return obs::parse_run_document(tiny_suite().to_json()); }

JsonValue& det_leaf(obs::RunDocument& doc, const std::string& key) {
  return *doc.records.at(0).deterministic.find(key);
}

void set_wall_ms(obs::RunDocument& doc, std::size_t row, const char* token) {
  *doc.records.at(0).measured.at(row).find("wall_ms") = json_number(token);
}

TEST(BenchDiff, RoundTripsTheWritersOwnJson) {
  auto res = bench::run_bench_suite("smoke", {1}, /*with_metrics=*/false, /*reps=*/2);
  EXPECT_EQ(res.reps, 2);
  // A source-driven case names a user-supplied path, which may carry the
  // JSON metacharacters " and \.
  auto quoted = res.cases.front();
  quoted.name = "orientation/q\"x\\y.ladg";
  quoted.det.source = "q\"x\\y.ladg";
  quoted.det.graph_digest = "0123456789abcdef";
  res.cases.push_back(quoted);
  // Counters are written with %.17g, so a non-terminating binary fraction
  // must come back bit-identical.
  auto counted = res.cases.front();
  counted.name = "subexp_lcl/mis/cycle/n=2000";
  counted.det.counters = {{"ones_ratio", 1.0 / 3.0}, {"clusters", 17}, {"max_blast_radius", 0}};
  res.cases.push_back(counted);
  // An error row carries the message and nothing else.
  bench::BenchCaseResult failed;
  failed.name = "edge_coloring/bipartite-regular/delta=8";
  failed.error = "LAD_CHECK failed: round < budget \"quoted\" \\ — exhausted";
  res.cases.push_back(failed);
  const std::string json = res.to_json();
  const auto doc = obs::parse_run_document(json);
  EXPECT_EQ(doc.to_json(), json);  // the parser and the writer are inverses
  EXPECT_EQ(doc.meta.find("schema_version")->string, std::to_string(obs::kSchemaVersion));
  EXPECT_EQ(doc.meta.find("suite")->string, "smoke");
  EXPECT_EQ(doc.meta.find("reps")->string, "2");
  ASSERT_EQ(doc.records.size(), res.cases.size());
  for (std::size_t i = 0; i < doc.records.size(); ++i) {
    const auto& rec = doc.records[i];
    const auto& c = res.cases[i];
    EXPECT_EQ(rec.name, c.name);
    const JsonValue& det = rec.deterministic;
    if (!c.error.empty()) {
      ASSERT_EQ(det.object.size(), 1u);
      EXPECT_EQ(det.find("error")->string, c.error);
      EXPECT_TRUE(rec.measured.empty());
      continue;
    }
    EXPECT_EQ(det.find("digest")->string, c.det.digest);
    EXPECT_EQ(det.find("rounds")->string, std::to_string(c.det.rounds));
    if (const JsonValue* src = det.find("source"); src != nullptr) {
      EXPECT_EQ(src->string, c.det.source);
    } else {
      EXPECT_TRUE(c.det.source.empty());
    }
    const JsonValue* counters = det.find("counters");
    ASSERT_EQ(counters != nullptr ? counters->object.size() : 0u, c.det.counters.size()) << c.name;
    for (std::size_t j = 0; j < c.det.counters.size(); ++j) {
      EXPECT_EQ(counters->object[j].first, c.det.counters[j].first);
      EXPECT_EQ(std::stod(counters->object[j].second.string), c.det.counters[j].second);
    }
    // At --threads 1 the serial row is the only measured row.
    ASSERT_EQ(rec.measured.size(), 1u);
    EXPECT_EQ(rec.measured[0].find("threads")->string, "1");
  }
  const auto diff = obs::diff_run_documents(doc, doc);
  EXPECT_EQ(diff.status(), obs::DiffStatus::kClean);
  // Every record but the error row is timed.
  EXPECT_EQ(diff.compared, static_cast<int>(doc.records.size()) - 1);
}

TEST(BenchDiff, RepsDoNotChangeDeterministicFields) {
  const auto once = bench::run_bench_suite("smoke", {1}, false, 1);
  const auto thrice = bench::run_bench_suite("smoke", {1}, false, 3);
  ASSERT_EQ(once.cases.size(), thrice.cases.size());
  for (std::size_t i = 0; i < once.cases.size(); ++i) {
    EXPECT_EQ(once.cases[i].det.digest, thrice.cases[i].det.digest) << once.cases[i].name;
    EXPECT_EQ(once.cases[i].det.rounds, thrice.cases[i].det.rounds);
    EXPECT_EQ(once.cases[i].det.total_bits, thrice.cases[i].det.total_bits);
  }
}

TEST(BenchDiff, GradesTimingAsRegression) {
  const auto base = tiny_doc();
  auto cand = tiny_doc();
  set_wall_ms(cand, 0, "1000.000");
  obs::DiffOptions opts;
  opts.tol_ms = 100.0;
  opts.tol_rel = 0.5;
  const auto diff = obs::diff_run_documents(base, cand, opts);
  EXPECT_EQ(diff.status(), obs::DiffStatus::kRegression);
  ASSERT_EQ(diff.findings.size(), 1u);
  EXPECT_EQ(diff.findings[0].field, "t=1 wall_ms");
  EXPECT_EQ(diff.compared, 2);  // both shared thread counts are timed
  // Within tolerance: clean.
  set_wall_ms(cand, 0, "60.000");
  EXPECT_EQ(obs::diff_run_documents(base, cand, opts).status(), obs::DiffStatus::kClean);
}

TEST(BenchDiff, GradesDeterministicDivergenceAsMismatch) {
  const auto base = tiny_doc();
  for (const char* key : {"rounds", "total_bits", "digest", "n"}) {
    auto cand = tiny_doc();
    JsonValue& leaf = det_leaf(cand, key);
    leaf = leaf.kind == JsonValue::Kind::kString ? json_string("ffffffffffffffff")
                                                 : json_int(std::stoll(leaf.string) + 1);
    const auto diff = obs::diff_run_documents(base, cand);
    EXPECT_EQ(diff.status(), obs::DiffStatus::kMismatch) << key;
    ASSERT_EQ(diff.findings.size(), 1u) << key;
    EXPECT_EQ(diff.findings[0].field, key);
  }
  auto counters = tiny_doc();
  *det_leaf(counters, "counters").find("ones_ratio") = json_number("0.0626");
  const auto cdiff = obs::diff_run_documents(base, counters);
  ASSERT_EQ(cdiff.findings.size(), 1u);
  EXPECT_EQ(cdiff.findings[0].field, "counters.ones_ratio");

  // A case that turned into an error row is a mismatch naming the error;
  // two error rows differ exactly in their messages.
  auto failed = tiny_doc();
  failed.records[0].deterministic = obs::jsonmini::json_object().add(
      "error", json_string("LAD_CHECK failed: x"));
  failed.records[0].measured.clear();
  const auto ediff = obs::diff_run_documents(base, failed);
  EXPECT_EQ(ediff.status(), obs::DiffStatus::kMismatch);
  EXPECT_TRUE(std::any_of(ediff.findings.begin(), ediff.findings.end(),
                          [](const obs::Finding& f) { return f.field == "error"; }));
  auto failed_other = failed;
  det_leaf(failed_other, "error") = json_string("LAD_CHECK failed: y");
  const auto mdiff = obs::diff_run_documents(failed, failed_other);
  ASSERT_EQ(mdiff.findings.size(), 1u);
  EXPECT_EQ(mdiff.findings[0].field, "error");

  // Mismatch outranks a simultaneous regression in the exit code.
  auto cand = tiny_doc();
  det_leaf(cand, "rounds") = json_int(131);
  set_wall_ms(cand, 0, "1000000.000");
  EXPECT_EQ(obs::diff_run_documents(base, cand).status(), obs::DiffStatus::kMismatch);
}

TEST(BenchDiff, CaseSetChangesAreMismatches) {
  const auto base = tiny_doc();
  auto cand = tiny_doc();
  cand.records[0].name = "orientation/n=128";
  const auto diff = obs::diff_run_documents(base, cand);
  EXPECT_EQ(diff.status(), obs::DiffStatus::kMismatch);
  EXPECT_EQ(diff.findings.size(), 2u);  // missing from candidate + extra in candidate

  auto other_suite = tiny_doc();
  *other_suite.meta.find("suite") = json_string("e2");
  const auto sdiff = obs::diff_run_documents(base, other_suite);
  EXPECT_EQ(sdiff.status(), obs::DiffStatus::kMismatch);
  EXPECT_EQ(sdiff.findings[0].field, "suite");
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
    ASSERT_EQ(csr.runs.size(), 1u);
    EXPECT_TRUE(csr.runs[0].identical);
    EXPECT_EQ(csr.det.graph_digest.size(), 16u);
  }
  const auto& ok = res.cases[0];
  EXPECT_EQ(ok.name, "source/cycle:64/splitting");
  EXPECT_TRUE(ok.error.empty()) << ok.error;
  EXPECT_EQ(ok.det.n, 64);
  ASSERT_EQ(ok.runs.size(), 1u);
  EXPECT_TRUE(ok.runs[0].identical);
  EXPECT_EQ(ok.det.digest.size(), 16u);
  // Its record holds the serial row and the 2-thread row.
  const auto ok_rec = ok.record();
  ASSERT_EQ(ok_rec.measured.size(), 2u);
  EXPECT_EQ(ok_rec.measured[1].find("threads")->string, "2");
  const auto& bad = res.cases[1];
  EXPECT_EQ(bad.name, "source/cycle:101/splitting");
  EXPECT_NE(bad.error.find("splitting: inadmissible input: requires a bipartite graph"),
            std::string::npos)
      << bad.error;
  EXPECT_TRUE(bad.rejected);
  EXPECT_TRUE(bad.det.digest.empty());
  EXPECT_EQ(bad.wall_ms_1, 0.0);
  // Its record is {"error"} with no measured rows.
  const auto bad_rec = bad.record();
  ASSERT_EQ(bad_rec.deterministic.object.size(), 1u);
  EXPECT_EQ(bad_rec.deterministic.find("error")->string, bad.error);
  EXPECT_TRUE(bad_rec.measured.empty());
}

TEST(BenchDiff, ParserRejectsGarbageAndOldSchemas) {
  EXPECT_THROW(obs::parse_run_document("not json"), std::runtime_error);
  EXPECT_THROW(obs::parse_run_document("{\"schema_version\": 8}"), std::runtime_error);
  EXPECT_THROW(obs::parse_run_document(
                   "{\"schema_version\": 7, \"git_commit\": \"x\", \"timestamp\": \"t\", "
                   "\"suite\": \"smoke\", \"threads\": 1, \"hardware_threads\": 1, "
                   "\"cases\": []}"),
               std::runtime_error);
  // A measured row must carry its thread count and wall time.
  EXPECT_THROW(obs::parse_run_document(
                   "{\"schema_version\": 8, \"suite\": \"s\", \"records\": [{\"name\": \"a\", "
                   "\"deterministic\": {}, \"measured\": [{\"threads\": 1}]}]}"),
               std::runtime_error);
}

// Both producers' documents, self-diffed and then perturbed one leaf at a
// time at every depth: each change is exactly one MISMATCH naming its path.
TEST(RunDocument, OneLeafChangeAtEveryDepthIsOneNamedMismatch) {
  const auto bench_doc =
      obs::parse_run_document(bench::run_bench_suite("smoke", {1}, false, 1).to_json());
  const Pipeline* p = find_pipeline("orientation");
  ASSERT_NE(p, nullptr);
  const auto lg = load_graph_source(*parse_graph_source("cycle:512", nullptr));
  auto report = faults::observe_run(*p, lg.graph, lg.spec, {}, {1}, 1);
  obs::reset_instruments();
  const auto run_doc = obs::parse_run_document(report.to_json());
  for (const auto* doc : {&bench_doc, &run_doc}) {
    EXPECT_EQ(obs::diff_run_documents(*doc, *doc).status(), obs::DiffStatus::kClean);
  }

  const auto one_finding = [](const obs::RunDocument& base, const obs::RunDocument& cand,
                              const std::string& path) {
    const auto diff = obs::diff_run_documents(base, cand);
    EXPECT_EQ(diff.status(), obs::DiffStatus::kMismatch) << path;
    ASSERT_EQ(diff.findings.size(), 1u) << path << "\n" << diff.to_text();
    EXPECT_EQ(diff.findings[0].field, path);
  };
  const auto bump = [](JsonValue& leaf) { leaf = json_int(std::stoll(leaf.string) + 1); };

  // A top-level key, and counters.<name> (the campaign case has counters).
  auto top = bench_doc;
  det_leaf(top, "digest") = json_string("0000000000000000");
  one_finding(bench_doc, top, "digest");
  auto counter = bench_doc;
  JsonValue* counters = counter.records.back().deterministic.find("counters");
  ASSERT_NE(counters, nullptr);
  bump(*counters->find("detected"));
  one_finding(bench_doc, counter, "counters.detected");

  // rounds[i].<field>, and an array length.
  auto round = run_doc;
  bump(*det_leaf(round, "rounds").array.at(2).find("messages"));
  one_finding(run_doc, round, "rounds[2].messages");
  auto shorter = run_doc;
  det_leaf(shorter, "rounds").array.pop_back();
  one_finding(run_doc, shorter, "rounds");
}

TEST(RunDocument, SeedsDifferingPast2To53AreAMismatch) {
  // 2^53 + 1 and 2^53 are the same double; their tokens are not.
  auto base = tiny_doc();
  base.records[0].deterministic.add("seed", json_number("9007199254740993"));
  auto cand = tiny_doc();
  cand.records[0].deterministic.add("seed", json_number("9007199254740992"));
  ASSERT_EQ(det_leaf(base, "seed").number, det_leaf(cand, "seed").number);
  const auto diff = obs::diff_run_documents(base, cand);
  EXPECT_EQ(diff.status(), obs::DiffStatus::kMismatch);
  ASSERT_EQ(diff.findings.size(), 1u);
  EXPECT_EQ(diff.findings[0].field, "seed");
  // The same holds through the text of a document.
  EXPECT_EQ(obs::diff_documents(base.to_json(), cand.to_json()).status(),
            obs::DiffStatus::kMismatch);
}

TEST(RunDocument, AnUnseenDeterministicKeyIsDiffed) {
  // A producer adds a key (here a nested per-stage object) without any
  // parser or differ edit: it parses, self-diffs clean and is graded.
  const auto with = [](const char* peak) {
    using obs::jsonmini::json_object;
    auto doc = tiny_doc();
    JsonValue encode = json_object().add("peak_rss_kb", json_number(peak));
    doc.records[0].deterministic.add("stages", json_object().add("encode", std::move(encode)));
    return obs::parse_run_document(doc.to_json());
  };
  EXPECT_EQ(obs::diff_run_documents(with("2048"), with("2048")).status(),
            obs::DiffStatus::kClean);
  const auto diff = obs::diff_run_documents(with("2048"), with("4096"));
  ASSERT_EQ(diff.findings.size(), 1u);
  EXPECT_EQ(diff.findings[0].field, "stages.encode.peak_rss_kb");
  // Present on one side only is a mismatch too.
  const auto added = obs::diff_run_documents(tiny_doc(), with("2048"));
  ASSERT_EQ(added.findings.size(), 1u);
  EXPECT_EQ(added.findings[0].field, "stages");
}

}  // namespace
}  // namespace lad
