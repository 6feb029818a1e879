// The observability contract (DESIGN.md §9), pinned from four sides:
//
//   1. Serial-phase metrics are byte-identical at 1, 2, and 8 threads —
//      the §8 determinism contract extends to the telemetry layer.
//   2. Telemetry can never influence outputs: node digests of all six
//      registry pipelines are identical with telemetry on and off.
//   3. The Chrome trace export is well-formed: every per-thread event
//      stream has balanced B/E phases and non-decreasing timestamps.
//   4. The Prometheus text export round-trips through a minimal parser
//      and agrees with the registry snapshot.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_runner.hpp"
#include "core/pipeline.hpp"
#include "faults/campaign.hpp"
#include "graph/generators.hpp"
#include "local/gather.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "obs/version.hpp"
#include "util/thread_pool.hpp"

namespace lad {
namespace {

// Metrics that legitimately depend on the thread count are flagged
// thread_variant in the registry catalog (telemetry.cpp); the test queries
// the flag instead of keeping a private exclusion list, so catalog and
// contract cannot drift apart.
std::set<std::string> thread_dependent_names() {
  const auto names = obs::MetricsRegistry::instance().thread_variant_names();
  return {names.begin(), names.end()};
}

std::map<std::string, long long> snapshot_map() {
  std::map<std::string, long long> m;
  for (const auto& mv : obs::MetricsRegistry::instance().snapshot()) {
    m[mv.name] = mv.value;
  }
  return m;
}

// A workload touching every instrumented layer: a mixed-fault campaign
// (engine + guarded decode + repair counters) and a pooled ball gather
// (gather + memo counters), both parameterized by thread count.
void run_workload(int threads) {
  faults::CampaignConfig cc;
  cc.decoder = PipelineId::kOrientation;
  cc.family = faults::GraphFamily::kCycle;
  cc.n = 80;
  cc.trials = 6;
  cc.seed = 3;
  cc.threads = threads;
  (void)faults::run_fault_campaign(cc);

  // A cycle, not a grid: every interior radius-2 view is isomorphic, so the
  // canonical-view memo actually hits (the §8 memo-effectiveness metric).
  const Graph g = make_cycle(100, IdMode::kRandomDense, 21);
  ThreadPool pool(threads);
  const auto balls = gather_balls_by_messages(g, 2, &pool);
  ASSERT_EQ(static_cast<int>(balls.size()), g.n());
  (void)gather_canonical_views(g, 2, {}, &pool);
}

TEST(Telemetry, MetricsDeterministicAcrossThreadCounts) {
  obs::set_enabled(true);

  // The catalog must actually carry the flag on the known-variant metrics —
  // an empty exclusion set would make this test flaky, not green.
  const std::set<std::string> excluded = thread_dependent_names();
  EXPECT_EQ(excluded, (std::set<std::string>{
                          "lad_pool_chunks_total", "lad_pool_threads",
                          "lad_contract_checks_total", "lad_pool_dispatches_total",
                          "lad_pool_dispatch_us_total", "lad_pool_barrier_wait_us_total",
                          "lad_pool_queue_us_total"}));
  for (const auto& name : excluded) {
    EXPECT_TRUE(obs::MetricsRegistry::instance().is_thread_variant(name)) << name;
  }
  EXPECT_FALSE(obs::MetricsRegistry::instance().is_thread_variant("lad_engine_messages_total"));

  std::map<std::string, long long> reference;
  for (const int threads : {1, 2, 8}) {
    obs::MetricsRegistry::instance().reset();
    run_workload(threads);
    auto snap = snapshot_map();
    for (const auto& name : excluded) snap.erase(name);
    if (threads == 1) {
      reference = snap;
      // The workload must actually move the interesting counters, or the
      // comparison below is vacuous.
      EXPECT_GT(reference.at("lad_engine_messages_total"), 0);
      EXPECT_GT(reference.at("lad_campaign_trials_total"), 0);
      EXPECT_GT(reference.at("lad_gather_balls_total"), 0);
      EXPECT_GT(reference.at("lad_gather_cache_hits_total"), 0);
    } else {
      EXPECT_EQ(snap, reference) << "metrics diverged at " << threads << " threads";
    }
  }

  obs::MetricsRegistry::instance().reset();
  obs::set_enabled(false);
}

TEST(Telemetry, OutputsIdenticalWithTelemetryOnAndOff) {
  for (const Pipeline* p : pipelines()) {
    const PipelineConfig cfg;
    const Graph g = p->make_instance(48, 5);

    obs::set_enabled(false);
    const auto adv_off = p->encode(g, cfg);
    const auto out_off = p->decode(g, adv_off, cfg);
    const auto digests_off = p->node_digests(g, out_off);
    ASSERT_TRUE(p->verify(g, out_off, cfg)) << p->name();

    obs::set_enabled(true);
    const auto adv_on = p->encode(g, cfg);
    const auto out_on = p->decode(g, adv_on, cfg);
    const auto digests_on = p->node_digests(g, out_on);
    ASSERT_TRUE(p->verify(g, out_on, cfg)) << p->name();
    obs::set_enabled(false);

    EXPECT_EQ(adv_off.stats(g.n()).total_bits, adv_on.stats(g.n()).total_bits) << p->name();
    EXPECT_EQ(out_off.rounds, out_on.rounds) << p->name();
    EXPECT_EQ(digests_off, digests_on) << "telemetry changed " << p->name() << " outputs";
  }
  obs::MetricsRegistry::instance().reset();
}

TEST(Telemetry, DisabledByDefaultAndCountsNothing) {
  ASSERT_FALSE(obs::enabled());
  obs::MetricsRegistry::instance().reset();
  run_workload(2);
  for (const auto& [name, value] : snapshot_map()) {
    EXPECT_EQ(value, 0) << name << " moved while telemetry was disabled";
  }
}

// --- Chrome trace well-formedness -----------------------------------------

// Pulls `"key":<integer>` or `"key":"string"` out of one JSON object line.
// The exporter emits a fixed key order, but the parser only assumes the
// keys exist.
long long json_int(const std::string& line, const std::string& key) {
  const auto pos = line.find("\"" + key + "\":");
  EXPECT_NE(pos, std::string::npos) << line;
  return std::atoll(line.c_str() + pos + key.size() + 3);
}

std::string json_str(const std::string& line, const std::string& key) {
  const auto pos = line.find("\"" + key + "\":\"");
  EXPECT_NE(pos, std::string::npos) << line;
  const auto start = pos + key.size() + 4;
  return line.substr(start, line.find('"', start) - start);
}

TEST(Telemetry, ChromeTraceIsBalancedAndMonotone) {
  obs::set_enabled(true);
  obs::TraceRecorder::instance().clear();
  run_workload(2);  // spans on the main thread and on pool workers
  const std::string json = obs::TraceRecorder::instance().to_chrome_json();
  obs::set_enabled(false);
  ASSERT_EQ(obs::TraceRecorder::instance().dropped(), 0);

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  std::map<long long, int> depth;                  // tid -> open span depth
  std::map<long long, long long> last_ts;          // tid -> last timestamp
  int events = 0;
  int metadata = 0;
  int counters = 0;
  std::size_t start = 0;
  while ((start = json.find("{\"name\"", start)) != std::string::npos) {
    const auto end = json.find('}', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = json.substr(start, end - start + 1);
    start = end;

    const std::string ph = json_str(line, "ph");
    if (ph == "M") {
      // thread_name metadata (emitted first): no ts, no nesting to check.
      ++metadata;
      continue;
    }
    if (ph == "C") {
      // Flight-recorder counter lanes (§13.6): carry a ts but no nesting;
      // their timestamps come from engine rounds recorded independently of
      // the span stream, so they are excluded from the monotonicity check.
      ++counters;
      continue;
    }
    const long long tid = json_int(line, "tid");
    const long long ts = json_int(line, "ts");
    ASSERT_TRUE(ph == "B" || ph == "E") << line;
    depth[tid] += ph == "B" ? 1 : -1;
    ASSERT_GE(depth[tid], 0) << "E without matching B on tid " << tid;
    if (last_ts.count(tid) != 0u) {
      EXPECT_GE(ts, last_ts[tid]) << "timestamps regressed on tid " << tid;
    }
    last_ts[tid] = ts;
    ++events;
  }
  EXPECT_GT(events, 0);
  // The engine workload records flight-recorder rounds, so the export must
  // carry the three §13.6 counter lanes for Perfetto's round-series view.
  EXPECT_GT(counters, 0) << "no counter (ph C) events in the export";
  EXPECT_NE(json.find("\"round.messages\""), std::string::npos);
  EXPECT_NE(json.find("\"round.bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"round.barrier_wait_us\""), std::string::npos);
  // The pooled workload names its workers, so the export must carry
  // thread_name metadata events (lanes get labels in Perfetto).
  EXPECT_GT(metadata, 0) << "no thread_name metadata events in the export";
  EXPECT_NE(json.find("\"lad-pool-0\""), std::string::npos) << "pool worker lane unnamed";
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
  }
  obs::TraceRecorder::instance().clear();
}

// --- Prometheus round-trip -------------------------------------------------

TEST(Telemetry, PrometheusExportRoundTrips) {
  obs::set_enabled(true);
  obs::MetricsRegistry::instance().reset();
  run_workload(1);
  const std::string text = obs::MetricsRegistry::instance().to_prometheus();
  obs::set_enabled(false);

  // Minimal exposition-format parser: samples are `name value` or
  // `name_bucket{le="X"} value`; comment lines carry HELP/TYPE.
  std::map<std::string, long long> samples;
  std::map<std::string, std::vector<long long>> buckets;  // cumulative, in order
  std::map<std::string, std::vector<std::string>> bucket_les;  // le labels, in order
  std::set<std::string> helped, typed;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "export must end with a newline";
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      helped.insert(line.substr(7, line.find(' ', 7) - 7));
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      typed.insert(line.substr(7, line.find(' ', 7) - 7));
      continue;
    }
    ASSERT_NE(line[0], '#') << "unparsed comment: " << line;
    const auto brace = line.find('{');
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const long long value = std::atoll(line.c_str() + space + 1);
    if (brace != std::string::npos) {
      buckets[line.substr(0, brace)].push_back(value);
      const auto le = line.find("le=\"", brace);
      ASSERT_NE(le, std::string::npos) << line;
      const auto le_start = le + 4;
      bucket_les[line.substr(0, brace)].push_back(
          line.substr(le_start, line.find('"', le_start) - le_start));
    } else {
      samples[line.substr(0, space)] = value;
    }
  }

  // Every registry metric appears, with HELP and TYPE, at its snapshot
  // value (histograms via their _sum/_count expansion).
  for (const auto& mv : obs::MetricsRegistry::instance().snapshot()) {
    ASSERT_TRUE(samples.count(mv.name) != 0u) << mv.name << " missing from export";
    EXPECT_EQ(samples.at(mv.name), mv.value) << mv.name;
    std::string base = mv.name;
    for (const char* suffix : {"_sum", "_count"}) {
      const auto p = base.rfind(suffix);
      if (p != std::string::npos && p == base.size() - std::string(suffix).size()) {
        base = base.substr(0, p);
      }
    }
    EXPECT_TRUE(helped.count(base) != 0u) << "no HELP for " << base;
    EXPECT_TRUE(typed.count(base) != 0u) << "no TYPE for " << base;
  }

  // Histogram buckets are cumulative (non-decreasing) and end at _count.
  ASSERT_TRUE(buckets.count("lad_engine_run_messages_bucket") != 0u);
  for (const auto& [name, cum] : buckets) {
    for (std::size_t i = 1; i < cum.size(); ++i) {
      EXPECT_GE(cum[i], cum[i - 1]) << name << " buckets not cumulative";
    }
    const std::string count_name = name.substr(0, name.size() - 7) + "_count";
    ASSERT_FALSE(cum.empty());
    EXPECT_EQ(cum.back(), samples.at(count_name)) << name;
  }

  // Exposition-spec conformance, pinned: every histogram emits exactly
  // kBuckets bucket lines, the le labels are the power-of-two bounds
  // (1, 2, 4, ..., 2^20) in ascending order, and the mandatory last bucket
  // is le="+Inf" (whose cumulative value the loop above tied to _count).
  for (const auto& [name, les] : bucket_les) {
    ASSERT_EQ(les.size(), static_cast<std::size_t>(obs::Histogram::kBuckets)) << name;
    for (int i = 0; i + 1 < obs::Histogram::kBuckets; ++i) {
      EXPECT_EQ(les[static_cast<std::size_t>(i)], std::to_string(1LL << i)) << name;
    }
    EXPECT_EQ(les.back(), "+Inf") << name;
  }
  obs::MetricsRegistry::instance().reset();
}

// --- Bench JSON schema -----------------------------------------------------

TEST(Telemetry, BenchJsonCarriesSchemaVersionAndMetrics) {
  const auto res = bench::run_bench_suite("smoke", {2}, /*with_metrics=*/true);
  EXPECT_FALSE(res.git_commit.empty());
  EXPECT_FALSE(res.timestamp.empty());
  const std::string json = res.to_json();
  EXPECT_NE(json.find("\"schema_version\": " + std::to_string(obs::kSchemaVersion)),
            std::string::npos);
  EXPECT_NE(json.find("\"git_commit\": "), std::string::npos);
  EXPECT_NE(json.find("\"timestamp\": "), std::string::npos);
  EXPECT_EQ(res.reps, 1);
  EXPECT_NE(json.find("\"reps\": 1"), std::string::npos);
  ASSERT_FALSE(res.cases.empty());
  for (const auto& c : res.cases) {
    for (const auto& r : c.runs) EXPECT_TRUE(r.identical) << c.name;
    EXPECT_EQ(c.det.digest.size(), 16u) << c.name << " digest must be a 64-bit hex fingerprint";
    EXPECT_FALSE(c.metrics.empty()) << c.name << " has no attributed metrics";
    // The metrics belong to the serial run, so they sit on its measured row.
    EXPECT_NE(c.record().measured.front().find("metrics"), nullptr) << c.name;
  }
  EXPECT_FALSE(obs::enabled()) << "bench --trace must restore the telemetry switch";
  obs::MetricsRegistry::instance().reset();
}

}  // namespace
}  // namespace lad
