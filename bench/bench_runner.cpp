#include "bench/bench_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

#include "core/pipeline.hpp"
#include "faults/campaign.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "local/gather.hpp"
#include "obs/export.hpp"
#include "obs/profile.hpp"
#include "obs/stopwatch.hpp"
#include "obs/timeline.hpp"
#include "obs/version.hpp"
#include "util/contracts.hpp"
#include "util/hashing.hpp"
#include "util/thread_pool.hpp"

namespace lad::bench {

Case campaign_case(faults::CampaignConfig cc, const std::string& tag) {
  std::string name = std::string("campaign/") + pipeline(cc.decoder).name() + "/" +
                     faults::to_string(cc.family) + "/n=" + std::to_string(cc.n) + tag;
  auto run = [cc](int threads) {
    faults::CampaignConfig at = cc;
    at.threads = threads;
    const auto s = faults::run_fault_campaign(at);
    CaseRun r;
    r.n = s.n;
    r.m = s.m;
    std::string d = s.to_string();
    for (const auto& rep : s.reports) {
      d += rep.to_string();
      r.rounds = std::max(r.rounds, rep.rounds);
    }
    r.digest = std::move(d);
    r.counters = {{"trials", s.trials},
                  {"faults_injected", static_cast<double>(s.faults_injected)},
                  {"detected", static_cast<double>(s.total_detected)},
                  {"repaired_nodes", static_cast<double>(s.total_repaired_nodes)},
                  {"flagged_nodes", static_cast<double>(s.total_flagged_nodes)},
                  {"trials_output_valid", s.trials_output_valid},
                  {"trials_degraded", s.trials_degraded},
                  {"residual", s.trials_residual},
                  {"silent_corruptions", s.silent_corruptions},
                  {"max_blast_radius", s.max_blast_radius}};
    return r;
  };
  return {std::move(name), std::move(run)};
}

namespace {

using obs::time_ms;

/// Generic registry case: a batch of seeded instances, each taken through
/// encode -> decode -> verify. The batch items fan out over the pool (the
/// "batched execution" axis: LOCAL decoders are internally sequential
/// simulations, but independent instances are embarrassingly parallel).
Case pipeline_case(PipelineId id, int n, int batch) {
  const Pipeline* p = &pipeline(id);
  std::string name = std::string(p->name()) + "/n=" + std::to_string(n);
  auto run = [p, n, batch](int threads) {
    const PipelineConfig cfg;
    struct Slot {
      std::string digest;
      int n = 0;
      int m = 0;
      int rounds = 0;
      AdviceStats stats;
    };
    std::vector<Slot> slots(static_cast<std::size_t>(batch));
    ThreadPool pool(threads);
    pool.for_each(batch, [&](int i) {
      const Graph g = p->make_instance(n, 1000 + static_cast<std::uint64_t>(i));
      const auto adv = p->encode(g, cfg);
      const auto out = p->decode(g, adv, cfg);
      LAD_CHECK_MSG(p->verify(g, out, cfg), p->name() << " decode failed verification");
      auto& s = slots[static_cast<std::size_t>(i)];
      s.n = g.n();
      s.m = g.m();
      s.rounds = out.rounds;
      s.stats = adv.stats(g.n());
      for (const auto& d : p->node_digests(g, out)) {
        s.digest += d;
        s.digest += ';';
      }
    });
    CaseRun r;
    long long nodes = 0;
    for (const auto& s : slots) {
      r.digest += s.digest;
      r.digest += '|';
      r.rounds = std::max(r.rounds, s.rounds);
      r.total_bits += s.stats.total_bits;
      nodes += s.n;
    }
    r.n = slots.empty() ? 0 : slots.front().n;
    r.m = slots.empty() ? 0 : slots.front().m;
    r.bits_per_node = obs::per_node(r.total_bits, nodes);
    return r;
  };
  return {std::move(name), std::move(run)};
}

/// Parallel radius-t ball gather + §8 canonical-view memo on one instance.
Case gather_case(std::string family, int n, int radius) {
  std::string name = "gather/" + family + "/n=" + std::to_string(n) + "/r=" +
                     std::to_string(radius);
  auto run = [family, n, radius](int threads) {
    Graph g;
    if (family == "grid") {
      const int side = std::max(4, static_cast<int>(std::sqrt(static_cast<double>(n))));
      g = make_grid(side, side, IdMode::kRandomDense, 5);
    } else {
      g = make_cycle(n, IdMode::kRandomDense, 5);
    }
    ThreadPool pool(threads);
    const auto balls = gather_balls_by_messages(g, radius, &pool);
    const auto views = gather_canonical_views(g, radius, {}, &pool);
    CaseRun r;
    r.n = g.n();
    r.m = g.m();
    r.rounds = radius + 1;
    std::ostringstream d;
    for (const auto& b : balls) {
      d << b.center << ':' << b.graph.n() << ',' << b.graph.m() << ';';
    }
    for (const int c : views.view_class) d << c << ',';
    d << "distinct=" << views.distinct() << " hits=" << views.memo_hits;
    r.digest = d.str();
    return r;
  };
  return {std::move(name), std::move(run)};
}

/// Source-driven case (`lad bench --graph` and the scale suite): load or
/// generate the graph, then run the stack perfbench measures over it —
/// encode -> decode -> verify -> node_digests -> a 3-round verification
/// echo. Every row does the same work; at `threads` > 1 the echo runs on
/// the pool, so the `identical` verdict certifies the engine's determinism
/// contract. The digest covers the graph, every node digest and the echo's
/// traffic.
Case source_case(const GraphSource& src, const Pipeline* p) {
  std::string name = "source/" + src.spec + "/" + p->name();
  auto run = [src, p](int threads) {
    const LoadedGraph lg = load_graph_source(src);
    const Graph& g = lg.graph;
    PipelineConfig cfg;
    cfg.seed = hash2(1, static_cast<std::uint64_t>(g.n()));
    const auto adv = p->encode(g, cfg);
    const auto out = p->decode(g, adv, cfg);
    LAD_CHECK_MSG(p->verify(g, out, cfg),
                  p->name() << " decode failed verification on " << lg.spec);
    const auto digests = p->node_digests(g, out);
    ThreadPool pool(threads);
    const auto echo = faults::run_verification_echo(g, digests, faults::kEchoRounds,
                                                     /*faults=*/nullptr, &pool);
    LAD_CHECK_MSG(echo.unverified_nodes.empty(),
                  echo.unverified_nodes.size() << " nodes unverified by the echo on " << lg.spec);
    const AdviceStats stats = adv.stats(g.n());
    CaseRun r;
    r.n = g.n();
    r.m = g.m();
    r.rounds = out.rounds;
    r.total_bits = stats.total_bits;
    r.bits_per_node = obs::per_node(stats.total_bits, g.n());
    r.source = lg.spec;
    r.graph_digest = graph_digest_hex(g);
    r.digest = r.graph_digest;
    r.digest += '|';
    for (const auto& d : digests) {
      r.digest += d;
      r.digest += ';';
    }
    r.digest += "|echo " + std::to_string(echo.messages) + ' ' + std::to_string(echo.bytes) + ' ' +
                std::to_string(echo.rounds);
    return r;
  };
  return {std::move(name), std::move(run)};
}

/// Parallel CSR construction over a source's graph: every row rebuilds the
/// loaded graph from its raw edges through Graph::Builder::build(pool), so
/// the `identical` verdict certifies the parallel-construction determinism
/// contract. The digest is the graph digest, where load-from-.ladg and
/// in-memory generation meet.
Case csr_case(const GraphSource& src) {
  std::string name = "csr/" + src.spec;
  auto run = [src](int threads) {
    const LoadedGraph lg = load_graph_source(src);
    const Graph& loaded = lg.graph;
    Graph::Builder b;
    b.reserve(static_cast<std::size_t>(loaded.n()), static_cast<std::size_t>(loaded.m()));
    for (const NodeId id : loaded.raw_ids()) b.add_node(id);
    const auto eu = loaded.raw_edge_u();
    const auto ev = loaded.raw_edge_v();
    for (int e = 0; e < loaded.m(); ++e) {
      b.add_edge(eu[static_cast<std::size_t>(e)], ev[static_cast<std::size_t>(e)]);
    }
    ThreadPool pool(threads);
    const Graph g = std::move(b).build(&pool);
    CaseRun r;
    r.n = g.n();
    r.m = g.m();
    r.source = lg.spec;
    r.graph_digest = graph_digest_hex(g);
    r.digest = r.graph_digest;
    return r;
  };
  return {std::move(name), std::move(run)};
}

std::vector<Case> suite_cases(const std::string& suite) {
  if (auto cases = experiment_cases(suite); !cases.empty()) return cases;
  if (suite == "gather") return {gather_case("grid", 400, 3), gather_case("cycle", 600, 4)};
  if (suite == "scale") {
    // Three decades of n on generated cycles through the source path, each
    // with its parallel CSR rebuild: the parallel axes are the engine's
    // echo and CSR construction. Deliberately not part of "all" — the top
    // point builds a million-node graph.
    std::vector<Case> cases;
    for (const char* spec : {"cycle:4096", "cycle:65536", "cycle:1048576"}) {
      std::string err;
      const auto src = parse_graph_source(spec, &err);
      LAD_CHECK_MSG(src.has_value(), "scale suite spec failed to parse: " << spec << ": " << err);
      cases.push_back(source_case(*src, &pipeline(PipelineId::kOrientation)));
      cases.push_back(csr_case(*src));
    }
    return cases;
  }
  if (suite == "smoke") {
    faults::CampaignConfig cc;
    cc.n = 64;
    cc.trials = 4;
    return {pipeline_case(PipelineId::kOrientation, 96, 2),
            pipeline_case(PipelineId::kDecompress, 96, 2), campaign_case(cc)};
  }
  if (suite == "all") {
    std::vector<Case> all;
    for (const char* s :
         {"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "r1", "b1", "a1"}) {
      auto part = experiment_cases(s);
      for (auto& c : part) all.push_back(std::move(c));
    }
    return all;
  }
  LAD_CHECK_MSG(false, "unknown bench suite: " << suite);
  return {};
}

/// 16-hex-digit splitmix fold of the raw (potentially huge) case digest —
/// platform-independent, cheap to diff, and still byte-sensitive.
std::string fingerprint(const std::string& bytes) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const char c : bytes) h = hash2(h, static_cast<unsigned char>(c));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

std::vector<std::string> bench_suite_names() {
  return {"e1", "e2", "e3", "e4", "e5",     "e6",    "e7",    "e8",
          "e9", "r1", "b1", "a1", "gather", "scale", "smoke", "all"};
}

namespace {

/// One case: min-of-K serial timing, then one timing per listed thread
/// count (digest-compared against the serial run), with optional telemetry
/// attribution. Throws whatever the case throws.
BenchCaseResult measure_case(const Case& c, const std::vector<int>& thread_list, int reps,
                             bool with_metrics) {
  BenchCaseResult res;
  res.name = c.name;
  CaseRun& serial = res.det;
  // Min-of-K timing: one discarded warmup (page-cache / allocator / CPU
  // governor effects land there), then the min over reps timed runs —
  // the most repeatable point statistic of a right-skewed wall-time
  // distribution. Execution is deterministic, so every rep produces the
  // same serial CaseRun and the metric snapshot of the last rep is the
  // metric snapshot of all of them.
  if (reps > 1) c.run(1);
  res.wall_ms_1 = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    if (with_metrics) obs::MetricsRegistry::instance().reset();
    res.wall_ms_1 = std::min(res.wall_ms_1, time_ms([&] { serial = c.run(1); }));
  }
  if (with_metrics) {
    res.metrics = obs::MetricsRegistry::instance().snapshot(/*skip_zero=*/true);
    res.top_phase = obs::top_phase_from_trace();
    res.serial_fraction = obs::serial_split_from_trace().serial_fraction;
    obs::TraceRecorder::instance().clear();
  }
  for (const int t : thread_list) {
    ThreadRun run{t, res.wall_ms_1, 1.0, true};
    if (t > 1) {
      CaseRun parallel;
      run.wall_ms = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < reps; ++rep) {
        run.wall_ms = std::min(run.wall_ms, time_ms([&] { parallel = c.run(t); }));
      }
      run.identical = parallel.digest == serial.digest;
      run.speedup_vs_1 = run.wall_ms > 0 ? res.wall_ms_1 / run.wall_ms : 1.0;
    }
    res.runs.push_back(run);
  }
  serial.digest = fingerprint(serial.digest);
  return res;
}

/// The shared measurement loop behind both the suite registry and the
/// source-driven bench.
BenchSuiteResult run_cases(const std::string& label, std::vector<Case> cases,
                           std::vector<int> thread_list, bool with_metrics, int reps) {
  if (thread_list.empty()) thread_list.push_back(0);
  for (int& t : thread_list) {
    if (t <= 0) t = ThreadPool::default_threads();
  }

  BenchSuiteResult out;
  out.suite = label;
  out.threads = *std::max_element(thread_list.begin(), thread_list.end());
  out.hardware_threads = ThreadPool::default_threads();
  out.git_commit = obs::kGitCommit;
  out.timestamp = obs::iso8601_utc_now();
  out.reps = std::max(1, reps);

  // --trace mode: telemetry on for the whole suite; the registry is reset
  // before each case's serial run and snapshotted right after it, so the
  // JSON attributes each counter delta to exactly one case (the threaded
  // re-runs are excluded — their counters are wiped by the next reset).
  const bool telemetry_was_enabled = obs::enabled();
  if (with_metrics) obs::set_enabled(true);

  for (const auto& c : cases) {
    try {
      out.cases.push_back(measure_case(c, thread_list, out.reps, with_metrics));
    } catch (const std::logic_error& e) {
      // A broken correctness property or a rejected input is a result, not
      // a crash: one error row with no timing.
      BenchCaseResult row;
      row.name = c.name;
      row.error = e.what();
      row.rejected = dynamic_cast<const InadmissibleInput*>(&e) != nullptr;
      out.cases.push_back(std::move(row));
      if (with_metrics) obs::TraceRecorder::instance().clear();
    }
  }
  if (with_metrics) obs::set_enabled(telemetry_was_enabled);
  return out;
}

}  // namespace

BenchSuiteResult run_bench_suite(const std::string& suite, const std::vector<int>& thread_list,
                                 bool with_metrics, int reps) {
  return run_cases(suite, suite_cases(suite), thread_list, with_metrics, reps);
}

BenchSuiteResult run_source_bench(const std::vector<GraphSource>& sources,
                                  const std::string& pipeline_name,
                                  const std::vector<int>& thread_list, bool with_metrics,
                                  int reps) {
  const Pipeline* p = find_pipeline(pipeline_name);
  LAD_CHECK_MSG(p != nullptr, "unknown pipeline: " << pipeline_name);
  std::vector<Case> cases;
  for (const GraphSource& src : sources) cases.push_back(source_case(src, p));
  // The parallel CSR rebuild is a case of its own, measured only when some
  // thread count is parallel (as in run_cases, an empty list or a count of
  // 0 means the machine's default).
  const auto is_parallel = [](int t) { return (t <= 0 ? ThreadPool::default_threads() : t) > 1; };
  const bool parallel = thread_list.empty()
                            ? is_parallel(0)
                            : std::any_of(thread_list.begin(), thread_list.end(), is_parallel);
  if (parallel) {
    for (const GraphSource& src : sources) cases.push_back(csr_case(src));
  }
  return run_cases("source", std::move(cases), thread_list, with_metrics, reps);
}

obs::RunRecord BenchCaseResult::record() const {
  using namespace obs::jsonmini;
  obs::RunRecord rec{name, json_object(), {}};
  if (!error.empty()) {
    rec.deterministic.add("error", json_string(error));
    return rec;
  }
  rec.deterministic.add("n", json_int(det.n))
      .add("m", json_int(det.m))
      .add("rounds", json_int(det.rounds))
      .add("bits_per_node", json_fixed(det.bits_per_node, 4))
      .add("total_bits", json_int(det.total_bits))
      .add("digest", json_string(det.digest));
  if (!det.source.empty()) {
    rec.deterministic.add("source", json_string(det.source))
        .add("graph_digest", json_string(det.graph_digest));
  }
  if (!det.counters.empty()) {
    // %.17g round-trips every double exactly.
    JsonValue counters = json_object();
    for (const auto& [key, value] : det.counters) counters.add(key, json_exact(value));
    rec.deterministic.add("counters", std::move(counters));
  }
  const auto row = [](const ThreadRun& r) {
    return json_object()
        .add("threads", json_int(r.threads))
        .add("wall_ms", json_fixed(r.wall_ms, 3))
        .add("speedup_vs_1", json_fixed(r.speedup_vs_1, 3))
        .add("identical", json_bool(r.identical));
  };
  JsonValue serial = row({1, wall_ms_1, 1.0, true});
  if (!top_phase.empty()) serial.add("top_phase", json_string(top_phase));
  if (serial_fraction >= 0) serial.add("serial_fraction", json_fixed(serial_fraction, 4));
  if (!metrics.empty()) {
    JsonValue m = json_object();
    for (const obs::MetricValue& v : metrics) m.add(v.name, json_int(v.value));
    serial.add("metrics", std::move(m));
  }
  rec.measured.push_back(std::move(serial));
  for (const ThreadRun& r : runs) {
    if (r.threads > 1) rec.measured.push_back(row(r));
  }
  return rec;
}

std::string BenchSuiteResult::to_json() const {
  obs::RunDocument doc{obs::run_metadata(git_commit, timestamp, suite, hardware_threads, reps),
                       {}};
  for (const BenchCaseResult& c : cases) doc.records.push_back(c.record());
  return doc.to_json();
}

}  // namespace lad::bench
