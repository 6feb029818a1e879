// The perf and experiment harness behind `lad bench` (DESIGN.md §8).
//
// Every suite is a list of cases run through one measurement loop: each
// case runs once serially (min of K timed reps), then once per listed
// thread count, and the runner checks that every run produced the same
// output bytes (the determinism contract of the parallel layer). The
// result renders as one run document (obs/diff.hpp), one record per case,
// that `lad diff` grades against a baseline.
//
// Suites: e1..e9, r1, b1 and a1 are the EXPERIMENTS.md rows, one case per
// row (bench/experiments.cpp): the paper's quantities land in the row
// fields and in per-case counters, and a row whose correctness property
// fails becomes an error row. gather exercises the parallel ball gather,
// scale the parallel CSR build over three decades of n, and smoke is the
// fast CI subset; `all` runs the experiment suites.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "faults/campaign.hpp"
#include "graph/source.hpp"
#include "obs/diff.hpp"
#include "obs/telemetry.hpp"

namespace lad::bench {

/// Named measurements of one case beyond the fixed record fields, in
/// insertion order: clusters, ones ratio, fault counts, ...
using Counters = std::vector<std::pair<std::string, double>>;

/// One execution of a case: everything the runner compares across thread
/// counts and reports, minus the timing.
struct CaseRun {
  std::string digest;  // byte-deterministic output rendering
  int n = 0;
  int m = 0;
  int rounds = 0;            // LOCAL rounds of the measured decode (0: n/a)
  double bits_per_node = 0;  // advice cost (0 where no advice is measured)
  long long total_bits = 0;
  /// Graph provenance, on source-driven cases only: the canonical
  /// GraphSource spec this case ran on, and the CSR digest of the loaded
  /// graph (graph_digest_hex) — byte-identical across load-from-.ladg,
  /// in-memory generation, and parallel reconstruction.
  std::string source;
  std::string graph_digest;
  /// The case's own measurements: deterministic, compared exactly by
  /// `lad diff`.
  Counters counters;
};

/// A named case; run(threads) executes it at that pool size.
struct Case {
  std::string name;
  std::function<CaseRun(int threads)> run;
};

/// One listed thread count's timing of a case.
struct ThreadRun {
  int threads = 1;
  double wall_ms = 0;       // min of reps
  double speedup_vs_1 = 0;  // wall_ms_1 / wall_ms
  bool identical = true;    // outputs byte-identical to the serial run
};

struct BenchCaseResult {
  std::string name;  // e.g. "orientation/n=256"
  /// The serial run; its digest is the 64-bit splitmix fingerprint (hex) of
  /// the output bytes — the machine-portable axis `lad diff` compares.
  CaseRun det;
  /// Non-empty on an error row: the message of the ContractViolation or
  /// (`rejected`) InadmissibleInput the case threw. An error row has no
  /// timing.
  std::string error;
  bool rejected = false;
  /// Wall time of the whole batch at 1 thread (min of reps).
  double wall_ms_1 = 0;
  /// One timing per listed thread count, in list order.
  std::vector<ThreadRun> runs;
  /// Hottest profiling phase of the serial run (empty unless with_metrics):
  /// obs::top_phase_from_trace() over the case's spans.
  std::string top_phase;
  /// Measured serial fraction of the serial run (negative unless
  /// with_metrics): obs::serial_split_from_trace() over the case's spans —
  /// the Amdahl `s` that bounds the speedup_vs_1 column.
  double serial_fraction = -1;
  /// Telemetry counters attributed to the serial run (empty unless the
  /// suite ran with with_metrics; zero-valued metrics skipped).
  std::vector<obs::MetricValue> metrics;

  /// The case's run-document record: `det` (or {"error"}) as the
  /// deterministic object; as measured rows the serial run (with the
  /// metrics-run provenance), then each listed count above 1.
  obs::RunRecord record() const;
};

struct BenchSuiteResult {
  std::string suite;
  /// Highest thread count measured (max of the thread list).
  int threads = 1;
  /// std::thread::hardware_concurrency at run time — the honest context for
  /// the speedup numbers (a 1-core container cannot show real speedups).
  int hardware_threads = 1;
  /// `git describe --always --dirty` of the built tree (obs::kGitCommit).
  std::string git_commit;
  /// ISO-8601 UTC wall time the suite started.
  std::string timestamp;
  /// Timing repetitions per case (`lad bench --reps K`): one discarded
  /// warmup, then every wall time is the min over K timed runs.
  int reps = 1;
  std::vector<BenchCaseResult> cases;

  /// The run document (obs/diff.hpp): one record per case. Deterministic
  /// except for the wall-time and timestamp fields.
  std::string to_json() const;
};

/// Fault-campaign case named "campaign/<pipeline>/<family>/n=<n><tag>": the
/// campaign's parallel trial runner is the measured axis (cc.threads is
/// set per run), its summary counts are the counters, and the digest folds
/// in every per-trial report.
Case campaign_case(faults::CampaignConfig cc, const std::string& tag = {});

/// The EXPERIMENTS.md suites e1..e9, r1, b1 and a1, one case per row
/// (bench/experiments.cpp); empty for any other name.
std::vector<Case> experiment_cases(const std::string& suite);

/// Registered suite names, in display order.
std::vector<std::string> bench_suite_names();

/// Runs one suite (`lad bench <suite> --threads 1,2,4`): each case is
/// measured serially, then each listed count above 1 re-runs it, so a
/// scaling curve lands in one record. Entries <= 0 mean
/// ThreadPool::default_threads(). `with_metrics` enables telemetry and
/// attributes per-case counter snapshots (of the serial run) to each case —
/// the `lad bench --trace` path. `reps` > 1 runs one discarded warmup then
/// takes the min wall time over `reps` timed runs per case (the stable-axis
/// timing `lad diff` gates on). A case that throws ContractViolation or
/// InadmissibleInput becomes one error row and the suite goes on. Throws on
/// unknown suite
/// names (callers validate via bench_suite_names()).
BenchSuiteResult run_bench_suite(const std::string& suite, const std::vector<int>& thread_list,
                                 bool with_metrics = false, int reps = 1);

/// Source-driven bench (`lad bench --graph SPEC[,SPEC...]`): one case per
/// source, each loading/generating the graph and running `pipeline_name`'s
/// encode -> decode -> verify on it. The serial run builds the CSR
/// serially; the multi-thread re-run rebuilds it through
/// Graph::Builder::build(pool), so `identical` certifies the parallel
/// construction determinism contract on that exact graph. Cases record
/// provenance (canonical spec + graph digest); a pipeline that rejects a
/// graph yields an error row. Throws on an unknown
/// pipeline name (callers validate via find_pipeline()); source load
/// failures surface as GraphIoError.
BenchSuiteResult run_source_bench(const std::vector<GraphSource>& sources,
                                  const std::string& pipeline_name,
                                  const std::vector<int>& thread_list,
                                  bool with_metrics = false, int reps = 1);

}  // namespace lad::bench
