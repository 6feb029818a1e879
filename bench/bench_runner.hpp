// Batched perf harness behind `lad bench` (DESIGN.md §8).
//
// The google-benchmark binaries (bench_e1..e9, bench_r1) remain the
// fine-grained microbenchmark surface; this runner is the *batched,
// registry-driven* counterpart: each suite runs a batch of pipeline
// workloads through core/pipeline.hpp on a ThreadPool, measures wall time
// at 1 thread and at the requested thread count, checks the outputs are
// byte-identical (the determinism contract of the parallel layer), and
// renders one machine-readable JSON document — no google-benchmark
// dependency, so the CLI can embed it.
//
// Suites: e1..e9 mirror the experiment families of EXPERIMENTS.md (e6 is
// the §8 order-invariance memo, e8 the sparsity sweep, e9 the §1.2 proofs);
// r1 is the fault-campaign suite (parallel trials); gather exercises the
// parallel ball gather; smoke is the fast CI subset.
#pragma once

#include <string>
#include <vector>

#include "graph/source.hpp"
#include "obs/telemetry.hpp"

namespace lad::bench {

struct BenchCaseResult {
  std::string name;  // e.g. "orientation/n=256"
  int n = 0;
  int m = 0;
  int rounds = 0;            // LOCAL rounds of the measured decode (0: n/a)
  double bits_per_node = 0;  // advice cost (0 where no advice is measured)
  long long total_bits = 0;
  double wall_ms_1 = 0;     // wall time of the whole batch at 1 thread (min of reps)
  double wall_ms = 0;       // ... at the requested thread count (min of reps)
  double speedup_vs_1 = 0;  // wall_ms_1 / wall_ms
  bool identical = true;    // multi-thread outputs byte-identical to serial
  /// 64-bit splitmix fingerprint (hex) of the serial output bytes — the
  /// machine-portable structural axis `lad diff` compares exactly.
  std::string digest;
  /// Graph provenance (schema v4), populated on source-driven cases only:
  /// the canonical GraphSource spec this case ran on, and the CSR digest
  /// of the loaded graph (graph_digest_hex) — byte-identical across
  /// load-from-.ladg, in-memory generation, and parallel reconstruction.
  std::string source;
  std::string graph_digest;
  /// Thread count this row measured (schema v5). With a thread list
  /// (`--threads 1,2,4`) each case emits one row per count, named
  /// "case/t=K"; with a single count the name is unchanged.
  int threads = 1;
  /// Hottest profiling phase of the serial run (schema v5; empty unless
  /// with_metrics): obs::top_phase_from_trace() over the case's spans —
  /// provenance for PERF-generated.md, never diffed.
  std::string top_phase;
  /// Measured serial fraction of the serial run (schema v6; negative unless
  /// with_metrics): obs::serial_split_from_trace() over the case's spans —
  /// the Amdahl `s` that bounds the speedup_vs_1 column. Provenance only,
  /// never diffed.
  double serial_fraction = -1;
  /// Telemetry counters attributed to the serial run of this case (empty
  /// unless the suite ran with with_metrics; zero-valued metrics skipped).
  /// With a thread list, only the case's first row carries them.
  std::vector<obs::MetricValue> metrics;
};

struct BenchSuiteResult {
  std::string suite;
  /// Highest thread count measured (max of the thread list).
  int threads = 1;
  /// std::thread::hardware_concurrency at run time — the honest context for
  /// the speedup numbers (a 1-core container cannot show real speedups).
  int hardware_threads = 1;
  /// Document format version (obs::kBenchSchemaVersion) — bump on any
  /// field change so downstream dashboards can dispatch.
  int schema_version = 0;
  /// `git describe --always --dirty` of the built tree (obs::kGitCommit).
  std::string git_commit;
  /// ISO-8601 UTC wall time the suite started.
  std::string timestamp;
  /// Timing repetitions per case (`lad bench --reps K`): one discarded
  /// warmup, then wall_ms_1 / wall_ms are the min over K timed runs.
  int reps = 1;
  std::vector<BenchCaseResult> cases;

  /// Deterministic except for the wall-time and timestamp fields.
  std::string to_json() const;
};

/// Registered suite names, in display order.
std::vector<std::string> bench_suite_names();

/// Runs one suite. `threads` <= 0 means ThreadPool::default_threads().
/// `with_metrics` enables telemetry and attributes per-case counter
/// snapshots (of the serial run) to each case — the `lad bench --trace`
/// path. `reps` > 1 runs one discarded warmup then takes the min wall time
/// over `reps` timed runs per case (the stable-axis timing `lad diff`
/// gates on). Throws on unknown suite names (callers validate via
/// bench_suite_names()).
BenchSuiteResult run_bench_suite(const std::string& suite, int threads,
                                 bool with_metrics = false, int reps = 1);

/// Thread-list variant (`lad bench --threads 1,2,4`): the serial batch is
/// measured once per case, then each listed count re-runs the batch and
/// emits its own "case/t=K" row (single-count lists keep the plain case
/// name), so a scaling curve lands in one JSON document. Entries <= 0 mean
/// ThreadPool::default_threads().
BenchSuiteResult run_bench_suite(const std::string& suite, const std::vector<int>& thread_list,
                                 bool with_metrics = false, int reps = 1);

/// Source-driven bench (`lad bench --graph SPEC[,SPEC...]`): one case per
/// source, each loading/generating the graph and running `pipeline_name`'s
/// encode -> decode -> verify on it. The serial run builds the CSR
/// serially; the multi-thread re-run rebuilds it through
/// Graph::Builder::build(pool), so `identical` certifies the parallel
/// construction determinism contract on that exact graph. Cases record
/// provenance (canonical spec + graph digest, the schema-v4 fields).
/// Throws on an unknown pipeline name (callers validate via
/// find_pipeline()); source load failures surface as GraphIoError.
BenchSuiteResult run_source_bench(const std::vector<GraphSource>& sources,
                                  const std::string& pipeline_name, int threads,
                                  bool with_metrics = false, int reps = 1);

/// Thread-list variant of run_source_bench; see the suite overload above.
BenchSuiteResult run_source_bench(const std::vector<GraphSource>& sources,
                                  const std::string& pipeline_name,
                                  const std::vector<int>& thread_list,
                                  bool with_metrics = false, int reps = 1);

}  // namespace lad::bench
