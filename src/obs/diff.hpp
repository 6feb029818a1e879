// The differ behind `lad diff` (DESIGN.md §9.7): one structural diff for
// both document kinds this repo writes — `lad bench --json` documents and
// `lad profile --json` run records (obs/profile.hpp).
//
// Both kinds separate two sorts of fields and the diff treats them
// accordingly:
//
//   * *Deterministic* fields — bench: the case set, n/m, decode rounds,
//     advice bits, output digest, per-case counters, an error row's
//     message; run record: the whole "deterministic" object — are contract: any change is a structural MISMATCH (exit 4),
//     because the same source at the same seeds must reproduce them
//     byte-for-byte on any machine.
//   * *Timing* fields — bench: wall_ms_1t per case; run record: total_ms
//     per thread count — are compared with tolerance (absolute --tol-ms
//     plus relative --tol-rel slack); a candidate slower than
//     baseline + max(tol_ms, tol_rel·baseline) is a REGRESSION (exit 3).
//     The bench gates the serial time, not the threaded one: min-of-K
//     serial timing (bench --reps) is the stable axis, thread scheduling
//     noise is not.
//
// Exit-code contract (machine-checkable; CI gates on >= 3):
//   0 clean · 3 timing regression · 4 structural/digest mismatch
//   (the CLI maps parse/usage errors and a bench-vs-run pair to 2, like
//   every other lad command).
//
// The parsers accept exactly the JSON subset our own writers emit, field
// order free; they reject anything else loudly rather than guessing.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace lad::obs {

/// One parsed bench case row. `digest` is empty on schema-v2 documents
/// (pre-digest); the diff then skips digest comparison for that case.
struct BenchCaseRow {
  std::string name;
  int n = 0;
  int m = 0;
  int rounds = 0;
  double bits_per_node = 0;
  long long total_bits = 0;
  double wall_ms_1 = 0;
  double wall_ms = 0;
  std::string digest;
  /// Graph provenance (schema v4, source-driven cases only; empty
  /// otherwise): when present in both documents they are deterministic
  /// fields — a diverged source spec or graph digest is a MISMATCH.
  std::string source;
  std::string graph_digest;
  /// Per-case thread count (schema v5; defaults to 1 on older documents).
  /// Informational — `--threads 1,2,4` scaling rows are named "case/t=K",
  /// so the case-set comparison already keys on thread count.
  int threads = 1;
  /// Hottest profiling phase during the serial reps (schema v5, metrics
  /// runs only; empty otherwise). Provenance, not contract: never diffed —
  /// timing attribution may legitimately shift between machines.
  std::string top_phase;
  std::map<std::string, long long> metrics;
  /// The case's own measurements (schema v7), in document order.
  std::vector<std::pair<std::string, double>> counters;
  /// Non-empty on an error row (schema v7), which carries no other field.
  std::string error;
};

struct BenchDoc {
  int schema_version = 0;
  std::string git_commit;
  std::string timestamp;
  std::string suite;
  int threads = 0;
  int hardware_threads = 0;
  int reps = 1;  // schema v3; defaults to 1 on older documents
  std::vector<BenchCaseRow> cases;
};

/// Parses a bench JSON document. Throws std::runtime_error on malformed
/// input or schema_version < 2.
BenchDoc parse_bench_json(const std::string& text);

/// Lenient variant for the perf-trajectory table (`lad report`): accepts
/// every schema generation back to the v1 documents that predate
/// schema_version (missing document/case fields default instead of
/// throwing; a v1 document parses as schema_version 1). Still throws on
/// malformed JSON or a case without a name — the lenience is about schema
/// evolution, not syntax.
BenchDoc parse_bench_json_lenient(const std::string& text);

/// One named bench generation for the perf-trajectory table.
struct BenchGeneration {
  std::string label;  // provenance, e.g. the file name "BENCH_pr3.json"
  BenchDoc doc;
};

/// Markdown perf-trajectory table: one row per case name (union across
/// generations, first-seen order), one column per generation's serial
/// min-of-reps wall time (`wall_ms_1t`); cases absent from a generation
/// render as "—". Wall times are machine-dependent, so the table is
/// provenance for humans, never diffed.
std::string perf_trajectory_markdown(const std::vector<BenchGeneration>& generations);

enum class DiffStatus {
  kClean = 0,
  kRegression = 3,  // timing outside tolerance
  kMismatch = 4,    // deterministic field / case set / digest diverged
};

struct DiffOptions {
  /// Absolute wall-time slack in milliseconds.
  double tol_ms = 250.0;
  /// Relative wall-time slack as a fraction of the baseline time.
  double tol_rel = 0.75;
};

struct Finding {
  std::string where;   // bench case name, "t=K" for a run row, "" = document
  std::string field;   // which field diverged
  std::string detail;  // human-readable one-liner
  DiffStatus severity = DiffStatus::kMismatch;
};

struct DiffResult {
  std::vector<Finding> findings;  // empty = clean
  int compared = 0;               // timed rows compared (cases / thread counts)

  /// Worst severity across findings — the process exit code.
  DiffStatus status() const;
  std::string to_text() const;
  std::string to_json() const;

  /// The exact-field comparator: any difference is a MISMATCH.
  void exact(const std::string& where, const std::string& field, const std::string& baseline,
             const std::string& candidate);
  void exact(const std::string& where, const std::string& field, long long baseline,
             long long candidate);
  /// The timing gate: a candidate above baseline + max(tol_ms,
  /// tol_rel·baseline) is a REGRESSION. Counts one compared row.
  void timing(const std::string& where, const std::string& field, double baseline_ms,
              double candidate_ms, const DiffOptions& opts);
};

DiffResult diff_bench(const BenchDoc& baseline, const BenchDoc& candidate,
                      const DiffOptions& opts = {});

/// `lad diff`: parses both documents, which must be of the same kind
/// (bench v2+ documents or run records), and grades them. Throws
/// std::runtime_error on a parse error or a bench-vs-run pair.
DiffResult diff_documents(const std::string& baseline, const std::string& candidate,
                          const DiffOptions& opts = {});

}  // namespace lad::obs
