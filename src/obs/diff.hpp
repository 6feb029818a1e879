// The run document and its differ (DESIGN.md §9.7, §13.7): the one JSON
// layout `lad bench --json` and `lad profile --json` write, the one parser
// and the one differ behind `lad diff` and `lad report`'s perf trajectory.
//
// A document is metadata (schema_version, git_commit, timestamp, suite,
// hardware_threads, reps) plus "records", each
//
//   {"name": ..., "deterministic": {...}, "measured": [{"threads": K, "wall_ms": ..., ...}]}
//
// and the differ grades the two halves by their nature without knowing any
// key inside them:
//
//   * every leaf under "deterministic" is contract: the same source at the
//     same seeds reproduces it byte-for-byte on any machine, so it compares
//     exactly, by its written token. Any difference is a MISMATCH (exit 4)
//     named by its path ("digest", "counters.ones_ratio",
//     "rounds[2].messages"); so are `suite` and the record-name set;
//   * each thread count present in both records is timed on "wall_ms": a
//     candidate slower than baseline + max(tol_ms, tol_rel·baseline) is a
//     REGRESSION (exit 3). Every other measured key is provenance.
//
// Producers own their keys: a new field is a writer-only edit.
//
// Exit-code contract (machine-checkable; CI gates on >= 3):
//   0 clean · 3 timing regression · 4 structural/digest mismatch
//   (the CLI maps parse/usage errors to 2, like every other lad command).
#pragma once

#include <string>
#include <vector>

#include "obs/json_mini.hpp"

namespace lad::obs {

/// One record: a bench case or an observed run.
struct RunRecord {
  std::string name;
  /// An object; an error row's is {"error": message}.
  jsonmini::JsonValue deterministic;
  /// Objects, each with a "threads" count and a "wall_ms" time; none on an
  /// error row.
  std::vector<jsonmini::JsonValue> measured;
};

struct RunDocument {
  /// The metadata keys, in order (run_metadata()); only "suite" is graded.
  jsonmini::JsonValue meta;
  std::vector<RunRecord> records;

  std::string to_json() const;
};

/// The metadata object of a schema-kSchemaVersion document.
jsonmini::JsonValue run_metadata(const std::string& git_commit, const std::string& timestamp,
                                 const std::string& suite, int hardware_threads, int reps);

/// Parses a run document. Throws std::runtime_error on malformed JSON, a
/// schema_version other than kSchemaVersion, or a record without a name,
/// a deterministic object or measured rows carrying threads and wall_ms.
RunDocument parse_run_document(const std::string& text);

/// One named document for the perf-trajectory table.
struct BenchGeneration {
  std::string label;  // provenance, e.g. the file name "BENCH_pr3.json"
  RunDocument doc;
};

/// Markdown perf-trajectory table: one row per record name (union across
/// generations, first-seen order), one column per generation's 1-thread
/// `wall_ms`; records absent from a generation render as "—". Wall times
/// are machine-dependent, so the table is provenance for humans, never
/// diffed.
std::string perf_trajectory_markdown(const std::vector<BenchGeneration>& generations);

enum class DiffStatus {
  kClean = 0,
  kRegression = 3,  // timing outside tolerance
  kMismatch = 4,    // deterministic leaf / record set / suite diverged
};

struct DiffOptions {
  /// Absolute wall-time slack in milliseconds.
  double tol_ms = 250.0;
  /// Relative wall-time slack as a fraction of the baseline time.
  double tol_rel = 0.75;
};

struct Finding {
  std::string where;   // record name, "" = document
  std::string field;   // path of what diverged
  std::string detail;  // human-readable one-liner
  DiffStatus severity = DiffStatus::kMismatch;
};

struct DiffResult {
  std::vector<Finding> findings;  // empty = clean
  int compared = 0;               // timed rows compared

  /// Worst severity across findings — the process exit code.
  DiffStatus status() const;
  std::string to_text() const;
  std::string to_json() const;

  /// The exact comparator: any difference is a MISMATCH.
  void exact(const std::string& where, const std::string& field, const std::string& baseline,
             const std::string& candidate);
  /// Every leaf of two JSON values through exact(), named by its path under
  /// `path`; an array length or a key present on one side only is one
  /// finding of its own.
  void exact_tree(const std::string& where, const std::string& path,
                  const jsonmini::JsonValue& baseline, const jsonmini::JsonValue& candidate);
  /// The timing gate: a candidate above baseline + max(tol_ms,
  /// tol_rel·baseline) is a REGRESSION. Counts one compared row.
  void timing(const std::string& where, const std::string& field, double baseline_ms,
              double candidate_ms, const DiffOptions& opts);
};

DiffResult diff_run_documents(const RunDocument& baseline, const RunDocument& candidate,
                              const DiffOptions& opts = {});

/// `lad diff`: parses both documents and grades them. Throws
/// std::runtime_error on a parse error.
DiffResult diff_documents(const std::string& baseline, const std::string& candidate,
                          const DiffOptions& opts = {});

}  // namespace lad::obs
