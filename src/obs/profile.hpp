// The observed-run record (DESIGN.md §13): what `lad profile` writes,
// renders and `lad diff` grades — one record type over one observed run of
// a pipeline, read off the §9 Span/MetricsRegistry machinery and the
// obs/timeline.hpp instruments.
//
// Three ingredients:
//
//   1. *Phase attribution.* Every span name in span_name_catalog() maps to
//      one of six fixed phases (gather / compute / message-exchange /
//      fault-transition / verify / other). Self-time is computed by stack
//      replay over each thread's balanced B/E stream: a span's self-time is
//      its duration minus the durations of its direct children, so summing
//      self-time over all cells reproduces total traced time exactly once.
//      Summed across threads it is CPU time, which can exceed wall time.
//   2. *Allocation accounting.* Deterministic counting hooks — not
//      allocator interposition — around per-round message buffers
//      (local/engine.cpp) and serialized ball gathers (local/gather.cpp).
//      Their increment multisets are thread-count-invariant, so allocation
//      rows are part of the record's deterministic contract.
//   3. *Per-thread-count rows.* Each listed thread count contributes one
//      measured row: phase and phase × thread self-times, thread rows from
//      the chunk ledger, imbalance, the Amdahl serial split and speedups,
//      and the per-round wait series of the flight recorder.
//
// The record separates *deterministic structure* (identity, allocation
// rows, per-round deltas — byte-identical across reruns and thread counts;
// what `lad diff` gates exactly, exit 4) from *measured timings* (compared
// only with tolerance, exit 3). It is written as a one-record run document
// (obs/diff.hpp), the layout bench documents share.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"

namespace lad::obs {

/// The six phases, in canonical (report) order. The last entry, "other",
/// absorbs spans outside the explicit mapping (harness scaffolding).
const std::vector<std::string>& phase_taxonomy();

/// Maps a span name from span_name_catalog() to its phase. Unknown names
/// fall into "other" — the taxonomy is total by construction.
std::string phase_of_span(const std::string& span_name);

// ---------------------------------------------------------------------------
// Self-time attribution

/// One (phase, tid) accumulator from stack replay.
struct CellAccum {
  long long self_us = 0;
  long long spans = 0;
};

/// Replays each thread's B/E stream with an explicit stack and returns
/// self-time per (phase, tid). Unbalanced leftovers (spans still open when
/// the snapshot was taken) are ignored rather than guessed at.
std::map<std::pair<std::string, int>, CellAccum> self_times_by_cell(
    const std::vector<std::pair<int, std::vector<TraceEvent>>>& events_by_thread);

/// Phase with the largest summed self-time across the recorder's current
/// events; empty when nothing was traced. Bench uses this for per-case
/// top-phase provenance (schema v5).
std::string top_phase_from_trace();

/// Warmup discipline of the observed run (--reps K), matching `lad bench`:
/// one discarded warmup run before the timed min-of-K loop when K > 1,
/// none for a single-rep run. Pinned by tests/test_profile.cpp.
constexpr int profile_warmup_runs(int reps) { return reps > 1 ? 1 : 0; }

/// 16-hex order-sensitive fingerprint of a string sequence (splitmix64
/// folding; self-contained so obs stays stdlib-only). The observed run uses
/// it for the output digest over per-node output labels.
std::string fingerprint_hex(const std::vector<std::string>& parts);

// ---------------------------------------------------------------------------
// Record

/// Deterministic allocation totals for one phase (taxonomy order).
struct PhaseAlloc {
  std::string phase;
  long long allocs = 0;
  long long alloc_bytes = 0;
};

/// Deterministic per-round delta row of the flight recorder.
struct RoundDelta {
  long long round = 0;
  long long messages = 0;
  long long bytes = 0;
  long long faults = 0;
  long long repairs = 0;
  long long allocs = 0;
  long long alloc_bytes = 0;
};

/// Everything that must be byte-identical across reruns and thread counts
/// (§8 contract): the 12-field run identity, the six per-phase allocation
/// rows, and the per-round delta series.
struct RunDeterministic {
  std::string pipeline;
  std::string source;        // GraphSource spec, §12 grammar
  std::string graph_digest;  // 16-hex Graph::digest()
  long long n = 0;
  long long m = 0;
  std::uint64_t seed = 1;
  long long decode_rounds = 0;
  bool verify_ok = false;
  std::string output_digest;  // 16-hex fingerprint of per-node outputs
  long long advice_bits = 0;
  long long engine_messages = 0;
  long long engine_message_bits = 0;
  std::vector<PhaseAlloc> phases;  // taxonomy order, all six phases
  std::vector<RoundDelta> rounds;  // round order
};

/// Measured per-phase timing row, ranked by self_ms descending.
struct PhaseTime {
  std::string phase;
  double self_ms = 0;
  double pct = 0;  // share of summed self-time, 0..100
  long long spans = 0;
};

/// Measured phase × thread cost-center cell, ranked by self_ms descending.
struct CostCell {
  std::string phase;
  int tid = 0;
  double self_ms = 0;
  long long spans = 0;
};

/// Measured per-thread utilization row (main thread + pool workers).
struct ThreadRow {
  int tid = 0;
  std::string name;  // from TraceRecorder::thread_names(); "" if unnamed
  double busy_ms = 0;
  double idle_ms = 0;
  long long chunks = 0;
  long long steal = 0;  // chunks beyond an even share (static partition = 0)
};

/// Measured per-round row: wall time and the pool's wait attribution.
struct RoundWait {
  long long round = 0;
  double wall_ms = 0;
  double dispatch_us = 0;
  double queue_us = 0;
  double wait_us = 0;
  double max_wait_us = 0;
  int workers = 0;
  double imbalance = 1.0;
  int critical_tid = -1;
};

/// One measured row: the last rep at one thread count.
struct RunMeasured {
  int threads = 1;
  double total_ms = 0;  // min-of-reps end-to-end wall time ("wall_ms" in JSON)
  double imbalance = 1.0;
  double serial_ms = 0;
  double compute_ms = 0;
  double serial_fraction = 0;        // this row's own split
  double predicted_max_speedup = 1;  // Amdahl at the 1-thread serial fraction
  double measured_speedup = 0;       // 1-thread total_ms / this total_ms
  std::vector<PhaseTime> phases;
  std::vector<CostCell> cells;
  std::vector<ThreadRow> thread_rows;
  std::vector<RoundWait> rounds;
  long long trace_events = 0;
  long long trace_dropped = 0;
  long long flight_dropped = 0;
};

struct RunReport {
  RunDeterministic det;
  std::vector<RunMeasured> runs;  // ascending thread count
  int reps = 1;
  std::string git_commit;
  std::string timestamp;
  int hardware_threads = 1;

  /// Adds one thread count's row. The first call sets the deterministic
  /// slice; every later one must match it exactly — a divergence is a §8
  /// violation and throws std::runtime_error. Recomputes the Amdahl
  /// columns of every row.
  void add_run(const RunDeterministic& slice, RunMeasured row);

  /// The record's "deterministic" object: the byte-stable slice CI diffs
  /// across thread counts.
  std::string deterministic_json() const;
  /// A one-record run document (suite "profile", record named after the
  /// pipeline).
  std::string to_json() const;
  /// Amdahl summary, round series, and per-thread-count cost centers
  /// (PERF page).
  std::string to_markdown() const;
};

/// Zeroes every instrument the record reads (a rep boundary): metrics,
/// trace buffers, the chunk ledger, and the flight recorder.
void reset_instruments();

/// Reads the instruments after one rep at `threads`: fills `slice`'s
/// engine message totals, allocation rows and round series, and returns
/// the measured row.
RunMeasured capture_instruments(int threads, double total_ms, RunDeterministic& slice);

}  // namespace lad::obs
