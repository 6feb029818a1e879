// Run-time instruments behind the observed run (DESIGN.md §13): the pool's
// chunk ledger, the per-round flight recorder, and the Amdahl split. The
// run record that reads them lives in obs/profile.hpp.
//
// Three ingredients:
//
//   1. *Chunk ledger.* util/thread_pool.cpp times every chunk once
//      (LAD_TM_WAIT_TIMER) and brackets every parallel dispatch
//      (begin_dispatch/end_dispatch). WaitAccounting keeps per worker the
//      busy time and chunk count since the last reset (thread rows and
//      imbalance of the record) and folds each dispatch into dispatch
//      latency (enqueue -> first chunk start), per-chunk queueing delay,
//      and per-worker barrier wait (own last chunk end -> barrier release).
//      The serial inline path (threads <= 1) never opens a dispatch window,
//      so it reports exactly zero waits.
//   2. *Flight recorder.* local/engine.cpp marks every round
//      (begin_run/begin_round/end_round); the recorder turns the engine's
//      cumulative per-run counters into per-round deltas and stores them in
//      a bounded ring buffer. Each sample carries a deterministic slice
//      (messages, bytes, faults injected, repairs, message-buffer
//      allocation deltas — byte-identical across reruns and thread counts
//      by the §8 contract) and a measured slice (round wall time, pool
//      dispatch latency, per-worker barrier wait, chunk queueing delay,
//      imbalance, critical worker). On a failed chaos cell the ring is
//      dumped post-mortem to stderr (faults/chaos.cpp).
//   3. *Amdahl split.* The six-phase taxonomy splits traced self-time into
//      parallelizable compute vs serial sections (deliver, fault
//      transitions, gather setup, verify, scaffolding). The serial fraction
//      measured at one thread feeds Amdahl's law for the predicted max
//      speedup at each thread count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"

namespace lad::obs {

// ---------------------------------------------------------------------------
// Chunk ledger

/// Folds pool chunk timestamps into per-worker totals and per-dispatch wait
/// attribution. One dispatch window is open at a time (ThreadPool's
/// parallel_for is non-reentrant and serializes dispatches through the pool
/// lock); chunks outside a window — the serial inline path — still count
/// towards the worker totals but never towards waits, so threads=1 reports
/// zero dispatches and zero waits by construction. Worker cells are keyed
/// by the TraceRecorder tid of the executing thread, so record rows line up
/// with trace lanes, and persist across reset() (ids are stable per thread).
class WaitAccounting {
 public:
  /// Aggregate of every dispatch since the last drain (one engine round
  /// performs one compute dispatch, so FlightRecorder drains per round).
  struct Window {
    long long dispatches = 0;
    long long dispatch_us = 0;  // sum of enqueue -> first chunk start
    long long queue_us = 0;     // sum over chunks of enqueue -> chunk start
    long long wait_us = 0;      // sum of per-worker barrier waits
    long long max_wait_us = 0;  // worst single worker barrier wait
    long long busy_us = 0;      // summed chunk execution time
    long long critical_us = 0;  // per dispatch, the busiest worker's time, summed
    long long max_busy_us = 0;  // busiest worker's time in any one dispatch
    int workers = 0;            // most distinct workers in one dispatch
    int critical_tid = -1;      // trace tid of that busiest worker
  };

  /// One worker's totals since the last reset().
  struct Slot {
    int tid = -1;
    long long busy_us = 0;
    long long chunks = 0;
  };

  static WaitAccounting& instance();

  /// Zeroes the worker totals and discards the open window and the folded
  /// aggregates (a rep boundary).
  void reset();

  /// Caller side, parallel path only: marks the enqueue instant.
  void begin_dispatch();
  /// Caller side, after the completion barrier: closes the window, folding
  /// per-worker first-start/last-end into the aggregates. No-op when no
  /// window is open (telemetry enabled mid-dispatch).
  void end_dispatch();

  /// Worker side (WaitChunkTimer): one executed chunk [start_us, end_us].
  void record_chunk(std::uint64_t start_us, std::uint64_t end_us);

  /// Returns the folded aggregates and zeroes them (round boundary).
  Window drain_window();

  /// Workers that executed at least one chunk since reset(), tid ascending.
  std::vector<Slot> slots() const;

 private:
  struct WorkerCell;
  WorkerCell& local_cell();
  void fold_open_window_locked(std::uint64_t now_us);

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<WorkerCell>> cells_;
  std::atomic<std::uint64_t> epoch_{0};     // dispatch id; cells self-reset on change
  std::atomic<std::uint64_t> begin_us_{0};  // enqueue instant of the open dispatch
  std::atomic<bool> open_{false};
  Window window_;
};

/// RAII timer around one pool chunk, feeding WaitAccounting. Inactive while
/// telemetry is runtime-disabled (latched at construction, like Span).
class WaitChunkTimer {
 public:
  WaitChunkTimer();
  ~WaitChunkTimer();
  WaitChunkTimer(const WaitChunkTimer&) = delete;
  WaitChunkTimer& operator=(const WaitChunkTimer&) = delete;

 private:
  std::uint64_t begin_us_ = 0;
  bool active_ = false;
};

// ---------------------------------------------------------------------------
// Flight recorder

/// One recorded round. The deterministic fields are per-round *deltas* of
/// the engine's cumulative per-run counters; the measured fields come from
/// the wall clock and WaitAccounting.
struct RoundSample {
  long long run_id = 0;  // process-wide monotone run number
  long long round = 0;   // 1-based round index within the run

  // Deterministic slice (§8: byte-identical across reruns/thread counts).
  long long messages = 0;     // messages delivered this round
  long long bytes = 0;        // payload bytes delivered this round
  long long faults = 0;       // engine faults injected this round
  long long repairs = 0;      // crashed nodes recovered this round
  long long allocs = 0;       // message buffers allocated this round
  long long alloc_bytes = 0;  // bytes in those buffers

  // Measured slice (scheduling-dependent; never diffed exactly).
  double wall_ms = 0;        // round wall time
  double dispatch_us = 0;    // pool dispatch latency this round
  double queue_us = 0;       // summed chunk queueing delay
  double wait_us = 0;        // summed per-worker barrier wait
  double max_wait_us = 0;    // worst single worker barrier wait
  int workers = 0;           // pool workers that executed chunks
  double imbalance = 1.0;    // max busy / mean busy (1.0 under 2 workers)
  int critical_tid = -1;     // busiest worker's trace tid (critical path)
  std::uint64_t ts_us = 0;   // trace-epoch time at round end (counter lanes)
};

/// Bounded flight recorder: a process-wide ring of the most recent
/// kRingCapacity round samples. Per-run cursors are thread-local (chaos
/// campaigns run engines concurrently on pool workers); the ring itself is
/// shared and mutex-guarded. Overwritten samples are counted, never silent.
class FlightRecorder {
 public:
  static constexpr std::size_t kRingCapacity = 4096;

  static FlightRecorder& instance();

  /// Forgets all samples and the overwrite count (run ids keep advancing).
  void clear();

  /// Starts a new run on the calling thread: allocates a run id, snapshots
  /// the allocation counters, and discards any stale wait window.
  void begin_run();

  /// Marks the start of one round (timestamp + allocation snapshot).
  void begin_round();

  /// Records one finished round. The engine passes its *cumulative* per-run
  /// totals; the recorder differences them against the previous round.
  void end_round(long long round, long long cum_messages, long long cum_bytes,
                 long long cum_faults, long long cum_repairs);

  /// Samples currently held, oldest first.
  std::vector<RoundSample> samples() const;

  /// Rounds overwritten because the ring was full.
  long long dropped() const;

  /// Post-mortem dump: the most recent `max_rounds` samples as aligned
  /// text, prefixed by `reason`. Used on failed chaos cells and safe to
  /// call from any thread.
  void dump(std::ostream& os, const std::string& reason,
            std::size_t max_rounds = 32) const;

 private:
  struct RunCursor {
    long long run_id = 0;
    std::uint64_t round_begin_us = 0;
    long long prev_messages = 0;
    long long prev_bytes = 0;
    long long prev_faults = 0;
    long long prev_repairs = 0;
    long long alloc_base = 0;        // core().alloc_msgbuf at round start
    long long alloc_bytes_base = 0;  // core().alloc_msgbuf_bytes at round start
  };

  RunCursor& cursor();
  void push(const RoundSample& s);

  mutable std::mutex mu_;
  std::vector<RoundSample> ring_;
  std::size_t head_ = 0;  // index of the oldest sample once full
  long long dropped_ = 0;
  std::atomic<long long> next_run_id_{0};
};

// ---------------------------------------------------------------------------
// Amdahl split

/// Traced self-time split into the taxonomy's parallelizable compute phase
/// vs everything serial (message exchange, fault transitions, gather setup,
/// verify, scaffolding).
struct SerialSplit {
  double serial_ms = 0;
  double compute_ms = 0;
  /// serial / (serial + compute); 0 when nothing was traced.
  double serial_fraction = 0;
};

/// Computes the split from the recorder's current events (stack-replay
/// self-times). Measured at one thread this is the Amdahl serial fraction
/// of the run.
SerialSplit serial_split_from_trace();

/// Amdahl's law: max speedup 1 / (s + (1 - s) / T) for serial fraction `s`
/// at `T` threads. T < 1 is treated as 1; s is clamped to [0, 1].
double amdahl_speedup(double serial_fraction, int threads);

}  // namespace lad::obs

// ---------------------------------------------------------------------------
// Chunk-timing hook for util/thread_pool.cpp, beside the LAD_TM_* macros
// in telemetry.hpp.
#define LAD_TM_WAIT_TIMER(var) ::lad::obs::WaitChunkTimer var
