// Telemetry core: metrics registry + RAII span tracer (DESIGN.md §9).
//
// The paper states every quantitative claim in observable units — rounds,
// messages, bits of advice per node, ball radii — and "Message Reduction in
// the LOCAL Model is a Free Lunch" (Bitton et al.) makes message/bit volume
// a complexity measure of its own, distinct from rounds. This layer turns
// those units into one instrumented source of truth: counters/gauges/
// histograms with deterministic registration order, plus begin/end spans
// collected into per-thread buffers, exportable as a Chrome trace_event
// JSON (chrome://tracing / Perfetto), a flat JSONL log, or Prometheus text
// (obs/export.hpp).
//
// Contract with the rest of the system, in priority order:
//
//   1. *Telemetry never influences outputs.* Instrumentation only reads
//      program state; enabling it must not change a single node digest
//      (tests/test_telemetry.cpp pins this for all six registry pipelines,
//      and the §8 byte-identity determinism contract stays intact).
//   2. *Near-zero overhead when disabled.* Every hook is gated on one
//      relaxed atomic load (telemetry is off by default; `lad profile` /
//      `lad bench --trace` switch it on).
//   3. *Thread safety without determinism loss.* Counters are relaxed
//      atomics — increments commute, so totals that aggregate a
//      thread-count-independent multiset of increments (engine messages,
//      campaign faults, advice bits) are byte-identical at any thread
//      count. Spans land in thread-local buffers; their interleaving is
//      scheduling-dependent by nature, but per-thread order and B/E balance
//      are stable per run.
//
// This library sits below util/ (contracts.hpp counts checks through it),
// so it depends on nothing but the standard library.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lad::obs {

/// Runtime master switch. Off by default; enabling it materializes the core
/// metric catalog (so exports list every metric even at value 0).
void set_enabled(bool on);

inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}
inline bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Metrics

/// Monotone counter. add() is a relaxed atomic fetch-add: increments
/// commute, so totals are deterministic whenever the multiset of increments
/// is (which every serial-phase metric in this repository guarantees).
class Counter {
 public:
  void add(long long delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  long long value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> v_{0};
};

/// Last-writer-wins instantaneous value (thread counts, configured sizes).
class Gauge {
 public:
  void set(long long v) { v_.store(v, std::memory_order_relaxed); }
  long long value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> v_{0};
};

/// Power-of-two-bucket histogram for non-negative integer observations
/// (rounds per decode, messages per run, repair radii). Bucket upper bounds
/// are 1, 2, 4, ..., 2^(kBuckets-2), +Inf; counts are relaxed atomics, so
/// the same commutativity argument as Counter applies.
class Histogram {
 public:
  static constexpr int kBuckets = 22;  // le=1 .. le=2^20, +Inf

  void observe(long long x);
  long long count() const { return count_.load(std::memory_order_relaxed); }
  long long sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Non-cumulative count of bucket `i` (upper bound = bound(i)).
  long long bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  /// Upper bound of bucket i; the last bucket is +Inf (returns -1).
  static long long bound(int i) {
    return i + 1 < kBuckets ? (1LL << i) : -1;
  }
  void reset();

 private:
  std::atomic<long long> buckets_[kBuckets] = {};
  std::atomic<long long> count_{0};
  std::atomic<long long> sum_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Point-in-time scalar view of one metric (histograms expand to their
/// _sum and _count), used for bench-row snapshots.
struct MetricValue {
  std::string name;
  long long value = 0;
};

/// Process-wide metric registry. Metrics are created on first lookup and
/// kept in registration order; the core catalog below is registered as one
/// block, so exports and snapshots are deterministically ordered no matter
/// which instrumentation point fires first.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  // `thread_variant` marks a metric whose value legitimately depends on the
  // thread count (pool geometry, contract-check multiplicity under work
  // stealing). Everything else is covered by the §8 determinism contract:
  // byte-identical at any thread count. The flag is catalog data — the
  // determinism test and the exporters query it instead of each keeping a
  // private exclusion list.
  Counter& counter(const std::string& name, const std::string& help,
                   bool thread_variant = false);
  Gauge& gauge(const std::string& name, const std::string& help, bool thread_variant = false);
  Histogram& histogram(const std::string& name, const std::string& help,
                       bool thread_variant = false);

  /// True iff `name` is registered and flagged thread-variant.
  bool is_thread_variant(const std::string& name) const;
  /// All thread-variant metric names, in registration order.
  std::vector<std::string> thread_variant_names() const;
  /// All registered metric names (raw entry names, histograms without the
  /// _sum/_count expansion), in registration order. `lad lint` checks
  /// metric-name literals in instrumented code against this list.
  std::vector<std::string> names() const;

  /// Scalar values in registration order. Histograms contribute
  /// `<name>_sum` and `<name>_count`. `skip_zero` drops zero-valued entries
  /// (compact bench rows).
  std::vector<MetricValue> snapshot(bool skip_zero = false) const;

  /// Zeroes every registered metric (tests and per-case bench deltas).
  void reset();

  // Export surface (implemented in obs/export.cpp).
  std::string to_prometheus() const;

 private:
  struct Entry {
    MetricKind kind;
    std::string name;
    std::string help;
    bool thread_variant = false;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& get_or_create(MetricKind kind, const std::string& name, const std::string& help,
                       bool thread_variant);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
};

/// The core metric catalog, registered in one deterministic block on first
/// use (set_enabled(true) touches it). Units are in the help strings; the
/// full catalog with units is documented in DESIGN.md §9.
struct CoreMetrics {
  // LOCAL engine (local/engine.cpp): the message-complexity axis.
  Counter& engine_runs;
  Counter& engine_rounds;
  Counter& engine_messages;
  Counter& engine_message_bits;
  Counter& engine_messages_dropped;
  Counter& engine_messages_corrupted;
  Counter& engine_messages_duplicated;
  Counter& engine_messages_delayed;
  Counter& engine_crashed_nodes;
  Counter& engine_recovered_nodes;
  Histogram& engine_run_messages;

  // Ball gather + §8 canonical-view memo (local/gather.cpp).
  Counter& gather_balls;
  Counter& gather_cache_hits;
  Counter& gather_cache_misses;

  // Pipeline registry (core/pipeline.cpp): the advice/rounds axes.
  Counter& pipeline_encodes;
  Counter& pipeline_decodes;
  Counter& pipeline_verifies;
  Counter& pipeline_decode_rounds;
  Counter& advice_bits_written;
  Counter& advice_bits_read;
  Histogram& decode_rounds;

  // Guarded decoding + fault campaigns (faults/).
  Counter& guard_detections;
  Counter& repaired_nodes;
  Counter& degraded_nodes;
  Counter& flagged_nodes;
  Counter& repair_regions;
  Counter& repair_escalations;
  Counter& repair_retries;
  Counter& repair_budget_exhausted;
  Counter& repair_deadline_exhausted;
  Histogram& repair_region_radius;
  Counter& campaign_trials;
  Counter& campaign_faults_injected;
  Counter& chaos_cells;

  // Allocation accounting for the profiler (obs/profile.*): heap traffic
  // on the two hot paths ROADMAP item 2 targets — per-round message
  // buffers that outgrow SSO (local/engine.cpp) and serialized ball
  // gathers (local/gather.cpp). Counted at the call sites, not via
  // allocator hooks, so the multisets are thread-count-invariant and the
  // counts stay under the §8 byte-identity determinism contract.
  Counter& alloc_msgbuf;
  Counter& alloc_msgbuf_bytes;
  Counter& alloc_gather;
  Counter& alloc_gather_bytes;

  // Execution substrate (util/thread_pool.cpp) + contracts.
  Counter& pool_chunks;
  Gauge& pool_threads;
  Counter& contract_checks;

  // Observed-run instruments (obs/timeline.*, DESIGN.md §13): per-round
  // flight recording plus pool dispatch/wait attribution. The round and dump
  // counters are deterministic (round counts are thread-count-invariant);
  // the dispatch/wait timings are wall-clock sums and thread-variant.
  Counter& timeline_rounds;
  Counter& flight_dumps;
  Counter& pool_dispatches;
  Counter& pool_dispatch_us;
  Counter& pool_barrier_wait_us;
  Counter& pool_queue_us;
};

CoreMetrics& core();

/// The span-name catalog: every name LAD_TM_SPAN may use. Entries ending in
/// '/' are prefixes for composed names (e.g. "pipeline.decode/" +
/// pipeline name). Like the metric catalog it is the single source of
/// truth `lad lint` checks span literals against, so adding a span site
/// means adding its name here (and to DESIGN.md §9).
const std::vector<std::string>& span_name_catalog();

// ---------------------------------------------------------------------------
// Span tracing

/// One begin ('B') or end ('E') event, Chrome trace_event flavored.
struct TraceEvent {
  std::string name;
  const char* cat = "lad";
  std::uint64_t ts_us = 0;  // microseconds since process trace epoch
  char phase = 'B';
};

/// Process-wide trace collector. Spans append to a per-thread buffer (one
/// uncontended mutex each); export after parallel work has joined — the
/// thread-pool barrier orders all appends before the caller's read. A
/// per-thread cap bounds memory; dropped spans are counted, never silent
/// (the cap drops whole B/E pairs, so balance is preserved).
class TraceRecorder {
 public:
  static constexpr std::size_t kMaxEventsPerThread = 1u << 20;

  static TraceRecorder& instance();

  /// Forgets all recorded events (thread ids are kept). Do not call while
  /// spans are open.
  void clear();

  /// Events dropped to the cap.
  long long dropped() const;

  /// Events grouped by thread id (ascending), in per-thread record order.
  std::vector<std::pair<int, std::vector<TraceEvent>>> events_by_thread() const;

  /// Labels the calling thread's buffer ("lad-main", "lad-pool-0", ...).
  /// Survives clear(); exported as Chrome `thread_name` metadata events and
  /// used by the profiler's per-thread rows. Unlike span recording this is
  /// not gated on enabled() — it runs once per thread and must stick even
  /// when the thread starts before telemetry is switched on.
  void name_thread(const std::string& name);

  /// (tid, name) pairs for every named thread, tid ascending.
  std::vector<std::pair<int, std::string>> thread_names() const;

  /// Trace thread id of the calling thread (allocating one on first use) —
  /// lets pool accounting attribute slots to the same ids the trace uses.
  int current_tid();

  // Export surface (implemented in obs/export.cpp).
  std::string to_chrome_json() const;
  std::string to_jsonl() const;

  void record(char phase, const std::string& name, const char* cat);

 private:
  struct ThreadBuf {
    int tid = 0;
    std::string name;  // empty until name_thread(); guarded by `mu`
    mutable std::mutex mu;
    std::vector<TraceEvent> events;
    long long dropped = 0;
    int open_dropped = 0;  // B events dropped whose E must be dropped too
  };

  ThreadBuf& local_buf();

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadBuf>> bufs_;
  int next_tid_ = 0;
};

/// Microseconds since the process trace epoch (steady clock; monotone
/// within a thread, which the Chrome trace format requires).
std::uint64_t trace_now_us();

/// RAII span: records B at construction and E at destruction into the
/// current thread's buffer. Inactive (and nearly free) while telemetry is
/// runtime-disabled; spans must begin and end on the same thread (RAII
/// guarantees it).
class Span {
 public:
  explicit Span(std::string name, const char* cat = "lad");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  const char* cat_ = nullptr;
  bool active_ = false;
};

}  // namespace lad::obs

// ---------------------------------------------------------------------------
// Hook macros: the only things instrumented code should touch. Each costs a
// single relaxed load + branch when telemetry is disabled.

/// Runs `stmt` only when telemetry is runtime-enabled.
#define LAD_TM(stmt)                \
  do {                              \
    if (::lad::obs::enabled()) {    \
      stmt;                         \
    }                               \
  } while (0)
/// Declares an RAII span named `var` (inactive when runtime-disabled).
#define LAD_TM_SPAN(var, name, cat) ::lad::obs::Span var((name), (cat))
/// Labels the calling thread in trace exports and profile reports. Not
/// gated on enabled(): it runs once per thread and the label must stick
/// even when the thread starts before telemetry is enabled.
#define LAD_TM_THREAD_NAME(name) ::lad::obs::TraceRecorder::instance().name_thread(name)
/// Contract-check accounting hook used by util/contracts.hpp.
#define LAD_TM_COUNT_CONTRACT()                               \
  do {                                                        \
    if (::lad::obs::enabled()) {                              \
      ::lad::obs::core().contract_checks.add(1);              \
    }                                                         \
  } while (0)
