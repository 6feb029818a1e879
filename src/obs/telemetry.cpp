#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>

namespace lad::obs {

void set_enabled(bool on) {
  if (on) core();  // materialize the catalog so exports list every metric
  enabled_flag().store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram

void Histogram::observe(long long x) {
  int b = 0;
  while (b + 1 < kBuckets && x > bound(b)) ++b;
  buckets_[static_cast<std::size_t>(b)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry reg;
  return reg;
}

MetricsRegistry::Entry& MetricsRegistry::get_or_create(MetricKind kind, const std::string& name,
                                                       const std::string& help,
                                                       bool thread_variant) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& e : entries_) {
    if (e->name == name) return *e;
  }
  auto e = std::make_unique<Entry>();
  e->kind = kind;
  e->name = name;
  e->help = help;
  e->thread_variant = thread_variant;
  switch (kind) {
    case MetricKind::kCounter:
      e->counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      e->gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      e->histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(e));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help,
                                  bool thread_variant) {
  return *get_or_create(MetricKind::kCounter, name, help, thread_variant).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              bool thread_variant) {
  return *get_or_create(MetricKind::kGauge, name, help, thread_variant).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const std::string& help,
                                      bool thread_variant) {
  return *get_or_create(MetricKind::kHistogram, name, help, thread_variant).histogram;
}

bool MetricsRegistry::is_thread_variant(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& e : entries_) {
    if (e->name == name) return e->thread_variant;
  }
  return false;
}

std::vector<std::string> MetricsRegistry::thread_variant_names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  for (const auto& e : entries_) {
    if (e->thread_variant) out.push_back(e->name);
  }
  return out;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e->name);
  return out;
}

std::vector<MetricValue> MetricsRegistry::snapshot(bool skip_zero) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<MetricValue> out;
  out.reserve(entries_.size());
  const auto push = [&](const std::string& name, long long v) {
    if (skip_zero && v == 0) return;
    out.push_back({name, v});
  };
  for (const auto& e : entries_) {
    switch (e->kind) {
      case MetricKind::kCounter:
        push(e->name, e->counter->value());
        break;
      case MetricKind::kGauge:
        push(e->name, e->gauge->value());
        break;
      case MetricKind::kHistogram:
        push(e->name + "_sum", e->histogram->sum());
        push(e->name + "_count", e->histogram->count());
        break;
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& e : entries_) {
    switch (e->kind) {
      case MetricKind::kCounter:
        e->counter->reset();
        break;
      case MetricKind::kGauge:
        e->gauge->reset();
        break;
      case MetricKind::kHistogram:
        e->histogram->reset();
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Core catalog. One registration block = one deterministic order, no matter
// which instrumentation point fires first.

CoreMetrics& core() {
  static CoreMetrics m = [] {
    auto& r = MetricsRegistry::instance();
    return CoreMetrics{
        r.counter("lad_engine_runs_total", "Engine::run invocations"),
        r.counter("lad_engine_rounds_total", "synchronous LOCAL rounds executed (rounds)"),
        r.counter("lad_engine_messages_total", "messages delivered between nodes (messages)"),
        r.counter("lad_engine_message_bits_total", "payload bits on the wire (bits)"),
        r.counter("lad_engine_messages_dropped_total", "messages dropped by the fault model"),
        r.counter("lad_engine_messages_corrupted_total", "messages corrupted by the fault model"),
        r.counter("lad_engine_messages_duplicated_total",
                  "stale duplicate deliveries scheduled by the fault model"),
        r.counter("lad_engine_messages_delayed_total",
                  "messages the fault model held in transit at least one extra round"),
        r.counter("lad_engine_crashed_nodes_total", "nodes crashed by the fault model"),
        r.counter("lad_engine_recovered_nodes_total",
                  "crash-recovery rejoins with blank state (on_recover calls)"),
        r.histogram("lad_engine_run_messages", "messages delivered per Engine::run (messages)"),
        r.counter("lad_gather_balls_total", "radius-t balls reconstructed from messages"),
        r.counter("lad_gather_cache_hits_total", "canonical-view memo hits (nodes)"),
        r.counter("lad_gather_cache_misses_total", "canonical-view memo misses = distinct views"),
        r.counter("lad_pipeline_encodes_total", "registry pipeline encode() calls"),
        r.counter("lad_pipeline_decodes_total", "registry pipeline decode() calls"),
        r.counter("lad_pipeline_verifies_total", "registry pipeline verify() calls"),
        r.counter("lad_pipeline_decode_rounds_total", "LOCAL rounds over all decodes (rounds)"),
        r.counter("lad_advice_bits_written_total", "advice bits produced by encoders (bits)"),
        r.counter("lad_advice_bits_read_total", "advice bits consumed by decoders (bits)"),
        r.histogram("lad_decode_rounds", "LOCAL rounds per pipeline decode (rounds)"),
        r.counter("lad_guard_detections_total", "violations detected by guarded decoders"),
        r.counter("lad_repaired_nodes_total", "nodes whose output was locally repaired"),
        r.counter("lad_degraded_nodes_total",
                  "nodes served by a fallback-ladder rung below local repair"),
        r.counter("lad_flagged_nodes_total", "nodes flagged unservable (repair impossible)"),
        r.counter("lad_repair_regions_total", "repair regions grown by guarded decoders"),
        r.counter("lad_repair_escalations_total", "repair regions that escalated past radius 1"),
        r.counter("lad_repair_retries_total", "repair attempts beyond the first per region"),
        r.counter("lad_repair_budget_exhausted_total",
                  "repair regions abandoned to the global node budget"),
        r.counter("lad_repair_deadline_exhausted_total",
                  "repair regions abandoned to the per-run round deadline"),
        r.histogram("lad_repair_region_radius", "final radius per repair region (hops)"),
        r.counter("lad_campaign_trials_total", "fault-campaign trials executed"),
        r.counter("lad_campaign_faults_injected_total", "faults injected across campaign trials"),
        r.counter("lad_chaos_cells_total", "chaos-matrix cells executed (campaign runs)"),
        r.counter("lad_alloc_msgbuf_total",
                  "per-round message payloads that outgrew SSO (heap allocations)"),
        r.counter("lad_alloc_msgbuf_bytes_total",
                  "bytes of heap-allocated per-round message payloads (bytes)"),
        r.counter("lad_alloc_gather_total", "serialized ball-gather buffers built (allocations)"),
        r.counter("lad_alloc_gather_bytes_total",
                  "bytes of serialized ball-gather buffers (bytes)"),
        // Thread-variant metrics: pool geometry, dispatch/wait timing, and
        // contract-check multiplicity are functions of the thread count (or
        // the wall clock) by design, so they are exempt from the
        // byte-identity determinism contract.
        r.counter("lad_pool_chunks_total", "thread-pool chunks executed",
                  /*thread_variant=*/true),
        r.gauge("lad_pool_threads", "threads of the most recently created pool",
                /*thread_variant=*/true),
        r.counter("lad_contract_checks_total", "LAD_CHECK/LAD_ASSERT evaluations",
                  /*thread_variant=*/true),
        // Flight recorder and wait attribution (obs/timeline.*, DESIGN.md §13).
        r.counter("lad_timeline_rounds_total",
                  "engine rounds recorded by the flight recorder (rounds)"),
        r.counter("lad_flight_dumps_total", "flight-recorder post-mortem dumps emitted"),
        r.counter("lad_pool_dispatches_total", "parallel dispatch windows completed",
                  /*thread_variant=*/true),
        r.counter("lad_pool_dispatch_us_total",
                  "enqueue-to-first-chunk dispatch latency (microseconds)",
                  /*thread_variant=*/true),
        r.counter("lad_pool_barrier_wait_us_total",
                  "per-worker wait at the completion barrier (microseconds)",
                  /*thread_variant=*/true),
        r.counter("lad_pool_queue_us_total", "enqueue-to-chunk-start queueing delay "
                  "(microseconds)",
                  /*thread_variant=*/true),
    };
  }();
  return m;
}

const std::vector<std::string>& span_name_catalog() {
  // Every LAD_TM_SPAN site's name, or its literal prefix for composed
  // names (prefix entries end in '/'). `lad lint` rule obs-span-name
  // checks span literals in instrumented code against this list.
  static const std::vector<std::string> kSpans = {
      "engine.run",        "engine.round",      "engine.faults",
      "engine.compute",    "engine.deliver",    "gather.balls",
      "gather.views",      "pool.chunk",        "campaign.trial",
      "campaign.checks",   "inject.graph",      "inject.advice",
      "chaos.cell",        "guarded.decode/",   "pipeline.encode/",
      "pipeline.decode/",  "pipeline.verify/",
  };
  return kSpans;
}

// ---------------------------------------------------------------------------
// TraceRecorder / Span

std::uint64_t trace_now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count());
}

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder rec;
  return rec;
}

TraceRecorder::ThreadBuf& TraceRecorder::local_buf() {
  thread_local std::shared_ptr<ThreadBuf> buf;
  if (!buf) {
    buf = std::make_shared<ThreadBuf>();
    std::lock_guard<std::mutex> lk(mu_);
    buf->tid = next_tid_++;
    bufs_.push_back(buf);
  }
  return *buf;
}

void TraceRecorder::record(char phase, const std::string& name, const char* cat) {
  ThreadBuf& b = local_buf();
  const std::uint64_t ts = trace_now_us();
  std::lock_guard<std::mutex> lk(b.mu);
  if (phase == 'E' && b.open_dropped > 0) {
    // The matching B was dropped to the cap; drop the E too so the
    // exported stream stays balanced (spans nest LIFO within a thread).
    --b.open_dropped;
    ++b.dropped;
    return;
  }
  if (b.events.size() >= kMaxEventsPerThread) {
    ++b.dropped;
    if (phase == 'B') ++b.open_dropped;
    return;
  }
  b.events.push_back(TraceEvent{name, cat, ts, phase});
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& b : bufs_) {
    std::lock_guard<std::mutex> blk(b->mu);
    b->events.clear();
    b->dropped = 0;
    b->open_dropped = 0;
  }
}

long long TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  long long total = 0;
  for (const auto& b : bufs_) {
    std::lock_guard<std::mutex> blk(b->mu);
    total += b->dropped;
  }
  return total;
}

void TraceRecorder::name_thread(const std::string& name) {
  ThreadBuf& b = local_buf();
  std::lock_guard<std::mutex> lk(b.mu);
  b.name = name;
}

std::vector<std::pair<int, std::string>> TraceRecorder::thread_names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<int, std::string>> out;
  for (const auto& b : bufs_) {
    std::lock_guard<std::mutex> blk(b->mu);
    if (!b->name.empty()) out.emplace_back(b->tid, b->name);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b2) { return a.first < b2.first; });
  return out;
}

int TraceRecorder::current_tid() { return local_buf().tid; }

std::vector<std::pair<int, std::vector<TraceEvent>>> TraceRecorder::events_by_thread() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<int, std::vector<TraceEvent>>> out;
  out.reserve(bufs_.size());
  for (const auto& b : bufs_) {
    std::lock_guard<std::mutex> blk(b->mu);
    if (!b->events.empty()) out.emplace_back(b->tid, b->events);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b2) { return a.first < b2.first; });
  return out;
}

Span::Span(std::string name, const char* cat) : name_(std::move(name)), cat_(cat) {
  if (!enabled()) return;
  active_ = true;
  TraceRecorder::instance().record('B', name_, cat_);
}

Span::~Span() {
  // active_ is latched at construction: a span that began is always closed,
  // even if telemetry was disabled mid-span, so B/E stay balanced.
  if (active_) TraceRecorder::instance().record('E', name_, cat_);
}

}  // namespace lad::obs
