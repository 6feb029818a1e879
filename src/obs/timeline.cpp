#include "obs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "obs/profile.hpp"  // self_times_by_cell

namespace lad::obs {
namespace {

double us_to_ms(std::uint64_t us) { return static_cast<double>(us) / 1000.0; }

/// now - then, clamped at zero (telemetry can be enabled mid-window, in
/// which case "then" may postdate an earlier timestamp).
std::uint64_t delta_us(std::uint64_t now, std::uint64_t then) {
  return now > then ? now - then : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// WaitAccounting

struct WaitAccounting::WorkerCell {
  int tid = -1;
  // Single-writer (the owning worker thread); read by the dispatching
  // thread only after the pool's completion barrier, so relaxed atomics
  // are enough for TSan-cleanliness without ordering cost.
  std::atomic<long long> total_busy_us{0};  // since reset()
  std::atomic<long long> total_chunks{0};
  // The open dispatch only; stale once `epoch` lags the accounting's.
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<long long> busy_us{0};
  std::atomic<long long> chunks{0};
  std::atomic<std::uint64_t> first_start{0};
  std::atomic<std::uint64_t> last_end{0};
  std::atomic<long long> queue_us{0};
};

WaitAccounting& WaitAccounting::instance() {
  static WaitAccounting acc;
  return acc;
}

WaitAccounting::WorkerCell& WaitAccounting::local_cell() {
  thread_local std::shared_ptr<WorkerCell> cell;
  if (!cell) {
    cell = std::make_shared<WorkerCell>();
    cell->tid = TraceRecorder::instance().current_tid();
    std::lock_guard<std::mutex> lk(mu_);
    cells_.push_back(cell);
  }
  return *cell;
}

void WaitAccounting::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& c : cells_) {
    c->total_busy_us.store(0, std::memory_order_relaxed);
    c->total_chunks.store(0, std::memory_order_relaxed);
  }
  open_.store(false, std::memory_order_relaxed);
  window_ = Window{};
}

void WaitAccounting::begin_dispatch() {
  // The pool serializes dispatches through its own lock, so no two windows
  // can be open at once; bumping the epoch retires every cell lazily.
  epoch_.fetch_add(1, std::memory_order_relaxed);
  begin_us_.store(trace_now_us(), std::memory_order_relaxed);
  open_.store(true, std::memory_order_release);
}

void WaitAccounting::record_chunk(std::uint64_t start_us, std::uint64_t end_us) {
  WorkerCell& c = local_cell();
  const auto busy = static_cast<long long>(delta_us(end_us, start_us));
  c.total_busy_us.fetch_add(busy, std::memory_order_relaxed);
  c.total_chunks.fetch_add(1, std::memory_order_relaxed);
  if (!open_.load(std::memory_order_acquire)) return;  // serial inline path
  const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
  if (c.epoch.load(std::memory_order_relaxed) != e) {
    c.epoch.store(e, std::memory_order_relaxed);
    c.busy_us.store(0, std::memory_order_relaxed);
    c.chunks.store(0, std::memory_order_relaxed);
    c.first_start.store(start_us, std::memory_order_relaxed);
    c.queue_us.store(0, std::memory_order_relaxed);
  }
  c.busy_us.fetch_add(busy, std::memory_order_relaxed);
  c.chunks.fetch_add(1, std::memory_order_relaxed);
  c.last_end.store(end_us, std::memory_order_relaxed);
  c.queue_us.fetch_add(
      static_cast<long long>(delta_us(start_us, begin_us_.load(std::memory_order_relaxed))),
      std::memory_order_relaxed);
}

void WaitAccounting::end_dispatch() {
  const std::uint64_t now = trace_now_us();
  std::lock_guard<std::mutex> lk(mu_);
  if (!open_.load(std::memory_order_relaxed)) return;  // enabled mid-dispatch
  open_.store(false, std::memory_order_relaxed);
  fold_open_window_locked(now);
}

void WaitAccounting::fold_open_window_locked(std::uint64_t now_us) {
  const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
  const std::uint64_t begin = begin_us_.load(std::memory_order_relaxed);
  int workers = 0;
  std::uint64_t min_first_start = 0;
  long long wait_sum = 0;
  long long max_wait = 0;
  long long queue_sum = 0;
  long long busy_sum = 0;
  long long max_busy = 0;
  int critical_tid = -1;
  for (const auto& c : cells_) {
    if (c->epoch.load(std::memory_order_relaxed) != e) continue;
    if (c->chunks.load(std::memory_order_relaxed) == 0) continue;
    ++workers;
    const std::uint64_t first = c->first_start.load(std::memory_order_relaxed);
    if (workers == 1 || first < min_first_start) min_first_start = first;
    const long long wait =
        static_cast<long long>(delta_us(now_us, c->last_end.load(std::memory_order_relaxed)));
    wait_sum += wait;
    max_wait = std::max(max_wait, wait);
    queue_sum += c->queue_us.load(std::memory_order_relaxed);
    const long long busy = c->busy_us.load(std::memory_order_relaxed);
    busy_sum += busy;
    if (busy > max_busy || critical_tid < 0) {
      max_busy = busy;
      critical_tid = c->tid;
    }
  }
  const long long latency =
      workers > 0 ? static_cast<long long>(delta_us(min_first_start, begin)) : 0;

  window_.dispatches += 1;
  window_.dispatch_us += latency;
  window_.queue_us += queue_sum;
  window_.wait_us += wait_sum;
  window_.max_wait_us = std::max(window_.max_wait_us, max_wait);
  window_.busy_us += busy_sum;
  window_.critical_us += max_busy;
  if (max_busy > window_.max_busy_us) {
    window_.max_busy_us = max_busy;
    window_.critical_tid = critical_tid;
  }
  window_.workers = std::max(window_.workers, workers);

  core().pool_dispatches.add(1);
  core().pool_dispatch_us.add(latency);
  core().pool_barrier_wait_us.add(wait_sum);
  core().pool_queue_us.add(queue_sum);
}

WaitAccounting::Window WaitAccounting::drain_window() {
  std::lock_guard<std::mutex> lk(mu_);
  Window out = window_;
  window_ = Window{};
  return out;
}

std::vector<WaitAccounting::Slot> WaitAccounting::slots() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Slot> out;
  for (const auto& c : cells_) {
    const long long chunks = c->total_chunks.load(std::memory_order_relaxed);
    if (chunks == 0) continue;
    out.push_back({c->tid, c->total_busy_us.load(std::memory_order_relaxed), chunks});
  }
  std::sort(out.begin(), out.end(), [](const Slot& a, const Slot& b) { return a.tid < b.tid; });
  return out;
}

WaitChunkTimer::WaitChunkTimer() {
  if (!enabled()) return;
  active_ = true;
  begin_us_ = trace_now_us();
}

WaitChunkTimer::~WaitChunkTimer() {
  if (active_) WaitAccounting::instance().record_chunk(begin_us_, trace_now_us());
}

// ---------------------------------------------------------------------------
// FlightRecorder

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder rec;
  return rec;
}

FlightRecorder::RunCursor& FlightRecorder::cursor() {
  thread_local RunCursor cur;
  return cur;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
}

void FlightRecorder::begin_run() {
  RunCursor& c = cursor();
  c = RunCursor{};
  c.run_id = next_run_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  c.alloc_base = core().alloc_msgbuf.value();
  c.alloc_bytes_base = core().alloc_msgbuf_bytes.value();
  // Discard any pre-run dispatch window (gather/encode pool work).
  (void)WaitAccounting::instance().drain_window();
}

void FlightRecorder::begin_round() {
  RunCursor& c = cursor();
  c.round_begin_us = trace_now_us();
  c.alloc_base = core().alloc_msgbuf.value();
  c.alloc_bytes_base = core().alloc_msgbuf_bytes.value();
  // Scope the wait window to this round's dispatches.
  (void)WaitAccounting::instance().drain_window();
}

void FlightRecorder::end_round(long long round, long long cum_messages, long long cum_bytes,
                               long long cum_faults, long long cum_repairs) {
  RunCursor& c = cursor();
  const std::uint64_t now = trace_now_us();
  const WaitAccounting::Window w = WaitAccounting::instance().drain_window();

  RoundSample s;
  s.run_id = c.run_id;
  s.round = round;
  s.messages = cum_messages - c.prev_messages;
  s.bytes = cum_bytes - c.prev_bytes;
  s.faults = cum_faults - c.prev_faults;
  s.repairs = cum_repairs - c.prev_repairs;
  s.allocs = core().alloc_msgbuf.value() - c.alloc_base;
  s.alloc_bytes = core().alloc_msgbuf_bytes.value() - c.alloc_bytes_base;

  s.wall_ms = us_to_ms(delta_us(now, c.round_begin_us));
  s.dispatch_us = static_cast<double>(w.dispatch_us);
  s.queue_us = static_cast<double>(w.queue_us);
  s.wait_us = static_cast<double>(w.wait_us);
  s.max_wait_us = static_cast<double>(w.max_wait_us);
  s.workers = w.workers;
  if (w.workers >= 2 && w.busy_us > 0) {
    const double mean = static_cast<double>(w.busy_us) / static_cast<double>(w.workers);
    // An engine round holds two dispatches (compute and delivery), each
    // ending at a barrier, so its critical path is the sum of each
    // dispatch's busiest worker; that sum is never below the mean.
    s.imbalance = mean > 0 ? static_cast<double>(w.critical_us) / mean : 1.0;
  }
  s.critical_tid = w.critical_tid;
  s.ts_us = now;

  c.prev_messages = cum_messages;
  c.prev_bytes = cum_bytes;
  c.prev_faults = cum_faults;
  c.prev_repairs = cum_repairs;

  push(s);
  core().timeline_rounds.add(1);
}

void FlightRecorder::push(const RoundSample& s) {
  std::lock_guard<std::mutex> lk(mu_);
  if (ring_.size() < kRingCapacity) {
    ring_.push_back(s);
    return;
  }
  ring_[head_] = s;
  head_ = (head_ + 1) % kRingCapacity;
  ++dropped_;
}

std::vector<RoundSample> FlightRecorder::samples() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<RoundSample> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

long long FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

void FlightRecorder::dump(std::ostream& os, const std::string& reason,
                          std::size_t max_rounds) const {
  const std::vector<RoundSample> all = samples();
  long long overwritten = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    overwritten = dropped_;
  }
  os << "[flight-recorder] " << reason << "\n";
  os << "[flight-recorder] " << all.size() << " round(s) held, " << overwritten
     << " overwritten; showing last " << std::min(max_rounds, all.size()) << "\n";
  os << "[flight-recorder]   run round     msgs    bytes faults repairs  wall_ms "
        "wait_us(max) workers\n";
  const std::size_t first = all.size() > max_rounds ? all.size() - max_rounds : 0;
  for (std::size_t i = first; i < all.size(); ++i) {
    const RoundSample& s = all[i];
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "[flight-recorder] %5lld %5lld %8lld %8lld %6lld %7lld %8.3f %12.1f %7d\n",
                  s.run_id, s.round, s.messages, s.bytes, s.faults, s.repairs, s.wall_ms,
                  s.max_wait_us, s.workers);
    os << buf;
  }
  LAD_TM(core().flight_dumps.add(1));
}

// ---------------------------------------------------------------------------
// Amdahl split

SerialSplit serial_split_from_trace() {
  const auto cells = self_times_by_cell(TraceRecorder::instance().events_by_thread());
  long long compute_us = 0;
  long long serial_us = 0;
  for (const auto& [key, acc] : cells) {
    if (key.first == "compute") {
      compute_us += acc.self_us;
    } else {
      serial_us += acc.self_us;
    }
  }
  SerialSplit split;
  split.serial_ms = static_cast<double>(serial_us) / 1000.0;
  split.compute_ms = static_cast<double>(compute_us) / 1000.0;
  const double total = split.serial_ms + split.compute_ms;
  split.serial_fraction = total > 0 ? split.serial_ms / total : 0.0;
  return split;
}

double amdahl_speedup(double serial_fraction, int threads) {
  const double s = std::min(1.0, std::max(0.0, serial_fraction));
  const double t = threads < 1 ? 1.0 : static_cast<double>(threads);
  return 1.0 / (s + (1.0 - s) / t);
}

}  // namespace lad::obs
