#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "util/contracts.hpp"

namespace lad {

int ThreadPool::default_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::max(1, static_cast<int>(hc));
}

ThreadPool::ThreadPool(int threads) {
  threads_ = threads <= 0 ? default_threads() : threads;
  LAD_TM(obs::core().pool_threads.set(threads_));
  if (threads_ == 1) return;  // inline mode: no workers, no locking
  workers_.reserve(static_cast<std::size_t>(threads_));
  for (int t = 0; t < threads_; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(int worker_index) {
  // Label the worker's trace lane ("lad-pool-<i>") for Chrome/Perfetto
  // exports and the profiler's per-thread rows.
  LAD_TM_THREAD_NAME("lad-pool-" + std::to_string(worker_index));
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.back());
      queue_.pop_back();
    }
    task.fn();  // chunk runners catch their own exceptions
    {
      std::lock_guard<std::mutex> lk(mu_);
      --inflight_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::run_chunks(const std::function<void(int)>& chunk_fn, int num_chunks) {
  if (num_chunks <= 0) return;
  // Every chunk records its own failure; the lowest-numbered one is
  // rethrown, matching what a serial left-to-right loop would surface.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(num_chunks));
  auto guarded = [&](int c) {
    // The span lands in the executing thread's trace buffer, so traces show
    // the actual chunk->thread schedule; the counter total stays a pure
    // function of (count, threads).
    LAD_TM_SPAN(chunk_span, "pool.chunk", "pool");
    // The chunk ledger (DESIGN.md §13.2): [start, end] feeds the worker's
    // busy time and, inside a dispatch window, the wait attribution; the
    // serial inline path below opens no window, so threads=1 reports
    // exactly zero dispatch/queue/barrier time.
    LAD_TM_WAIT_TIMER(wait_timer);
    LAD_TM(obs::core().pool_chunks.add(1));
    try {
      chunk_fn(c);
    } catch (...) {
      errors[static_cast<std::size_t>(c)] = std::current_exception();
    }
  };

  if (workers_.empty()) {
    for (int c = 0; c < num_chunks; ++c) guarded(c);
  } else {
    // Open the wait-attribution window at the enqueue instant; workers
    // timestamp their chunks against it and end_dispatch() folds dispatch
    // latency / queueing delay / per-worker barrier wait after the barrier.
    LAD_TM(obs::WaitAccounting::instance().begin_dispatch());
    {
      std::lock_guard<std::mutex> lk(mu_);
      LAD_CHECK_MSG(inflight_ == 0, "ThreadPool::parallel_for is not reentrant");
      inflight_ = num_chunks;
      // Push in reverse so workers pop chunk 0 first (LIFO queue).
      for (int c = num_chunks - 1; c >= 0; --c) {
        queue_.push_back(Task{[guarded, c] { guarded(c); }});
      }
    }
    work_cv_.notify_all();
    {
      std::unique_lock<std::mutex> lk(mu_);
      done_cv_.wait(lk, [this] { return inflight_ == 0; });
    }
    LAD_TM(obs::WaitAccounting::instance().end_dispatch());
  }

  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

void ThreadPool::parallel_for(int count, const std::function<void(int, int, int)>& body) {
  if (count <= 0) return;
  const int chunks = std::min(threads_, count);
  run_chunks(
      [&](int c) {
        const int begin = static_cast<int>(static_cast<long long>(count) * c / chunks);
        const int end = static_cast<int>(static_cast<long long>(count) * (c + 1) / chunks);
        body(begin, end, c);
      },
      chunks);
}

void ThreadPool::for_each(int count, const std::function<void(int)>& body) {
  parallel_for(count, [&body](int begin, int end, int /*chunk*/) {
    for (int i = begin; i < end; ++i) body(i);
  });
}

}  // namespace lad
