// Fixed-size thread pool with deterministic static partitioning.
//
// The execution substrate of the parallel layer (DESIGN.md §8). Design
// constraints, in order:
//
//   1. *Determinism first.* parallel_for splits [0, count) into exactly
//      `threads()` contiguous chunks by the same arithmetic every run; there
//      is no work stealing and no dynamic scheduling, so which thread
//      computes which index is a pure function of (count, threads()). Any
//      caller that writes only to per-index slots therefore produces
//      byte-identical results at every thread count — the property the
//      pooled Engine, the parallel ball gather, and the parallel fault
//      campaigns assert in tests/test_parallel_engine.cpp.
//   2. *Exceptions propagate deterministically.* If chunk bodies throw, the
//      exception of the lowest-numbered failing chunk is rethrown on the
//      caller's thread — the same exception a serial left-to-right loop
//      would have surfaced first (bodies are assumed not to mutate shared
//      state before throwing, which per-index writers satisfy trivially).
//   3. *threads() == 1 never spawns.* A pool of one runs everything inline
//      on the caller's thread, so "parallel code at 1 thread" is literally
//      the serial code — no scheduling noise in 1-thread baselines.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lad {

class ThreadPool {
 public:
  /// `threads` <= 0 means default_threads(). A pool of 1 spawns no workers.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  /// std::thread::hardware_concurrency, clamped to >= 1.
  static int default_threads();

  /// Runs `body(begin, end, chunk)` over a static partition of [0, count)
  /// into threads() contiguous chunks (chunk c = [c*count/T, (c+1)*count/T)).
  /// Blocks until every chunk finished; rethrows the exception of the
  /// lowest-numbered failing chunk.
  void parallel_for(int count, const std::function<void(int, int, int)>& body);

  /// Convenience wrapper: `body(i)` for every i in [0, count), partitioned
  /// as in parallel_for.
  void for_each(int count, const std::function<void(int)>& body);

 private:
  struct Task {
    std::function<void()> fn;
  };

  void worker_loop(int worker_index);
  void run_chunks(const std::function<void(int)>& chunk_fn, int num_chunks);

  int threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<Task> queue_;
  int inflight_ = 0;
  bool stop_ = false;
};

}  // namespace lad
