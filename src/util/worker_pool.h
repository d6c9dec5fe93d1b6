// Deterministic fork-join worker pool.
//
// Built for one job shape: a tick produces N independent, pure units of
// work (per-vehicle signature verifications), and the caller needs all N
// results in input order before proceeding. Threads race to *claim* indices
// but every result lands in its own pre-allocated slot, so the merged
// output is a pure function of the inputs — bit-for-bit identical for any
// thread count, and a pool of size <= 1 never spawns a thread at all (the
// caller's thread runs the loop inline, byte-identical to not having a pool).
//
// Not a general task graph: for_each is a barrier, nested submission from
// inside a task deadlocks by design simplicity, and tasks must not throw.
//
// One level of parallelism: the pool fans out whole units — grid shards,
// campaign cells, fan-out verifications — and never runs inside a World
// step, which is serial.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace nwade::util {

class WorkerPool {
 public:
  /// `threads` <= 1 means inline execution (no threads are created).
  explicit WorkerPool(int threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Worker threads owned by the pool (0 in inline mode).
  int thread_count() const { return static_cast<int>(threads_.size()); }

  /// Runs task(0..count-1), blocking until every index has finished. The
  /// calling thread participates in the work. Indices may run in any order
  /// on any thread; `task` must therefore only touch per-index state.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& task);

  /// Fixed-order merge: out[i] = fn(i). `R` must not be `bool`
  /// (std::vector<bool> packs bits — concurrent writes to neighbouring
  /// slots would race); use std::uint8_t for flags.
  template <typename R, typename F>
  std::vector<R> map(std::size_t count, F&& fn) {
    static_assert(!std::is_same_v<R, bool>,
                  "vector<bool> slots are not independently writable");
    std::vector<R> out(count);
    for_each(count, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  void worker_loop();
  void run_inline(std::size_t count, const std::function<void(std::size_t)>& task);

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  const std::function<void(std::size_t)>* task_{nullptr};  ///< current job
  std::size_t count_{0};
  std::atomic<std::size_t> next_{0};  ///< next unclaimed index
  std::size_t completed_{0};
  int joined_{0};  ///< workers that took the current job and have not left it
  std::uint64_t generation_{0};  ///< bumps per job so workers never re-run one
  bool stopping_{false};
};

}  // namespace nwade::util
