#include "util/worker_pool.h"

namespace nwade::util {

WorkerPool::WorkerPool(int threads) {
  if (threads <= 1) return;  // inline mode
  threads_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::run_inline(std::size_t count,
                            const std::function<void(std::size_t)>& task) {
  for (std::size_t i = 0; i < count; ++i) task(i);
}

void WorkerPool::for_each(std::size_t count,
                          const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  if (threads_.empty()) {
    run_inline(count, task);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = &task;
    count_ = count;
    completed_ = 0;
    next_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  work_ready_.notify_all();

  // The calling thread works too: claims an index, runs it, repeats.
  std::size_t done_here = 0;
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) break;
    task(i);
    ++done_here;
  }

  std::unique_lock<std::mutex> lock(mu_);
  completed_ += done_here;
  // Every index being done is not enough: a worker that joined this job may
  // still be about to claim from next_, and must leave before the next job
  // resets next_ and `task` (a caller's stack object) goes out of scope.
  job_done_.wait(lock, [this] { return completed_ == count_ && joined_ == 0; });
  task_ = nullptr;
}

void WorkerPool::worker_loop() {
  std::uint64_t last_job = 0;
  for (;;) {
    const std::function<void(std::size_t)>* task = nullptr;
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this, last_job] {
        return stopping_ || (task_ != nullptr && generation_ != last_job);
      });
      if (stopping_) return;
      task = task_;
      count = count_;
      last_job = generation_;
      ++joined_;
    }

    std::size_t done_here = 0;
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      (*task)(i);
      ++done_here;
    }

    std::lock_guard<std::mutex> lock(mu_);
    completed_ += done_here;
    --joined_;
    if (completed_ == count_ && joined_ == 0) job_done_.notify_all();
  }
}

}  // namespace nwade::util
