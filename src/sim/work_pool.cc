#include "src/sim/work_pool.h"

#include <chrono>

namespace aql {

WorkPool::WorkPool(int threads) {
  const int extra = threads - 1;
  workers_.reserve(extra > 0 ? static_cast<size_t>(extra) : 0);
  for (int t = 0; t < extra; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkPool::~WorkPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void WorkPool::Drain() {
  const size_t n = n_;
  const std::function<void(size_t)>& task = *task_;
  for (;;) {
    const size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) {
      return;
    }
    task(i);
  }
}

void WorkPool::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [this, seen] { return stop_ || epoch_ != seen; });
      if (stop_) {
        return;
      }
      seen = epoch_;
    }
    Drain();
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      last = --busy_ == 0;
    }
    if (last) {
      done_cv_.notify_one();
    }
  }
}

void WorkPool::Run(size_t n, const std::function<void(size_t)>& task) {
  if (workers_.empty()) {
    for (size_t i = 0; i < n; ++i) {
      task(i);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    n_ = n;
    task_ = &task;
    cursor_.store(0, std::memory_order_relaxed);
    busy_ = workers_.size();
    ++epoch_;
  }
  start_cv_.notify_all();

  Drain();

  std::unique_lock<std::mutex> lock(mu_);
  if (busy_ != 0) {
    const auto wait_start = std::chrono::steady_clock::now();
    done_cv_.wait(lock, [this] { return busy_ == 0; });
    wait_seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wait_start)
            .count();
  }
  task_ = nullptr;
}

}  // namespace aql
