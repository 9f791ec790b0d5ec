#include "src/sim/work_pool.h"

#include <chrono>

namespace aql {
namespace {

// One iteration of polite busy-waiting. The pause hint keeps the spin from
// starving a sibling hyperthread and shortens the exit latency once the
// awaited store lands.
inline void CpuPause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Spin budget before falling back to the condition variable, in pause
// iterations (~tens of microseconds). Epochs arrive back-to-back, so in
// steady state the next one lands inside the budget and no syscall
// happens; an idle pool (after the final epoch) parks in the kernel.
constexpr int kSpinIters = 1 << 14;

}  // namespace

WorkPool::WorkPool(int threads) {
  const int extra = threads - 1;
  const unsigned hw = std::thread::hardware_concurrency();
  if (extra > 0 && hw >= static_cast<unsigned>(extra) + 1) {
    spin_iters_ = kSpinIters;
  }
  workers_.reserve(extra > 0 ? static_cast<size_t>(extra) : 0);
  for (int t = 0; t < extra; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkPool::~WorkPool() {
  {
    // The lock serializes against a worker's predicate check between its
    // spin expiring and its cv wait starting; without it the notify could
    // land in that window and be lost.
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_relaxed);
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
    uint64_t e = seen;
    for (int spins = spin_iters_; spins > 0; --spins) {
      e = epoch_.load(std::memory_order_acquire);
      if (e != seen || stop_.load(std::memory_order_relaxed)) {
        break;
      }
      CpuPause();
    }
    if (e == seen && !stop_.load(std::memory_order_relaxed)) {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [this, seen] {
        return stop_.load(std::memory_order_relaxed) ||
               epoch_.load(std::memory_order_acquire) != seen;
      });
      e = epoch_.load(std::memory_order_acquire);
    }
    if (stop_.load(std::memory_order_relaxed)) {
      return;
    }
    seen = e;
    Drain();
    if (busy_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last worker out wakes the coordinator in case it gave up spinning.
      // Taking the (empty) lock before notifying closes the window between
      // the coordinator's predicate check and its wait.
      { std::lock_guard<std::mutex> lock(mu_); }
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
    // Publish under the lock so a worker checking the cv predicate cannot
    // miss the bump; the release increment pairs with the workers' acquire
    // spin-reads on the no-syscall path.
    std::lock_guard<std::mutex> lock(mu_);
    n_ = n;
    task_ = &task;
    cursor_.store(0, std::memory_order_relaxed);
    busy_.store(workers_.size(), std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();

  Drain();

  if (busy_.load(std::memory_order_acquire) != 0) {
    const auto wait_start = std::chrono::steady_clock::now();
    for (int spins = spin_iters_;
         busy_.load(std::memory_order_acquire) != 0 && spins > 0; --spins) {
      CpuPause();
    }
    if (busy_.load(std::memory_order_acquire) != 0) {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return busy_.load(std::memory_order_acquire) == 0; });
    }
    wait_seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wait_start)
            .count();
  }
  task_ = nullptr;
}

}  // namespace aql
