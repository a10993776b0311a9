#include "exec/pool.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"

namespace iotls::exec {

namespace {

/// Pool-wide instruments, resolved once (pools are created per survey;
/// counters accumulate across all of them, which is what a scrape wants).
obs::Counter& steal_counter() {
  static obs::Counter& c = obs::metrics().counter("exec.pool.steals");
  return c;
}
obs::Counter& shard_counter() {
  static obs::Counter& c = obs::metrics().counter("exec.pool.shards");
  return c;
}
obs::Gauge& depth_gauge() {
  static obs::Gauge& g = obs::metrics().gauge("exec.pool.queue_depth");
  return g;
}

}  // namespace

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  int total = std::max(threads, 1);
  queues_.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<std::size_t>(total - 1));
  for (int w = 1; w < total; ++w) {
    workers_.emplace_back([this, w] { worker_loop(static_cast<std::size_t>(w)); });
  }
  static std::atomic<std::uint64_t> next_pool_id{0};
  std::uint64_t pool_id = next_pool_id.fetch_add(1, std::memory_order_relaxed);
  health_ = std::make_unique<obs::ScopedHealthCheck>(
      "exec.pool." + std::to_string(pool_id), obs::HealthKind::kLiveness,
      [total, this] {
        char detail[64];
        std::snprintf(detail, sizeof detail, "workers=%d steals=%llu", total,
                      static_cast<unsigned long long>(steals()));
        return obs::HealthStatus::healthy(detail);
      });
}

std::uint64_t ThreadPool::steals() const {
  return steals_.load(std::memory_order_relaxed);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(job_mu_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::next_shard(std::size_t self, std::size_t& shard) {
  // Own queue first (front: cache-warm, dealt-in order)...
  {
    WorkerQueue& q = *queues_[self];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.shards.empty()) {
      shard = q.shards.front();
      q.shards.pop_front();
      depth_gauge().add(-1);
      return true;
    }
  }
  // ...then steal from a victim's back (the shards it would reach last).
  for (std::size_t i = 1; i < queues_.size(); ++i) {
    WorkerQueue& q = *queues_[(self + i) % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.shards.empty()) {
      shard = q.shards.back();
      q.shards.pop_back();
      depth_gauge().add(-1);
      steals_.fetch_add(1, std::memory_order_relaxed);
      steal_counter().inc();
      return true;
    }
  }
  return false;
}

void ThreadPool::run_shard(std::size_t shard) {
  shard_counter().inc();
  try {
    (*fn_)(shard);
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!first_error_ || shard < first_error_shard_) {
      first_error_ = std::current_exception();
      first_error_shard_ = shard;
    }
  }
  std::lock_guard<std::mutex> lock(job_mu_);
  if (--remaining_ == 0) done_cv_.notify_all();
}

void ThreadPool::worker_loop(std::size_t self) {
  std::uint64_t seen_epoch = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(job_mu_);
      job_cv_.wait(lock, [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
    }
    std::size_t shard = 0;
    while (next_shard(self, shard)) run_shard(shard);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (size() == 1 || n == 1) {
    // Degenerate cases run inline: identical to the sequential loop.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Publish the job BEFORE dealing any shards: a straggler worker from the
  // previous job may still be polling queues, and whatever shard it finds
  // must already see the new fn_ and remaining_.
  {
    std::lock_guard<std::mutex> lock(job_mu_);
    fn_ = &fn;
    remaining_ = n;
    first_error_ = nullptr;
    ++epoch_;
  }
  // Deal shards round-robin so static load is balanced before stealing.
  // The gauge moves up-front so it can only over-report, never go negative
  // when a straggler worker races the deal loop.
  depth_gauge().add(static_cast<std::int64_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    WorkerQueue& q = *queues_[i % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mu);
    q.shards.push_back(i);
  }
  job_cv_.notify_all();

  // The caller is worker 0.
  std::size_t shard = 0;
  while (next_shard(0, shard)) run_shard(shard);

  {
    std::unique_lock<std::mutex> lock(job_mu_);
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
    fn_ = nullptr;
  }
  if (first_error_) std::rethrow_exception(first_error_);
}

void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  jobs = resolve_jobs(jobs);
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // No more threads than shards: the caller plus at most n - 1 workers.
  ThreadPool pool(static_cast<int>(std::min<std::size_t>(jobs, n)));
  pool.parallel_for(n, fn);
}

}  // namespace iotls::exec
