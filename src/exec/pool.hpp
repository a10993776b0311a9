// iotls::exec — a small work-stealing thread pool and the deterministic
// parallel-for primitive the survey/analysis pipelines shard over.
//
// Design constraints (why this exists instead of std::async):
//  * Deterministic sharding: parallel_for(n, fn) runs fn(0..n-1) exactly
//    once each and the *caller* owns where each result lands (typically a
//    pre-sized vector slot indexed by i), so a parallel map merges into the
//    same bytes regardless of execution interleaving. Only the schedule is
//    nondeterministic; the output must never be.
//  * Work stealing: shards are dealt round-robin onto per-worker deques;
//    an idle worker steals from the back of a victim's deque, so a survey
//    whose SNI groups have wildly different retry costs still load-balances
//    instead of convoying behind the slowest static shard.
//  * The calling thread participates as a worker, so `jobs = 1` uses no
//    threads at all and is the exact sequential path — the determinism
//    tests compare `jobs = 8` against it byte for byte.
//
// Exceptions thrown by a shard are captured; after the loop drains, the
// exception of the lowest-indexed failing shard is rethrown on the caller
// (matching what the sequential loop would have thrown first).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/health.hpp"

namespace iotls::exec {

/// Clamp a requested `--jobs` value: 0 means "ask the hardware", anything
/// else is used as given (minimum 1).
int resolve_jobs(int jobs);

/// Work-stealing pool of `threads` workers (>= 1; the constructor clamps).
/// One pool instance drives one parallel_for at a time; instances are
/// cheap enough to create per survey (worker startup is microseconds
/// against a multi-thousand-probe harvest).
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Shards taken from a victim's deque instead of the owner's, since this
  /// pool was constructed (also exported as the `exec.pool.steals` counter).
  std::uint64_t steals() const;

  /// Run fn(i) for every i in [0, n), distributed over the pool; the
  /// calling thread works too. Blocks until all shards finish. If any
  /// shard throws, the exception of the lowest-indexed failing shard is
  /// rethrown after the loop drains (remaining shards still run).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::size_t> shards;
  };

  void worker_loop(std::size_t self);
  /// Pop from own queue front, else steal from a victim's back.
  bool next_shard(std::size_t self, std::size_t& shard);
  void run_shard(std::size_t shard);

  std::vector<std::thread> workers_;
  // queues_[0] belongs to the calling thread; queues_[w + 1] to worker w.
  std::vector<std::unique_ptr<WorkerQueue>> queues_;

  std::mutex job_mu_;
  std::condition_variable job_cv_;    // wakes workers for a new job epoch
  std::condition_variable done_cv_;   // wakes the caller when a job drains
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t remaining_ = 0;         // shards not yet finished
  std::uint64_t epoch_ = 0;
  bool shutdown_ = false;

  std::mutex error_mu_;
  std::exception_ptr first_error_;
  std::size_t first_error_shard_ = 0;

  std::atomic<std::uint64_t> steals_{0};
  // Liveness probe for the export plane: exists exactly while the pool
  // does, so /healthz shows `exec.pool.<n>` during a running survey.
  std::unique_ptr<obs::ScopedHealthCheck> health_;
};

/// One-shot helper: shard [0, n) over `jobs` workers. `jobs <= 1` (after
/// resolve_jobs) runs inline on the caller — the exact sequential loop.
/// At most n - 1 worker threads are started, however large `jobs` is.
void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace iotls::exec
