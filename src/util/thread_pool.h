#ifndef INFLEX_UTIL_THREAD_POOL_H_
#define INFLEX_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace inflex {

/// \brief Fixed-size worker pool used to parallelize embarrassingly parallel
/// stages (Monte-Carlo spread estimation, per-index-point CELF++ runs, batched
/// query serving).
///
/// Tasks are plain std::function<void()>; Wait() blocks until every submitted
/// task has finished.
///
/// Scalability: each worker owns its own task deque behind its own mutex;
/// Submit() pushes to one worker's deque (round-robin) and idle workers steal
/// from their siblings, so concurrent submitters and workers never serialize
/// on a single pool-wide lock the way the original one-queue design did.
/// Sleep/wake uses a shared condvar that is touched only when a worker has
/// found the whole pool empty — on a busy pool, Submit() is one small
/// uncontended lock plus an atomic increment, with no condvar signal at all.
///
/// Re-entrancy contract: Submit() and ParallelFor() may be called from inside
/// a task running on this pool. A nested submission executes inline on the
/// calling worker (and a nested ParallelFor degrades to a serial loop) instead
/// of enqueueing — enqueueing and blocking on a pool whose workers are all
/// blocked on the same queue is a self-deadlock. Wait() must NOT be called
/// from a worker of the same pool (a worker can never observe its own task as
/// finished); this is CHECK-enforced.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (0 means hardware concurrency).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution. Called from one of this pool's own
  /// workers, the task runs inline (synchronously) instead — see the
  /// re-entrancy contract above.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed. Must not be called
  /// from one of this pool's workers.
  void Wait();

  /// True when the calling thread is one of this pool's workers (i.e. we are
  /// inside a task of this pool).
  bool OnWorkerThread() const;

  size_t num_threads() const { return workers_.size(); }

  /// Process-wide default pool (lazily created with hardware concurrency).
  static ThreadPool& Global();

 private:
  /// One worker's task deque. Cache-line separated so pushes to neighboring
  /// queues never false-share; the mutex covers only push/pop of the deque.
  struct alignas(64) WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(size_t self);
  /// Pops from queue `q` (front). True on success.
  bool PopFrom(size_t q, std::function<void()>* task);
  /// Steals from any sibling of `self` (back, to stay off the owner's hot
  /// end). True on success.
  bool StealFrom(size_t self, std::function<void()>* task);
  /// Wakes one sleeping worker if any worker is parked.
  void WakeOne();

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::atomic<size_t> next_queue_{0};

  /// Queued-but-not-yet-popped tasks across all worker queues. Drives the
  /// sleep predicate; each push strictly precedes its increment so a woken
  /// worker that sees pending_ > 0 will find the task by scanning.
  std::atomic<size_t> pending_{0};
  /// Submitted-but-not-finished tasks; drives Wait().
  std::atomic<size_t> in_flight_{0};
  std::atomic<bool> shutting_down_{false};

  /// Sleep/wake plane — touched only when workers run dry.
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<size_t> num_sleepers_{0};

  /// Wait() plane.
  std::mutex wait_mu_;
  std::condition_variable all_done_;
};

/// Runs `fn(i)` for every i in [begin, end) across the given pool (or the
/// global pool when `pool` is nullptr), in contiguous chunks. Blocks until
/// every iteration has finished. Falls back to a serial loop for tiny ranges
/// and when invoked from a worker of the target pool (nested parallelism —
/// the outer loop already owns the workers).
///
/// Dispatch is chunk-claiming: the range is cut into at most one chunk per
/// worker (4x oversubscription only for large ranges, where per-item cost
/// imbalance is worth extra claims), a handful of runner tasks are submitted,
/// and the calling thread claims and executes chunks alongside them from a
/// shared atomic cursor. A small batch therefore costs a few uncontended
/// per-worker pushes — not one pool-wide lock round-trip per chunk — and the
/// caller never blocks while there is work left to claim.
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn,
                 ThreadPool* pool = nullptr);

/// ParallelFor's chunked form: calls `fn(chunk_begin, chunk_end)` once per
/// contiguous chunk, with the same chunking and serial fallbacks (a serial
/// fallback is one call over the whole range). The chunks are disjoint and
/// cover [begin, end); use this when each chunk owns per-chunk scratch.
void ParallelForChunks(size_t begin, size_t end,
                       const std::function<void(size_t, size_t)>& fn,
                       ThreadPool* pool = nullptr);

}  // namespace inflex

#endif  // INFLEX_UTIL_THREAD_POOL_H_
