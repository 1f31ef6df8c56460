#include "util/thread_pool.h"

#include <algorithm>

#include "util/check.h"

namespace inflex {

namespace {
// The pool whose WorkerLoop the calling thread is running, if any. Lets
// Submit/ParallelFor/Wait detect nested use from inside a task: a worker
// blocking on its own pool's completion can deadlock the whole pool, so
// nested work runs inline instead (see the header's re-entrancy contract).
thread_local const ThreadPool* tls_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  queues_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  shutting_down_.store(true, std::memory_order_release);
  {
    // Empty critical section: a worker between its sleep-predicate check and
    // the actual block cannot miss the broadcast once we have held the lock.
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  sleep_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::OnWorkerThread() const { return tls_worker_pool == this; }

void ThreadPool::Submit(std::function<void()> task) {
  if (OnWorkerThread()) {
    // Nested submission from one of our own tasks: run it right here. All
    // sibling workers may be blocked waiting for this very task's caller to
    // finish, so parking it in the queue could wait forever.
    task();
    return;
  }
  INFLEX_CHECK(!shutting_down_.load(std::memory_order_acquire));
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  const size_t q =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mu);
    queues_[q]->tasks.push_back(std::move(task));
  }
  // The push precedes the increment: any worker that observes pending_ > 0
  // and scans will find the task (or a sibling will have claimed it).
  pending_.fetch_add(1, std::memory_order_seq_cst);
  WakeOne();
}

void ThreadPool::WakeOne() {
  // seq_cst pairing with the sleeper: the sleeper publishes num_sleepers_
  // before re-checking pending_, we publish pending_ (in Submit) before
  // reading num_sleepers_ — at least one side sees the other, so a parked
  // worker is either woken here or never parks.
  if (num_sleepers_.load(std::memory_order_seq_cst) == 0) return;
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::PopFrom(size_t q, std::function<void()>* task) {
  WorkerQueue& wq = *queues_[q];
  std::lock_guard<std::mutex> lock(wq.mu);
  if (wq.tasks.empty()) return false;
  *task = std::move(wq.tasks.front());
  wq.tasks.pop_front();
  pending_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool ThreadPool::StealFrom(size_t self, std::function<void()>* task) {
  const size_t n = queues_.size();
  for (size_t i = 1; i < n; ++i) {
    WorkerQueue& wq = *queues_[(self + i) % n];
    std::lock_guard<std::mutex> lock(wq.mu);
    if (wq.tasks.empty()) continue;
    // Steal from the back, away from the owner's pop end.
    *task = std::move(wq.tasks.back());
    wq.tasks.pop_back();
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t self) {
  tls_worker_pool = this;
  while (true) {
    std::function<void()> task;
    if (PopFrom(self, &task) || StealFrom(self, &task)) {
      task();
      task = nullptr;  // release captures before accounting
      if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        {
          std::lock_guard<std::mutex> lock(wait_mu_);
        }
        all_done_.notify_all();
      }
      continue;
    }
    // Ran dry: park until a submit lands or shutdown. num_sleepers_ is
    // published (seq_cst) before the predicate re-reads pending_, pairing
    // with WakeOne (see there).
    std::unique_lock<std::mutex> lock(sleep_mu_);
    num_sleepers_.fetch_add(1, std::memory_order_seq_cst);
    sleep_cv_.wait(lock, [this] {
      return shutting_down_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_seq_cst) > 0;
    });
    num_sleepers_.fetch_sub(1, std::memory_order_relaxed);
    if (shutting_down_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;  // every queued task has been claimed; drain is done
    }
  }
}

void ThreadPool::Wait() {
  INFLEX_CHECK(!OnWorkerThread());
  std::unique_lock<std::mutex> lock(wait_mu_);
  all_done_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(0);
  return pool;
}

void ParallelFor(size_t begin, size_t end, const std::function<void(size_t)>& fn,
                 ThreadPool* pool) {
  ParallelForChunks(
      begin, end,
      [&fn](size_t start, size_t stop) {
        for (size_t i = start; i < stop; ++i) fn(i);
      },
      pool);
}

void ParallelForChunks(size_t begin, size_t end,
                       const std::function<void(size_t, size_t)>& fn,
                       ThreadPool* pool) {
  if (begin >= end) return;
  const size_t n = end - begin;
  if (pool == nullptr) pool = &ThreadPool::Global();
  const size_t num_workers = pool->num_threads();
  // Serial fallbacks: trivial ranges, single-worker pools, and nested calls
  // from a task already running on this pool (the outer parallel stage owns
  // the workers; fanning out again would enqueue work nobody can pick up).
  if (n <= 1 || num_workers <= 1 || pool->OnWorkerThread()) {
    fn(begin, end);
    return;
  }
  // One chunk per worker unless the range is large enough that per-item cost
  // imbalance is worth extra claims; oversubscribing small ranges only
  // multiplies dispatch traffic (the old 4x-always policy turned an 8-item
  // batch into 32 lock round-trips).
  const size_t num_chunks = n >= num_workers * 64
                                ? std::min(n, num_workers * 4)
                                : std::min(n, num_workers);
  const size_t chunk = (n + num_chunks - 1) / num_chunks;

  // Chunk-claiming dispatch: runner tasks and the calling thread all claim
  // chunks from one atomic cursor. Completion is "every runner task exited
  // and the caller's own claiming loop exited" — at that point the cursor is
  // exhausted and every claimed chunk has been executed by its claimant, so
  // no task can still touch this stack frame.
  std::atomic<size_t> next_chunk{0};
  const auto run_chunks = [&] {
    while (true) {
      const size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      const size_t start = begin + c * chunk;
      // Rounding the chunk size up can leave trailing chunks empty.
      if (start >= end) return;
      fn(start, std::min(end, start + chunk));
    }
  };

  // The caller claims too, so it covers one runner's worth of chunks.
  const size_t num_runners = std::min(num_workers, num_chunks) - 1;
  size_t runners_exited = 0;  // guarded by mu
  std::mutex mu;
  std::condition_variable cv;
  for (size_t r = 0; r < num_runners; ++r) {
    pool->Submit([&] {
      run_chunks();
      // Count AND notify under the lock: if the increment were outside, the
      // waiting caller could observe completion, return, and destroy mu/cv
      // on its stack while this runner is still between the increment and
      // the notify. Notifying under the lock also keeps the caller's wait
      // blocked on re-acquiring mu until this runner is fully done with cv.
      std::lock_guard<std::mutex> lock(mu);
      if (++runners_exited == num_runners) cv.notify_all();
    });
  }
  run_chunks();
  if (num_runners > 0) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return runners_exited == num_runners; });
  }
}

}  // namespace inflex
