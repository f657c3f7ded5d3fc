// Fixed-size thread pool with range-apply helpers.
//
// The paper parallelizes index construction across 100 cluster cores by
// noting that per-node BCA runs are independent. We provide the same
// parallelism on a single machine. The pool is deliberately simple: a
// blocking task queue plus ParallelForRange, which joins on its own chunks
// only, so the index builder, the brute-force baselines and the query
// stages can share one pool with unrelated work.

#ifndef RTK_COMMON_THREAD_POOL_H_
#define RTK_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace rtk {

/// \brief A fixed-size worker pool. Tasks are void() closures; exceptions
/// must not escape tasks (the library does not use exceptions).
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1; values < 1 coerced).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// \brief Blocks until every submitted task has finished.
  void Wait();

  /// \brief Number of worker threads.
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// \brief Default pool size: the hardware concurrency, at least 1.
  static int DefaultThreads();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  int64_t inflight_ = 0;  // queued + running tasks
  bool shutdown_ = false;
};

/// \brief Range-apply helper for intra-query parallelism: splits
/// [begin, end) into contiguous chunks claimed from a shared atomic cursor
/// and runs body(lo, hi) for each, using up to `max_parallelism` workers of
/// `pool` (0 = the whole pool). Blocks until every chunk has completed.
///
/// It is re-entrant: it is safe to call from inside a pool task (the
/// serving engine runs queries as pool tasks whose stages fan out on the
/// same pool). The calling thread participates in chunk
/// draining and waits only on a per-call completion count — never on the
/// pool's global inflight count — so a fully saturated pool degrades to the
/// caller executing every chunk inline instead of deadlocking; helper tasks
/// that get scheduled after the work is gone exit without touching it.
///
/// `grain` > 0 fixes the chunk size (1 = pure work queue, for skewed
/// per-item costs); 0 picks ~4 chunks per worker. Chunk boundaries affect
/// scheduling only; callers needing deterministic output must make per-
/// element work independent of chunking (all callers in this library do).
void ParallelForRange(ThreadPool* pool, int64_t begin, int64_t end,
                      int max_parallelism, int64_t grain,
                      const std::function<void(int64_t, int64_t)>& body);

}  // namespace rtk

#endif  // RTK_COMMON_THREAD_POOL_H_
