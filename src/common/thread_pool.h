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

  /// \brief The calling thread's stable worker index in its pool, or -1
  /// for threads that are not pool workers. The index is assigned once at
  /// worker start and never changes, so it is a stable identity for
  /// thread-affine work placement (ParallelForRangeAffine).
  static int CurrentWorkerIndex();

  /// \brief Pins worker i to CPU (i mod ncpu), so thread-affine shard
  /// ranges become CPU-affine (and on multi-socket machines NUMA-affine:
  /// a worker's shards are faulted and re-scanned from the same node).
  /// Compiled to a no-op returning false unless the build enables
  /// RTK_ENABLE_NUMA (CMake) on a platform with pthread affinity. Returns
  /// true iff every worker was pinned.
  bool BindWorkersToCpus();

 private:
  void WorkerLoop(int worker_index);

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

/// \brief Affinity-aware variant of ParallelForRange for repeated scans of
/// the same index: [begin, end) is cut into R = min(count, P*4) STABLE
/// contiguous ranges (boundaries are a pure function of count and the
/// participant cap P — never of scheduling), and each participant first
/// claims the ranges its worker index maps to, stealing forward around the
/// ring only when its own are done. Back-to-back scans of the same index
/// therefore send each pool worker to the same shards (warm caches; with
/// BindWorkersToCpus, the same CPU/NUMA node), while stealing keeps skewed
/// ranges load-balanced. Claims are per-range CAS flags, so every range
/// runs exactly once; completion and re-entrancy semantics are identical
/// to ParallelForRange (safe inside pool tasks, caller participates).
/// Determinism: like ParallelForRange, callers needing deterministic
/// output must make per-element work independent of which thread runs it
/// (all callers in this library do).
void ParallelForRangeAffine(ThreadPool* pool, int64_t begin, int64_t end,
                            int max_parallelism,
                            const std::function<void(int64_t, int64_t)>& body);

}  // namespace rtk

#endif  // RTK_COMMON_THREAD_POOL_H_
