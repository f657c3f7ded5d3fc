#include "common/thread_pool.h"

#include <algorithm>
#include <memory>

#if defined(RTK_NUMA_AFFINITY) && defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace rtk {

namespace {

// Stable per-thread worker identity (-1 off-pool), assigned once at worker
// start. Thread-local rather than per-pool: a thread belongs to at most
// one pool for its whole life.
thread_local int tls_worker_index = -1;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(num_threads, 1);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++inflight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return inflight_ == 0; });
}

int ThreadPool::DefaultThreads() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int ThreadPool::CurrentWorkerIndex() { return tls_worker_index; }

bool ThreadPool::BindWorkersToCpus() {
#if defined(RTK_NUMA_AFFINITY) && defined(__linux__)
  const unsigned ncpu = std::thread::hardware_concurrency();
  if (ncpu == 0) return false;
  bool all_bound = true;
  for (size_t i = 0; i < workers_.size(); ++i) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<int>(i % ncpu), &set);
    all_bound &= pthread_setaffinity_np(workers_[i].native_handle(),
                                        sizeof(set), &set) == 0;
  }
  return all_bound;
#else
  return false;  // portable no-op: affinity is an opt-in Linux-only knob
#endif
}

void ThreadPool::WorkerLoop(int worker_index) {
  tls_worker_index = worker_index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--inflight_ == 0) all_done_.notify_all();
    }
  }
}

namespace {

// Shared state of one ParallelForRange call. Heap-allocated and owned
// jointly by the caller and every helper closure: a helper scheduled after
// the caller already drained the range still reads `next` safely, finds no
// chunk, and exits.
struct RangeState {
  std::atomic<int64_t> next{0};  // next chunk index to claim
  std::atomic<int64_t> done{0};  // chunks fully executed
  int64_t num_chunks = 0;
  int64_t chunk = 0;
  int64_t begin = 0;
  int64_t end = 0;
  std::mutex mu;
  std::condition_variable all_done;
  // Only dereferenced while an unfinished chunk is held, which keeps the
  // caller (and thus the callee it points at) alive.
  const std::function<void(int64_t, int64_t)>* body = nullptr;
};

void DrainChunks(RangeState* state) {
  for (;;) {
    const int64_t c = state->next.fetch_add(1);
    if (c >= state->num_chunks) return;
    const int64_t lo = state->begin + c * state->chunk;
    const int64_t hi = std::min(state->end, lo + state->chunk);
    (*state->body)(lo, hi);
    if (state->done.fetch_add(1) + 1 == state->num_chunks) {
      // Lock before notifying so the caller cannot miss the wakeup between
      // its predicate check and its wait.
      std::lock_guard<std::mutex> lock(state->mu);
      state->all_done.notify_all();
    }
  }
}

}  // namespace

void ParallelForRange(ThreadPool* pool, int64_t begin, int64_t end,
                      int max_parallelism, int64_t grain,
                      const std::function<void(int64_t, int64_t)>& body) {
  if (end <= begin) return;
  const int64_t count = end - begin;
  int workers = (pool == nullptr) ? 1 : pool->num_threads();
  if (max_parallelism > 0) workers = std::min(workers, max_parallelism);
  if (workers <= 1 || count == 1) {
    body(begin, end);
    return;
  }
  const int64_t chunk =
      grain > 0 ? grain
                : std::max<int64_t>(
                      1, (count + static_cast<int64_t>(workers) * 4 - 1) /
                             (static_cast<int64_t>(workers) * 4));
  const int64_t num_chunks = (count + chunk - 1) / chunk;
  if (num_chunks <= 1) {
    body(begin, end);
    return;
  }

  auto state = std::make_shared<RangeState>();
  state->num_chunks = num_chunks;
  state->chunk = chunk;
  state->begin = begin;
  state->end = end;
  state->body = &body;
  const int64_t helpers =
      std::min<int64_t>(workers - 1, num_chunks - 1);
  for (int64_t i = 0; i < helpers; ++i) {
    pool->Submit([state] { DrainChunks(state.get()); });
  }
  DrainChunks(state.get());
  std::unique_lock<std::mutex> lock(state->mu);
  state->all_done.wait(lock, [&state] {
    return state->done.load() == state->num_chunks;
  });
}

namespace {

// Shared state of one ParallelForRangeAffine call; same ownership and
// completion discipline as RangeState, but ranges are claim-flag slots
// (stable boundaries) instead of a moving cursor.
struct AffineState {
  std::unique_ptr<std::atomic<uint8_t>[]> claimed;
  std::atomic<int64_t> done{0};
  int64_t num_ranges = 0;
  int64_t count = 0;
  int64_t begin = 0;
  int participants = 0;
  std::mutex mu;
  std::condition_variable all_done;
  // Only dereferenced while an unclaimed range exists, which keeps the
  // caller (and thus the callee it points at) alive.
  const std::function<void(int64_t, int64_t)>* body = nullptr;
};

void DrainAffineRanges(AffineState* state) {
  const int64_t num_ranges = state->num_ranges;
  // Preferred starting slot: worker w owns the w-th slice of the range
  // ring — a pure function of the worker's stable index, so the same
  // worker claims the same ranges scan after scan. Foreign threads (the
  // calling thread when it is not a pool worker) start at 0.
  const int wi = ThreadPool::CurrentWorkerIndex();
  int64_t start = 0;
  if (wi >= 0 && state->participants > 0) {
    start = static_cast<int64_t>(wi % state->participants) * num_ranges /
            state->participants;
  }
  for (int64_t i = 0; i < num_ranges; ++i) {
    const int64_t r = (start + i) % num_ranges;
    uint8_t expected = 0;
    if (!state->claimed[r].compare_exchange_strong(
            expected, 1, std::memory_order_acq_rel)) {
      continue;  // owned or stolen by another participant
    }
    const int64_t lo = state->begin + state->count * r / num_ranges;
    const int64_t hi = state->begin + state->count * (r + 1) / num_ranges;
    (*state->body)(lo, hi);
    if (state->done.fetch_add(1) + 1 == num_ranges) {
      std::lock_guard<std::mutex> lock(state->mu);
      state->all_done.notify_all();
    }
  }
}

}  // namespace

void ParallelForRangeAffine(
    ThreadPool* pool, int64_t begin, int64_t end, int max_parallelism,
    const std::function<void(int64_t, int64_t)>& body) {
  if (end <= begin) return;
  const int64_t count = end - begin;
  int workers = (pool == nullptr) ? 1 : pool->num_threads();
  if (max_parallelism > 0) workers = std::min(workers, max_parallelism);
  if (workers <= 1 || count == 1) {
    body(begin, end);
    return;
  }
  // 4 ranges per participant: enough steal granularity to absorb skew,
  // few enough that a worker's owned slice stays contiguous. Boundaries
  // depend only on (count, workers) — stable across repeated scans.
  const int64_t num_ranges =
      std::min<int64_t>(count, static_cast<int64_t>(workers) * 4);

  auto state = std::make_shared<AffineState>();
  state->claimed = std::make_unique<std::atomic<uint8_t>[]>(num_ranges);
  for (int64_t r = 0; r < num_ranges; ++r) {
    state->claimed[r].store(0, std::memory_order_relaxed);
  }
  state->num_ranges = num_ranges;
  state->count = count;
  state->begin = begin;
  state->participants = workers;
  state->body = &body;
  const int64_t helpers = std::min<int64_t>(workers - 1, num_ranges - 1);
  for (int64_t i = 0; i < helpers; ++i) {
    pool->Submit([state] { DrainAffineRanges(state.get()); });
  }
  DrainAffineRanges(state.get());
  std::unique_lock<std::mutex> lock(state->mu);
  state->all_done.wait(lock, [&state] {
    return state->done.load() == state->num_ranges;
  });
}

}  // namespace rtk
