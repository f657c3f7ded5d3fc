#include "common/thread_pool.h"

#include <algorithm>
#include <memory>

namespace rtk {

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(num_threads, 1);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
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

void ThreadPool::WorkerLoop() {
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

}  // namespace rtk
