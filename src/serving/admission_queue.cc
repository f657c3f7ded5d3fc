#include "serving/admission_queue.h"

#include <algorithm>
#include <utility>

namespace rtk {

bool AdmissionQueue::TryPush(PendingQuery& item) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ != 0 && depth_ >= capacity_) {
    ++shed_;
    return false;
  }
  const int lane = static_cast<int>(item.request.priority);
  lanes_[std::clamp(lane, 0, kNumRequestPriorities - 1)].push_back(
      std::move(item));
  ++depth_;
  ++admitted_;
  peak_depth_ = std::max(peak_depth_, depth_);
  return true;
}

std::vector<PendingQuery> AdmissionQueue::PopUpTo(size_t n) {
  std::vector<PendingQuery> batch;
  std::lock_guard<std::mutex> lock(mu_);
  batch.reserve(std::min(n, depth_));
  for (auto& lane : lanes_) {  // array order == urgency order
    while (batch.size() < n && !lane.empty()) {
      batch.push_back(std::move(lane.front()));
      lane.pop_front();
      --depth_;
      ++popped_;
    }
    if (batch.size() == n) break;
  }
  return batch;
}

size_t AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depth_;
}

AdmissionQueueStats AdmissionQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  AdmissionQueueStats stats;
  stats.admitted = admitted_;
  stats.shed = shed_;
  stats.popped = popped_;
  stats.depth = depth_;
  stats.peak_depth = peak_depth_;
  return stats;
}

}  // namespace rtk
