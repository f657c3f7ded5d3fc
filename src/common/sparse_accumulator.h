// SparseAccumulator: dense-array-backed sparse vector workspace.
//
// BCA propagation and sparse gathers repeatedly touch a small, changing
// subset of the n vector entries. A hash map would pay hashing on the hot
// path; instead we keep a dense value array (allocated once, O(n)) plus a
// list of touched indices, giving O(1) access and O(touched) iteration and
// reset. This is the classic sparse-workspace trick used by sparse matrix
// kernels (Gustavson's algorithm).

#ifndef RTK_COMMON_SPARSE_ACCUMULATOR_H_
#define RTK_COMMON_SPARSE_ACCUMULATOR_H_

#include <cassert>
#include <cstdint>
#include <vector>

namespace rtk {

/// \brief Sparse vector workspace over a fixed dimension n.
///
/// Values start at zero. Add() accumulates and tracks which entries are
/// nonzero-touched; Clear() resets only touched entries, so reuse across
/// many sparse operations is cheap.
class SparseAccumulator {
 public:
  SparseAccumulator() = default;

  /// Creates a workspace of dimension n with all entries zero.
  explicit SparseAccumulator(uint32_t n) : values_(n, 0.0), touched_(n, 0) {}

  /// \brief Re-dimensions the workspace and clears it. O(n).
  void Resize(uint32_t n) {
    values_.assign(n, 0.0);
    touched_.assign(n, 0);
    touched_list_.clear();
  }

  /// \brief Dimension of the vector.
  uint32_t size() const { return static_cast<uint32_t>(values_.size()); }

  /// \brief Current value of entry i (zero if never touched).
  double Get(uint32_t i) const {
    assert(i < values_.size());
    return values_[i];
  }

  /// \brief Adds delta to entry i.
  void Add(uint32_t i, double delta) {
    assert(i < values_.size());
    if (!touched_[i]) {
      touched_[i] = 1;
      touched_list_.push_back(i);
    }
    values_[i] += delta;
  }

  /// \brief Sets entry i to value (tracking it as touched).
  void Set(uint32_t i, double value) {
    assert(i < values_.size());
    if (!touched_[i]) {
      touched_[i] = 1;
      touched_list_.push_back(i);
    }
    values_[i] = value;
  }

  /// \brief Indices touched since the last Clear(), in touch order.
  /// May include entries whose value returned to exactly 0.
  const std::vector<uint32_t>& touched() const { return touched_list_; }

  /// \brief Sum of all values. O(touched).
  double Sum() const {
    double s = 0.0;
    for (uint32_t i : touched_list_) s += values_[i];
    return s;
  }

  /// \brief Number of touched entries with |value| > threshold.
  size_t CountAbove(double threshold) const {
    size_t c = 0;
    for (uint32_t i : touched_list_) {
      if (values_[i] > threshold) ++c;
    }
    return c;
  }

  /// \brief Zeroes all touched entries. O(touched).
  void Clear() {
    for (uint32_t i : touched_list_) {
      values_[i] = 0.0;
      touched_[i] = 0;
    }
    touched_list_.clear();
  }

 private:
  std::vector<double> values_;
  std::vector<uint8_t> touched_;
  std::vector<uint32_t> touched_list_;
};

}  // namespace rtk

#endif  // RTK_COMMON_SPARSE_ACCUMULATOR_H_
