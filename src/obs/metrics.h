// Low-overhead counters and latency histograms for the serving path, and
// the snapshot type that exports them.
//
// Design constraints, in order:
//  1. Hot-path cost. A Counter::Increment or Histogram::Record is one
//     relaxed fetch-add on a per-thread-sharded, cache-line-padded atomic
//     cell — no locks, no branches beyond the shard pick, no allocation.
//     Reading (value / Snapshot) merges the shards; it is the rare, slow
//     side.
//  2. Exactness. Relaxed atomics lose no updates, so a quiescent read
//     equals the exact event count (asserted by the TSan stress test).
//  3. Stable export. A MetricsSnapshot is a plain struct of name → value
//     rows, rendered as Prometheus-style text exposition or JSON; metric
//     names are public API (see README "Observability").
//
// Counters and histograms are plain members of the component that counts,
// looked up by no name; the owner names its rows when it builds a
// snapshot (ServingEngine::Metrics).
//
// Histograms use fixed log2-scale buckets over seconds: bucket i counts
// samples in (2^(i-1) * kHistogramBaseSeconds, 2^i * kHistogramBaseSeconds]
// with the first bucket catching everything at or below the base (1 us)
// and the last catching the rest. 40 buckets span 1 us .. ~9 hours, so a
// latency always lands in a real bucket. Percentiles come from the
// cumulative bucket counts and report the bucket's upper bound — a value
// >= the true nearest-rank percentile and < 2x above it (one bucket of
// resolution), which is the standard latency-histogram trade.

#ifndef RTK_OBS_METRICS_H_
#define RTK_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace rtk {

/// \brief Number of independent per-thread cells behind each instrument.
/// Threads hash onto cells; 16 keeps false sharing negligible for typical
/// worker-pool sizes without bloating every instrument.
inline constexpr size_t kMetricShards = 16;

/// \brief Log2 histogram geometry: bucket 0 is [0, base], bucket i>0 is
/// (base * 2^(i-1), base * 2^i], the last bucket is open-ended.
inline constexpr double kHistogramBaseSeconds = 1e-6;
inline constexpr size_t kHistogramBuckets = 40;

/// \brief Upper bound (seconds) of histogram bucket `i` (infinity-free:
/// the last bucket reports its finite lower edge times 2).
double HistogramBucketUpperBound(size_t i);

/// \brief The shard index of the calling thread (stable per thread).
size_t MetricShardOfThisThread();

namespace internal {

/// One cache-line-padded relaxed counter cell.
struct alignas(64) PaddedCell {
  std::atomic<uint64_t> value{0};
};

}  // namespace internal

/// \brief Monotone event counter. Increment is a relaxed fetch-add on the
/// calling thread's cell; value() merges cells.
class Counter {
 public:
  void Increment(uint64_t by = 1) {
    cells_[MetricShardOfThisThread()].value.fetch_add(
        by, std::memory_order_relaxed);
  }

  uint64_t value() const {
    uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::array<internal::PaddedCell, kMetricShards> cells_;
};

/// \brief Merged, point-in-time view of one histogram.
struct HistogramSnapshot {
  std::array<uint64_t, kHistogramBuckets> buckets{};
  uint64_t count = 0;
  /// Sum of recorded seconds (exact up to double accumulation order).
  double sum_seconds = 0.0;

  /// \brief Upper-bound percentile (p in [0, 100]): the upper edge of the
  /// bucket holding the nearest-rank sample; 0 when empty. Guaranteed >=
  /// the exact nearest-rank percentile of the recorded samples and within
  /// one bucket (a factor of 2) above it — see the file comment.
  double Percentile(double p) const;

  double mean_seconds() const {
    return count == 0 ? 0.0 : sum_seconds / static_cast<double>(count);
  }
};

/// \brief Fixed-bucket log2 latency histogram. Record is two relaxed
/// fetch-adds (bucket count + sum) on the calling thread's cells.
class Histogram {
 public:
  void Record(double seconds) {
    const size_t shard = MetricShardOfThisThread();
    cells_[shard].buckets[BucketOf(seconds)].fetch_add(
        1, std::memory_order_relaxed);
    // Sum in fixed-point nanoseconds so a relaxed integer fetch-add works
    // (no atomic<double>); ~292 years of accumulated latency before wrap.
    // Negative/NaN samples count in bucket 0 but add nothing to the sum.
    if (seconds > 0.0) {
      cells_[shard].sum_nanos.fetch_add(
          static_cast<uint64_t>(seconds * 1e9), std::memory_order_relaxed);
    }
  }

  /// \brief Bucket index for a sample (public for tests).
  static size_t BucketOf(double seconds);

  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) ShardCells {
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<uint64_t> sum_nanos{0};
  };
  std::array<ShardCells, kMetricShards> cells_;
};

/// \brief One exported metric row (counter or gauge).
struct MetricValue {
  std::string name;
  /// "counter" or "gauge" (Prometheus TYPE line).
  std::string type;
  double value = 0.0;
};

/// \brief One exported histogram row.
struct MetricHistogram {
  std::string name;
  HistogramSnapshot snapshot;
};

/// \brief A set of metrics at one instant, rows sorted by name. The typed
/// programmatic view behind both expositions.
struct MetricsSnapshot {
  std::vector<MetricValue> values;
  std::vector<MetricHistogram> histograms;

  /// \brief Row lookup by exact name; 0 / empty snapshot when absent.
  double ValueOf(const std::string& name) const;
  const HistogramSnapshot* HistogramOf(const std::string& name) const;

  /// \brief Prometheus-style text exposition (…_bucket/_sum/_count rows
  /// with cumulative le="" labels for histograms).
  std::string ToPrometheusText() const;

  /// \brief JSON object: {"name": value, ...} for scalars plus one object
  /// per histogram with buckets, count, sum and p50/p95/p99.
  std::string ToJson() const;
};

}  // namespace rtk

#endif  // RTK_OBS_METRICS_H_
