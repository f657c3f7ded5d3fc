#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

namespace rtk {

size_t MetricShardOfThisThread() {
  // A process-wide round-robin ticket taken once per thread spreads
  // threads across cells evenly (hashing thread::id clusters badly on
  // some libstdc++ implementations).
  static std::atomic<size_t> next_ticket{0};
  thread_local const size_t shard =
      next_ticket.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

double HistogramBucketUpperBound(size_t i) {
  return kHistogramBaseSeconds * static_cast<double>(uint64_t{1} << i);
}

size_t Histogram::BucketOf(double seconds) {
  if (!(seconds > kHistogramBaseSeconds)) return 0;  // NaN/negatives too
  // Bucket i covers (base * 2^(i-1), base * 2^i]: i is the position of the
  // ratio's leading bit, i.e. ceil(log2(seconds / base)).
  const double ratio = seconds / kHistogramBaseSeconds;
  const size_t bucket =
      static_cast<size_t>(std::ceil(std::log2(ratio)));
  return std::min(bucket, kHistogramBuckets - 1);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  uint64_t nanos = 0;
  for (const ShardCells& shard : cells_) {
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      snap.buckets[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
    nanos += shard.sum_nanos.load(std::memory_order_relaxed);
  }
  for (uint64_t b : snap.buckets) snap.count += b;
  snap.sum_seconds = static_cast<double>(nanos) * 1e-9;
  return snap;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  // Nearest rank over the cumulative bucket counts, mirroring
  // NearestRankPercentile on the raw samples (common/stopwatch.h): the
  // answer is the upper edge of the bucket holding sample #rank.
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(clamped / 100.0 * static_cast<double>(count))));
  uint64_t seen = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) return HistogramBucketUpperBound(i);
  }
  return HistogramBucketUpperBound(kHistogramBuckets - 1);
}

// ----------------------------------------------------------- exposition --

double MetricsSnapshot::ValueOf(const std::string& name) const {
  for (const MetricValue& v : values) {
    if (v.name == name) return v.value;
  }
  return 0.0;
}

const HistogramSnapshot* MetricsSnapshot::HistogramOf(
    const std::string& name) const {
  for (const MetricHistogram& h : histograms) {
    if (h.name == name) return &h.snapshot;
  }
  return nullptr;
}

namespace {

// %.17g round-trips doubles; trim to %g-style where exact.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  double parsed = 0.0;
  std::sscanf(buf, "%lf", &parsed);
  if (parsed != v) std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const MetricValue& v : values) {
    out += "# TYPE " + v.name + " " + v.type + "\n";
    out += v.name + " " + FormatDouble(v.value) + "\n";
  }
  for (const MetricHistogram& h : histograms) {
    out += "# TYPE " + h.name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      cumulative += h.snapshot.buckets[i];
      // The final log2 bucket is open-ended; expose it as +Inf per the
      // exposition format (its finite edge would lie about coverage).
      const std::string le =
          i + 1 == kHistogramBuckets
              ? "+Inf"
              : FormatDouble(HistogramBucketUpperBound(i));
      out += h.name + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += h.name + "_sum " + FormatDouble(h.snapshot.sum_seconds) + "\n";
    out += h.name + "_count " + std::to_string(h.snapshot.count) + "\n";
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{";
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ",";
    first = false;
  };
  for (const MetricValue& v : values) {
    comma();
    out += "\"" + v.name + "\":" + FormatDouble(v.value);
  }
  for (const MetricHistogram& h : histograms) {
    comma();
    out += "\"" + h.name + "\":{\"count\":" +
           std::to_string(h.snapshot.count) +
           ",\"sum_seconds\":" + FormatDouble(h.snapshot.sum_seconds) +
           ",\"p50_seconds\":" + FormatDouble(h.snapshot.Percentile(50)) +
           ",\"p95_seconds\":" + FormatDouble(h.snapshot.Percentile(95)) +
           ",\"p99_seconds\":" + FormatDouble(h.snapshot.Percentile(99)) +
           ",\"buckets\":[";
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      if (i > 0) out += ",";
      out += std::to_string(h.snapshot.buckets[i]);
    }
    out += "]}";
  }
  out += "}";
  return out;
}

}  // namespace rtk
