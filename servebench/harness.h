// Measurement primitives of the serving benchmark: exact nearest-rank
// percentiles with their sample-count rule, span trees with self time,
// generator lateness, failure accounting and the result line.
//
// Header-only and independent of the rtk library, so harness_test.cc
// checks exactly the code the benchmark runs.

#ifndef SERVEBENCH_HARNESS_H_
#define SERVEBENCH_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

// ------------------------------------------------------------ percentiles --

/// Smallest sample count for which at least `beyond` samples lie strictly
/// above the nearest-rank p-th percentile: N - ceil(p/100 * N) >= beyond.
/// p99 needs 1000 samples, p95 needs 200, p50 needs 20.
/// No sample count suffices for p >= 100.
inline size_t MinSamplesFor(double p, size_t beyond = 10) {
  if (p >= 100.0) return std::numeric_limits<size_t>::max();
  for (size_t n = 1;; ++n) {
    const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
    if (n - rank >= beyond) return n;
  }
}

/// A percentile together with the number of samples it was taken over.
struct Quantile {
  double value = 0.0;
  size_t samples = 0;
  /// False when there were too few samples for the sample-count rule.
  bool valid = false;
};

/// Nearest-rank percentile of `samples` (any order): the ceil(p/100 * N)-th
/// smallest sample, 1-based. Valid only with at least MinSamplesFor(p)
/// samples; an invalid result still carries the value when N > 0.
inline Quantile NearestRank(std::vector<double> samples, double p) {
  Quantile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * samples.size() - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  out.value = samples[rank - 1];
  out.valid = samples.size() >= MinSamplesFor(p);
  return out;
}

/// Value a per-layer percentile reports when it had too few samples for
/// the sample-count rule.
constexpr double kInvalidPercentile = -1.0;

/// Every percentile a run reports, each kept with its sample count so the
/// run can print them all next to their values.
class QuantileReport {
 public:
  struct Entry {
    std::string metric;
    double p = 0.0;
    double scale = 1.0;  // value printed = quantile value * scale
    Quantile q;
  };

  /// Nearest-rank percentile `p` of `samples`, recorded under `metric`.
  Quantile Take(const std::string& metric, std::vector<double> samples,
                double p, double scale = 1.0) {
    const Quantile q = NearestRank(std::move(samples), p);
    entries_.push_back({metric, p, scale, q});
    return q;
  }

  /// A per-layer percentile: value * scale when valid, otherwise
  /// kInvalidPercentile. No samples at all (a layer that never ran) reads 0.
  double Layer(const std::string& metric, std::vector<double> samples,
               double p, double scale = 1.0) {
    const Quantile q = Take(metric, std::move(samples), p, scale);
    if (q.samples == 0) return 0.0;
    return q.valid ? q.value * scale : kInvalidPercentile;
  }

  const std::vector<Entry>& entries() const { return entries_; }

  /// One line per percentile: metric, value, sample count, the count the
  /// rule needs, and INVALID where it had fewer.
  std::string Table() const {
    std::string out;
    char line[256];
    for (const Entry& e : entries_) {
      const size_t need = MinSamplesFor(e.p);
      std::snprintf(line, sizeof(line), "  %-28s %12.6g  n=%-7zu needs %-5zu%s\n",
                    e.metric.c_str(), e.q.value * e.scale, e.q.samples, need,
                    e.q.samples == 0 ? "  (no samples)"
                    : e.q.valid      ? ""
                                     : "  INVALID");
      out += line;
    }
    return out;
  }

 private:
  std::vector<Entry> entries_;
};

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// ---------------------------------------------------------------- latency --

/// How late the generator issued a request against its due time (>= 0).
/// In a closed loop a request is due when the in-flight slot it takes is
/// freed.
inline double GeneratorLateness(double due, double submitted) {
  return std::max(0.0, submitted - due);
}

// --------------------------------------------------------------- failures --

/// Outcome of one attempted operation.
enum class Outcome {
  kOk,
  kShed,       // refused at admission
  kExpired,    // deadline passed
  kCancelled,
  kError,      // any other non-OK response
  kRejected,   // an update batch the engine refused
};

/// Counts attempted operations and their failures. fail_frac is
/// (shed + expired + cancelled + errors + rejected) / attempted.
struct FailureCounts {
  uint64_t attempted = 0;
  uint64_t shed = 0;
  uint64_t expired = 0;
  uint64_t cancelled = 0;
  uint64_t errors = 0;
  uint64_t rejected = 0;

  void Add(Outcome outcome) {
    ++attempted;
    switch (outcome) {
      case Outcome::kOk: break;
      case Outcome::kShed: ++shed; break;
      case Outcome::kExpired: ++expired; break;
      case Outcome::kCancelled: ++cancelled; break;
      case Outcome::kError: ++errors; break;
      case Outcome::kRejected: ++rejected; break;
    }
  }
  uint64_t failed() const {
    return shed + expired + cancelled + errors + rejected;
  }
  double fail_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
};

// ------------------------------------------------------------------ spans --

/// One timed interval. `parent` indexes the enclosing span in the same
/// vector (-1 for a root); spans of one request share `request`.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// In-memory span store; spans are only written out at the end of a run.
class SpanLog {
 public:
  int64_t Add(std::string name, double start, double end, int64_t parent,
              uint64_t request) {
    spans_.push_back({std::move(name), start, end, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  /// Closes a span opened with an unknown end (a parent whose children
  /// are recorded first).
  void SetEnd(int64_t id, double end) { spans_[id].end = end; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Tab-separated dump: id, parent, request, name, start_s, end_s.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\trequest\tname\tstart_s\tend_s\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%lld\t%llu\t%s\t%.9f\t%.9f\n", i,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name.c_str(),
                   s.start, s.end);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children may nest further,
/// overlap each other, or stick out of the parent; only the covered part
/// inside the parent counts).
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) kids[s.parent].push_back({s.start, s.end});
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

/// Per-name self-time totals (seconds) over the spans whose root has the
/// given name (an empty `root` takes every root) and whose request id is
/// below `max_request`.
inline std::map<std::string, double> SelfTimeByName(
    const std::vector<Span>& spans, const std::string& root = "",
    uint64_t max_request = std::numeric_limits<uint64_t>::max()) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].request >= max_request) continue;
    int64_t top = static_cast<int64_t>(i);
    while (spans[top].parent >= 0) top = spans[top].parent;
    if (!root.empty() && spans[top].name != root) continue;
    out[spans[i].name] += self[i];
  }
  return out;
}

// ----------------------------------------------------------------- output --

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The result line: one JSON object with correct / attempted / failed /
/// metrics. Values print with 17 significant digits, as measured.
inline std::string ResultJson(bool correct, uint64_t attempted,
                              uint64_t failed,
                              const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace servebench

#endif  // SERVEBENCH_HARNESS_H_
