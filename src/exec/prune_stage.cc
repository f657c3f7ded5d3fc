#include "exec/prune_stage.h"

#include <algorithm>
#include <atomic>
#include <span>
#include <string>

#include "core/upper_bound.h"
#include "index/shard_backing.h"

namespace rtk {

namespace {

// One shard's classification lists, merged in shard order afterwards.
struct ShardResult {
  Status status;  // OK, or the shard's lazy-verification Corruption
  std::vector<uint32_t> hits;
  std::vector<uint32_t> undecided;
  uint64_t candidates = 0;
  double min_margin = 0.0;  // 0 = none seen in this shard
};

// Order-independent min-merge of the decision-margin observable: the
// distance between a node's proximity estimate and the k-th lower bound
// it is compared against. The smallest positive margin is the precision
// the certificate needed to classify every node this shard touched.
inline void NoteKthBoundMargin(double value, double bound, ShardResult* out) {
  if (bound <= 0.0) return;
  const double gap = value > bound ? value - bound : bound - value;
  if (gap > 0.0 && (out->min_margin == 0.0 || gap < out->min_margin)) {
    out->min_margin = gap;
  }
}

// Classifies storage shard s exactly like the serial Algorithm 4 scan,
// with every comparison widened by the proximity row's error bounds (see
// the header): p_hi/p_lo bracket the true proximity, so a drop or a hit
// holds for EVERY value inside the interval. With zero bounds p_hi == p_lo
// == to_q[u] bitwise and the scan is the original exact classification,
// branch for branch.
void ScanShardResident(const LowerBoundIndex& index, uint32_t s,
                       const std::vector<double>& to_q,
                       const ShardScanView& view,
                       const PruneStageOptions& options, ShardResult* out) {
  const uint32_t k = options.k;
  const uint32_t capacity_k = index.capacity_k();
  const double tie = options.tie_epsilon;
  const double* eps_node =
      options.eps_node != nullptr ? options.eps_node->data() : nullptr;
  const auto [lo, hi] = index.ShardNodeRange(s);
  const std::span<const double> lower_bounds = view.bounds;
  const std::span<const double> residues = view.residues;
  for (uint32_t u = lo; u < hi; ++u) {
    const double p_u_q = to_q[u];  // proximity estimate from u to q
    const double e_below = eps_node != nullptr ? eps_node[u] : options.eps_below;
    const double e_above = eps_node != nullptr ? eps_node[u] : options.eps_above;
    const double p_hi = p_u_q + e_above;
    const double p_lo = p_u_q - e_below;
    if (p_hi <= 0.0) {
      continue;  // q certifiedly unreachable from u (see class docs)
    }
    const double* row =
        lower_bounds.data() + static_cast<size_t>(u - lo) * capacity_k;
    NoteKthBoundMargin(p_u_q, row[k - 1], out);
    const double cutoff = row[k - 1] - tie;
    if (p_hi < cutoff) {
      continue;  // pruned by the index (never becomes a candidate)
    }
    ++out->candidates;
    // A hit certificate must also rule the drop branches out for the whole
    // interval; with an exact row this is vacuously true on this path.
    const bool certified_alive = p_lo > 0.0 && p_lo >= cutoff;

    // Exact stored bounds decide immediately (Alg. 4 lines 5-7).
    const double residue = residues[u - lo];
    if (residue == 0.0) {
      if (certified_alive) {
        out->hits.push_back(u);
        continue;
      }
    } else {
      // First upper-bound test on the stored state (Alg. 4 lines 8-11).
      const double ub = ComputeUpperBound({row, capacity_k}, k, residue);
      if (certified_alive && p_lo >= ub - tie) {
        out->hits.push_back(u);
        continue;
      }
    }
    if (!options.approximate_hits_only) out->undecided.push_back(u);
  }
}

// The cold-tier mirror of ScanShardResident: streams the shard's raw
// serialized records in place (mmap pages, no heap materialization). Each
// node's classification reads only the cutoff bound and |r|_1 from its
// record; the full K-row is copied into `scratch` exclusively for a
// candidate whose hit test needs ComputeUpperBound. Every branch, constant
// and comparison matches the resident scan — the classification of node u
// is a pure function of (record bytes, to_q[u], options), so resident and
// cold scans of the same shard bytes emit identical lists.
Status ScanShardCold(const LowerBoundIndex& index, uint32_t s,
                     const std::vector<double>& to_q,
                     const ShardScanView& view,
                     const PruneStageOptions& options,
                     std::vector<double>* scratch, ShardResult* out) {
  const uint32_t k = options.k;
  const uint32_t capacity_k = index.capacity_k();
  const double tie = options.tie_epsilon;
  const double* eps_node =
      options.eps_node != nullptr ? options.eps_node->data() : nullptr;
  const auto [lo, hi] = index.ShardNodeRange(s);
  ShardPayloadCursor cursor(view.payload, capacity_k);
  for (uint32_t u = lo; u < hi; ++u) {
    if (!cursor.Next()) {
      return Status::Corruption("malformed record for node " +
                                std::to_string(u) + " in mapped shard " +
                                std::to_string(s));
    }
    const double p_u_q = to_q[u];
    const double e_below = eps_node != nullptr ? eps_node[u] : options.eps_below;
    const double e_above = eps_node != nullptr ? eps_node[u] : options.eps_above;
    const double p_hi = p_u_q + e_above;
    const double p_lo = p_u_q - e_below;
    if (p_hi <= 0.0) {
      continue;
    }
    const double bound_k = cursor.Bound(k);
    NoteKthBoundMargin(p_u_q, bound_k, out);
    const double cutoff = bound_k - tie;
    if (p_hi < cutoff) {
      continue;
    }
    ++out->candidates;
    const bool certified_alive = p_lo > 0.0 && p_lo >= cutoff;

    const double residue = cursor.Residue();
    if (residue == 0.0) {
      if (certified_alive) {
        out->hits.push_back(u);
        continue;
      }
    } else if (certified_alive) {
      // The only branch needing the full row (the resident scan computes
      // the bound unconditionally, but it feeds no decision unless the
      // node is certified alive — skipping the copy cannot change any
      // classification).
      if (scratch->size() < capacity_k) scratch->resize(capacity_k);
      cursor.CopyRow(scratch->data());
      const double ub =
          ComputeUpperBound({scratch->data(), capacity_k}, k, residue);
      if (p_lo >= ub - tie) {
        out->hits.push_back(u);
        continue;
      }
    }
    if (!options.approximate_hits_only) out->undecided.push_back(u);
  }
  if (!cursor.exhausted()) {
    return Status::Corruption("trailing bytes in mapped shard " +
                              std::to_string(s));
  }
  return Status::OK();
}

}  // namespace

PruneResult RunPruneStage(const LowerBoundIndex& index,
                          const std::vector<double>& to_q,
                          const PruneStageOptions& options, ThreadPool* pool) {
  PruneResult result;
  const uint32_t num_shards = index.num_shards();
  if (num_shards == 0) return result;
  result.shards_scanned = num_shards;

  std::vector<ShardResult> shards(num_shards);
  // Sticky abort flag: once any worker observes an expired deadline, a
  // cancelled token, or a corrupt mapped shard, remaining shards are
  // skipped (the scan "aborts between shards" — a shard is either fully
  // scanned or untouched).
  std::atomic<bool> aborted{false};
  const ExecControl* control = options.control;
  // Chunk boundaries and the worker that scans a shard affect scheduling
  // only: per-shard output is position-independent and the merge below is
  // in shard order.
  ParallelForRange(
      pool, 0, num_shards, options.max_parallelism, /*grain=*/0,
      [&](int64_t s_lo, int64_t s_hi) {
        std::vector<double> scratch;  // per-range row buffer (cold scans)
        for (int64_t s = s_lo; s < s_hi; ++s) {
          if (aborted.load(std::memory_order_relaxed)) return;
          if (control != nullptr && control->active() &&
              control->ShouldAbort()) {
            aborted.store(true, std::memory_order_relaxed);
            return;
          }
          const ShardScanView view = index.ShardScan(s);
          Status shard_status = view.status;
          if (shard_status.ok()) {
            if (view.resident) {
              ScanShardResident(index, static_cast<uint32_t>(s), to_q, view,
                                options, &shards[s]);
            } else {
              shard_status =
                  ScanShardCold(index, static_cast<uint32_t>(s), to_q, view,
                                options, &scratch, &shards[s]);
            }
          }
          if (!shard_status.ok()) {
            shards[s].status = std::move(shard_status);
            aborted.store(true, std::memory_order_relaxed);
            return;
          }
          // Residency signal: candidates are the scan's deep touches (the
          // rows that survived the cutoff test). Result-invisible.
          index.RecordShardTouches(static_cast<uint32_t>(s),
                                   shards[s].candidates);
        }
      });
  if (aborted.load(std::memory_order_relaxed)) {
    // Corruption is pinned to the first bad shard in shard order;
    // otherwise the abort reason came from the control.
    for (ShardResult& shard : shards) {
      if (!shard.status.ok()) {
        result.status = std::move(shard.status);
        return result;
      }
    }
    result.status = control->Check();
    if (result.status.ok()) {  // unreachable: the abort reason is sticky
      result.status = Status::Cancelled("prune scan aborted");
    }
    return result;
  }

  // Deterministic merge: shard order == ascending node order.
  size_t total_hits = 0, total_undecided = 0;
  for (const ShardResult& shard : shards) {
    total_hits += shard.hits.size();
    total_undecided += shard.undecided.size();
    result.candidates += shard.candidates;
    if (shard.min_margin > 0.0 &&
        (result.min_kth_bound_gap == 0.0 ||
         shard.min_margin < result.min_kth_bound_gap)) {
      result.min_kth_bound_gap = shard.min_margin;
    }
  }
  result.hits.reserve(total_hits);
  result.undecided.reserve(total_undecided);
  for (ShardResult& shard : shards) {
    result.hits.insert(result.hits.end(), shard.hits.begin(),
                       shard.hits.end());
    result.undecided.insert(result.undecided.end(), shard.undecided.begin(),
                            shard.undecided.end());
  }
  return result;
}

}  // namespace rtk
