// Binary serialization of the LowerBoundIndex.
//
// SaveIndex writes format version 3 (native little-endian, not cross-endian
// portable):
//   magic "RTKIDX03"
//   u32 num_nodes, u32 capacity_k
//   f64 alpha, f64 eta, f64 delta, i32 max_iterations
//   hub meta: u32 num_hubs, f64 omega, u64 dropped, hubs[], offsets[]
//   u64 hub blob checksum (FNV-1a over the hub entries blob below)
//   shard directory: u32 shard_nodes, u32 num_shards,
//                    per shard (u64 payload_bytes, u64 FNV-1a checksum)
//   u64 header checksum (FNV-1a over magic .. directory)
//   hub entries blob: packed (u32, f64) pairs, offsets.back() of them
//   shard payloads, concatenated in shard order; each payload is the
//   shard's per-node records:
//     f64 topk[K], f64 residue_l1, u32 iterations,
//     3 x (u64 count, (u32,f64) pairs)   -- residue, retained, hub ink
//
// The directory makes shards independently addressable and verifiable, so
// Save serializes and Load deserializes shards in parallel on a thread
// pool, and a flipped bit is pinned to the shard it corrupted. The hub
// entries blob sits OUTSIDE the header checksum, so the checksummed header
// is O(|H| + num_shards) bytes: an mmap-tier open verifies the header, maps
// the file, and defers BOTH shard payloads and the hub blob to first
// touch.
//
// Older files stay readable. Version 2 ("RTKIDX02") differs only in its
// hub section: the packed entries follow offsets[] inside the checksummed
// header, and there is no blob checksum. Version 1 ("RTKIDX01") has v2's
// header up to the hub section, then every node record back to back and
// one trailing FNV-1a over the whole file; it has no shard directory, so
// it loads on the heap tier only.
//
// Every reader (LoadIndex in both tiers, ReadIndexFileInfo) goes through
// one header parse: it reads the magic, the common header, the hub section
// and the shard directory through the streaming checksum, bounds every
// count-sized allocation by the bytes left in the file, verifies the
// header checksum, and resolves the layout into an IndexFileInfo
// (shard_backing.h).

#ifndef RTK_INDEX_INDEX_IO_H_
#define RTK_INDEX_INDEX_IO_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/thread_pool.h"
#include "index/lower_bound_index.h"
#include "index/shard_backing.h"

namespace rtk {

/// \brief Knobs for LoadIndex.
struct LoadIndexOptions {
  /// Reads + verifies the shards of a sharded (v2 or v3) file in parallel
  /// when provided (heap tier), and is forwarded to the engine for later
  /// use either way.
  ThreadPool* pool = nullptr;
  /// kHeap parses every shard eagerly (the classic load). kMmap maps the
  /// file and returns after validating the header — O(directory) — with
  /// shard payloads faulted in on first touch, checksum-verified lazily.
  /// v3 files additionally defer the hub store to first use; a v1 file
  /// fails with InvalidArgument (no shard directory to map).
  StorageTier tier = StorageTier::kHeap;
};

/// \brief Writes the index to `path` in format version 3, atomically: a
/// temp file `<path>.tmp` renamed over `path`, removed again on failure.
/// With a pool, shard payloads serialize in parallel; the file bytes are
/// identical either way. An mmap-tier index whose hub blob or a shard
/// fails verification is not written (Corruption).
Status SaveIndex(const LowerBoundIndex& index, const std::string& path,
                 ThreadPool* pool = nullptr);

/// \brief Reads an index file of format version 1, 2 or 3.
/// `expected_nodes` guards against loading an index built for a different
/// graph (pass the graph's node count). With a pool, the shards of a v2 or
/// v3 file are read and verified in parallel.
Result<LowerBoundIndex> LoadIndex(const std::string& path,
                                  uint32_t expected_nodes,
                                  ThreadPool* pool = nullptr);

/// \brief LoadIndex with an explicit storage tier (see LoadIndexOptions).
Result<LowerBoundIndex> LoadIndex(const std::string& path,
                                  uint32_t expected_nodes,
                                  const LoadIndexOptions& options);

/// \brief Reads only the header of an index file: shape, hub section,
/// shard layout. Verifies the header checksum (v2 and v3), not the payload
/// checksums.
Result<IndexFileInfo> ReadIndexFileInfo(const std::string& path);

}  // namespace rtk

#endif  // RTK_INDEX_INDEX_IO_H_
