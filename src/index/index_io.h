// Binary serialization of the LowerBoundIndex.
//
// Format version 3 (native little-endian, not cross-endian portable):
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
// pool, and a flipped bit is pinned to the shard it corrupted. Keeping
// the hub entries blob OUTSIDE the header checksum (unlike v2, which
// streamed the entries inside the header) makes the checksummed header
// O(|H| + num_shards) bytes: an mmap-tier open verifies the header, maps
// the file, and defers BOTH shard payloads and the hub blob to first
// touch. Version-2 files (hub entries in the header) and version-1 files
// (monolithic payload, single trailing checksum) still load.

#ifndef RTK_INDEX_INDEX_IO_H_
#define RTK_INDEX_INDEX_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "index/lower_bound_index.h"

namespace rtk {

/// \brief Knobs for SaveIndex.
struct SaveIndexOptions {
  /// 3 (default) writes the sharded format above with the lazily-loadable
  /// hub blob; 2 writes the earlier sharded format (hub entries inside
  /// the checksummed header); 1 writes the legacy monolithic format (for
  /// downgrade paths and compatibility tests).
  uint32_t format_version = 3;
  /// Serializes shard payloads in parallel when provided (v2+; file
  /// bytes are identical with or without a pool).
  ThreadPool* pool = nullptr;
};

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

/// \brief Header-level description of an index file, readable without
/// loading the payload (rtk_cli index-info).
struct IndexFileInfo {
  uint32_t format_version = 0;
  uint32_t num_nodes = 0;
  uint32_t capacity_k = 0;
  uint32_t num_hubs = 0;
  uint64_t hub_entries = 0;
  uint32_t shard_nodes = 0;  // 0 for v1 files
  uint32_t num_shards = 0;   // 0 for v1 files
  uint64_t file_bytes = 0;
  /// v2+ only: the shard directory resolved to absolute positions —
  /// shard s's payload is [shard_offsets[s], shard_offsets[s] +
  /// shard_bytes[s]) with FNV-1a checksum shard_checksums[s]. The three
  /// vectors have num_shards entries and shard_offsets.back() +
  /// shard_bytes.back() == file_bytes (validated). Empty for v1 files.
  std::vector<uint64_t> shard_offsets;
  std::vector<uint64_t> shard_bytes;
  std::vector<uint64_t> shard_checksums;
};

/// \brief Writes the index to `path` (atomically: temp file + rename) in
/// format version 3.
Status SaveIndex(const LowerBoundIndex& index, const std::string& path);

/// \brief SaveIndex with explicit format version / parallelism.
Status SaveIndex(const LowerBoundIndex& index, const std::string& path,
                 const SaveIndexOptions& options);

/// \brief Reads an index previously written by SaveIndex (format version
/// 1, 2 or 3). `expected_nodes` guards against loading an index built for
/// a different graph (pass the graph's node count). With a pool, the
/// shards of a v2 or v3 file are read and verified in parallel.
Result<LowerBoundIndex> LoadIndex(const std::string& path,
                                  uint32_t expected_nodes,
                                  ThreadPool* pool = nullptr);

/// \brief LoadIndex with an explicit storage tier (see LoadIndexOptions).
Result<LowerBoundIndex> LoadIndex(const std::string& path,
                                  uint32_t expected_nodes,
                                  const LoadIndexOptions& options);

/// \brief Reads only the header of an index file: shape, hub count, shard
/// layout. Does not verify payload checksums.
Result<IndexFileInfo> ReadIndexFileInfo(const std::string& path);

}  // namespace rtk

#endif  // RTK_INDEX_INDEX_IO_H_
