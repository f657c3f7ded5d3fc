// The deterministic index behind the checked-in index fixtures
// (tests/data/index_v{1,2,3}_golden.idx), and a helper that re-seals an
// edited v3 file's checksums, shared by the persistence tests.
//
// The fixtures hold one index in each format version, each written by a
// writer of that version (SaveIndex now writes only v3). A rebuild of
// BuildGoldenIndex() equals each of them bit for bit, and SaveIndex of it
// reproduces the v3 file byte for byte.

#ifndef RTK_TESTS_INDEX_FIXTURES_H_
#define RTK_TESTS_INDEX_FIXTURES_H_

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>

#include "bca/hub_selection.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "rwr/transition.h"

namespace rtk {

/// The fixtures' graph: Erdos-Renyi, 60 nodes and 400 edges, seed 7.
inline Graph GoldenGraph() {
  Rng rng(7);
  return std::move(ErdosRenyi(60, 400, &rng)).value();
}

/// The fixtures' index over GoldenGraph() and its operator: degree-budget
/// hubs (b = 4), K = 8, 16-node shards (four shards over 60 nodes).
inline Result<LowerBoundIndex> BuildGoldenIndex(const Graph& graph,
                                                const TransitionOperator& op) {
  RTK_ASSIGN_OR_RETURN(std::vector<uint32_t> hubs,
                       SelectHubs(graph, {.degree_budget_b = 4}));
  IndexBuildOptions opts;
  opts.capacity_k = 8;
  opts.shard_nodes = 16;
  return BuildLowerBoundIndex(op, hubs, opts);
}

/// The checked-in fixture of format `version` (1, 2 or 3).
inline std::string GoldenIndexPath(uint32_t version) {
  return std::string(RTK_TEST_DATA_DIR) + "/index_v" +
         std::to_string(version) + "_golden.idx";
}

inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Re-seals every checksum the loaders verify in the bytes of a v3 file
/// laid out as `layout` (ReadIndexFileInfo of the file before an in-place
/// edit): each shard's payload checksum in the directory, the hub blob
/// checksum, then the header checksum over both. Only the parser's own
/// validation can then reject the edit.
inline void ResealV3(const IndexFileInfo& layout, std::string* bytes) {
  const auto put = [&](uint64_t at, uint64_t value) {
    std::memcpy(bytes->data() + at, &value, sizeof(value));
  };
  const auto sum = [&](uint64_t at, uint64_t len) {
    return Fnv1a64(std::string_view(*bytes).substr(at, len));
  };
  // The header ends with the hub blob checksum, the shard width and count
  // (u32 each), the directory and the header checksum; the hub blob
  // follows it.
  const uint64_t header_sum_at = layout.hub_blob_offset - sizeof(uint64_t);
  const uint64_t directory_at =
      header_sum_at - layout.num_shards * 2 * sizeof(uint64_t);
  for (uint32_t s = 0; s < layout.num_shards; ++s) {
    put(directory_at + (2 * s + 1) * sizeof(uint64_t),
        sum(layout.shard_offsets[s], layout.shard_bytes[s]));
  }
  put(directory_at - 2 * sizeof(uint64_t),
      sum(layout.hub_blob_offset, layout.hub_blob_bytes));
  put(header_sum_at, sum(0, header_sum_at));
}

}  // namespace rtk

#endif  // RTK_TESTS_INDEX_FIXTURES_H_
