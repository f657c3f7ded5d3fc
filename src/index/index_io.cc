#include "index/index_io.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "index/shard_backing.h"

namespace rtk {

namespace {

constexpr char kMagicV1[8] = {'R', 'T', 'K', 'I', 'D', 'X', '0', '1'};
constexpr char kMagicV2[8] = {'R', 'T', 'K', 'I', 'D', 'X', '0', '2'};
constexpr char kMagicV3[8] = {'R', 'T', 'K', 'I', 'D', 'X', '0', '3'};

// Streaming FNV-1a over everything written/read, so corruption anywhere in
// the file is detected.
class Checksummer {
 public:
  Checksummer() = default;
  /// Resumes a previously computed running hash (FNV-1a is streaming, so
  /// a section's checksum can be patched in after its bytes are known).
  explicit Checksummer(uint64_t resume_hash) : hash_(resume_hash) {}

  void Update(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ull;
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

// One checksum definition for the whole format: the streaming Checksummer
// above and the one-shot Fnv1a64 (shard_backing.h, shared with the lazy
// mmap verification) compute the same FNV-1a.

class Writer {
 public:
  explicit Writer(std::ofstream& out) : out_(out) {}

  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.write(reinterpret_cast<const char*>(&value), sizeof(T));
    sum_.Update(&value, sizeof(T));
  }
  template <typename T>
  void Array(const T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.write(reinterpret_cast<const char*>(data), count * sizeof(T));
    sum_.Update(data, count * sizeof(T));
  }
  uint64_t checksum() const { return sum_.hash(); }
  bool good() const { return out_.good(); }

 private:
  std::ofstream& out_;
  Checksummer sum_;
};

class Reader {
 public:
  explicit Reader(std::ifstream& in) : in_(in) {}

  template <typename T>
  bool Pod(T* value) {
    in_.read(reinterpret_cast<char*>(value), sizeof(T));
    if (!in_.good()) return false;
    sum_.Update(value, sizeof(T));
    return true;
  }
  template <typename T>
  bool Array(T* data, size_t count) {
    in_.read(reinterpret_cast<char*>(data), count * sizeof(T));
    if (!in_.good()) return false;
    sum_.Update(data, count * sizeof(T));
    return true;
  }
  /// Bytes left in the file: the bound for a count read from a header
  /// whose checksum has not been verified yet, before allocating by it.
  uint64_t Remaining() {
    const std::streampos here = in_.tellg();
    in_.seekg(0, std::ios::end);
    const std::streampos end = in_.tellg();
    in_.seekg(here);
    return static_cast<uint64_t>(end - here);
  }
  uint64_t checksum() const { return sum_.hash(); }

 private:
  std::ifstream& in_;
  Checksummer sum_;
};

// In-memory append serializer for one shard payload (Save serializes
// shards concurrently, so each gets its own buffer).
class BufWriter {
 public:
  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.append(reinterpret_cast<const char*>(&value), sizeof(T));
  }
  template <typename T>
  void Array(const T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.append(reinterpret_cast<const char*>(data), count * sizeof(T));
  }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

// Serializes shard s's node records (identical record layout in v1 and
// v2; v1 simply streams the records of all nodes back to back). A node's
// BCA state is stored in its file layout already: its bytes copy once.
std::string SerializeShard(const LowerBoundIndex& index, uint32_t s) {
  BufWriter w;
  const uint32_t k = index.capacity_k();
  const auto [lo, hi] = index.ShardNodeRange(s);
  for (uint32_t u = lo; u < hi; ++u) {
    w.Array(index.LowerBounds(u).data(), k);
    w.Pod(index.ResidueL1(u));
    const std::string_view state = index.State(u).bytes();
    w.Array(state.data(), state.size());
  }
  return w.Take();
}

// Parses shard s's payload into the freshly constructed index. The shard
// is exclusively owned (nothing shares a new index's storage), so distinct
// shards parse concurrently. The record decode is ParseShardRecords
// (shard_backing.h), shared with lazy mmap materialization so eager and
// faulted loads are provably the same parse.
Status ParseShard(std::string_view payload, LowerBoundIndex* index,
                  uint32_t s) {
  IndexShard& shard = index->MutableShard(s);
  Status st = ParseShardRecords(payload, index->num_nodes(),
                                index->capacity_k(), &shard);
  if (!st.ok() && st.code() == StatusCode::kCorruption) {
    return Status::Corruption(st.message() + " (shard " + std::to_string(s) +
                              ")");
  }
  return st;
}

// The hub META: counts, omega, hub ids, per-hub offsets — everything but
// the entries themselves. Tiny (O(|H|)), so it can stay inside the
// checksummed header in every format version.
void WriteHubMeta(Writer* w, const HubProximityStore& store) {
  w->Pod<uint32_t>(store.num_hubs());
  w->Pod<double>(store.rounding_omega());
  w->Pod<uint64_t>(store.DroppedEntries());
  w->Array(store.hubs().data(), store.hubs().size());
  w->Array(store.offsets().data(), store.offsets().size());
}

void WriteHubStore(Writer* w, const HubProximityStore& store) {
  WriteHubMeta(w, store);
  const std::string entries = store.PackedEntries();
  w->Array(entries.data(), entries.size());
}

// Reads the hub-store section (shared by both format versions; the v1 and
// v2 headers are identical up to and including this section).
Result<HubProximityStore> ReadHubStore(Reader* r, uint32_t n) {
  uint32_t num_hubs = 0;
  double omega = 0.0;
  uint64_t dropped = 0;
  if (!r->Pod(&num_hubs) || !r->Pod(&omega) || !r->Pod(&dropped) ||
      num_hubs > n) {
    return Status::Corruption("bad hub header in index file");
  }
  std::vector<uint32_t> hubs(num_hubs);
  if (!r->Array(hubs.data(), hubs.size())) {
    return Status::Corruption("bad hub list");
  }
  std::vector<uint64_t> offsets(num_hubs + 1);
  if (!r->Array(offsets.data(), offsets.size())) {
    return Status::Corruption("bad hub offsets");
  }
  const uint64_t total_entries = offsets.empty() ? 0 : offsets.back();
  constexpr size_t kEntryBytes = sizeof(uint32_t) + sizeof(double);
  if (total_entries > static_cast<uint64_t>(n) * num_hubs ||
      total_entries > r->Remaining() / kEntryBytes) {
    return Status::Corruption("hub entry count exceeds n*|H| or the file");
  }
  std::string entries(total_entries * kEntryBytes, '\0');
  if (!r->Array(entries.data(), entries.size())) {
    return Status::Corruption("bad hub entries");
  }
  return HubProximityStore::FromRaw(n, std::move(hubs), std::move(offsets),
                                    entries, omega, dropped);
}

struct CommonHeader {
  uint32_t n = 0;
  uint32_t k = 0;
  BcaOptions bca;
};

Status ReadCommonHeader(Reader* r, CommonHeader* out) {
  if (!r->Pod(&out->n) || !r->Pod(&out->k) || out->k == 0) {
    return Status::Corruption("bad header in index file");
  }
  int32_t max_iters = 0;
  if (!r->Pod(&out->bca.alpha) || !r->Pod(&out->bca.eta) ||
      !r->Pod(&out->bca.delta) || !r->Pod(&max_iters)) {
    return Status::Corruption("bad BCA options in index file");
  }
  out->bca.max_iterations = max_iters;
  return Status::OK();
}

Status SaveIndexV1(const LowerBoundIndex& index, std::ofstream& out) {
  Writer w(out);
  w.Array(kMagicV1, sizeof(kMagicV1));
  const uint32_t n = index.num_nodes();
  const uint32_t k = index.capacity_k();
  w.Pod(n);
  w.Pod(k);
  const BcaOptions& bca = index.bca_options();
  w.Pod(bca.alpha);
  w.Pod(bca.eta);
  w.Pod(bca.delta);
  w.Pod<int32_t>(bca.max_iterations);
  WriteHubStore(&w, index.hub_store());
  // Shards concatenate in ascending node order, so reusing the shard
  // serializer emits the exact monolithic v1 record stream (one record
  // format, shared with v2).
  for (uint32_t s = 0; s < index.num_shards(); ++s) {
    const std::string payload = SerializeShard(index, s);
    w.Array(payload.data(), payload.size());
  }
  const uint64_t checksum = w.checksum();
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return Status::OK();
}

// Writes the sharded formats. v2 streams the hub entries inside the
// checksummed header; v3 stores only the hub meta + a blob checksum there
// and appends the packed entries AFTER the header checksum, so an mmap
// open never reads them (the hub store materializes lazily).
Status SaveIndexSharded(const LowerBoundIndex& index, std::ofstream& out,
                        ThreadPool* pool, uint32_t version) {
  const uint32_t num_shards = index.num_shards();

  Writer w(out);
  w.Array(version == 2 ? kMagicV2 : kMagicV3, sizeof(kMagicV2));
  const uint32_t n = index.num_nodes();
  const uint32_t k = index.capacity_k();
  w.Pod(n);
  w.Pod(k);
  const BcaOptions& bca = index.bca_options();
  w.Pod(bca.alpha);
  w.Pod(bca.eta);
  w.Pod(bca.delta);
  w.Pod<int32_t>(bca.max_iterations);
  std::string hub_blob;
  if (version == 2) {
    WriteHubStore(&w, index.hub_store());
  } else {
    const HubProximityStore& hubs = index.hub_store();
    WriteHubMeta(&w, hubs);
    hub_blob = hubs.PackedEntries();
    w.Pod<uint64_t>(Fnv1a64(hub_blob));
  }
  w.Pod<uint32_t>(index.shard_nodes());
  w.Pod<uint32_t>(num_shards);

  // The directory (per-shard payload size + checksum) precedes payloads we
  // have not serialized yet; write a placeholder now and patch it once the
  // payloads have streamed out, so peak memory is one batch of shard
  // buffers — never the whole serialized index.
  const uint64_t prefix_checksum = w.checksum();
  const std::streampos directory_pos = out.tellp();
  {
    const std::vector<char> zeros(num_shards * 2 * sizeof(uint64_t) +
                                      sizeof(uint64_t),
                                  '\0');
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  // v3: hub entries land between the header checksum and the first shard
  // payload, covered by the blob checksum written above.
  out.write(hub_blob.data(), static_cast<std::streamsize>(hub_blob.size()));

  // Serialize in pool-sized batches (parallel within a batch), write in
  // shard order. Payload content is a pure function of the shard, so the
  // file bytes are identical at every thread count.
  std::vector<uint64_t> payload_bytes(num_shards, 0);
  std::vector<uint64_t> checksums(num_shards, 0);
  const uint32_t batch =
      pool == nullptr ? 1
                      : std::max(1, pool->num_threads()) * 2;
  std::vector<std::string> buffers;
  for (uint32_t s0 = 0; s0 < num_shards; s0 += batch) {
    const uint32_t s1 = std::min(num_shards, s0 + batch);
    buffers.assign(s1 - s0, {});
    ParallelForRange(pool, s0, s1, /*max_parallelism=*/0, /*grain=*/1,
                     [&](int64_t lo, int64_t hi) {
                       for (int64_t s = lo; s < hi; ++s) {
                         std::string& payload = buffers[s - s0];
                         payload =
                             SerializeShard(index, static_cast<uint32_t>(s));
                         payload_bytes[s] = payload.size();
                         checksums[s] = Fnv1a64(payload);
                       }
                     });
    for (uint32_t s = s0; s < s1; ++s) {
      out.write(buffers[s - s0].data(),
                static_cast<std::streamsize>(buffers[s - s0].size()));
    }
  }

  // Patch the real directory in and extend the header checksum over it
  // (FNV-1a streams, so the prefix hash resumes exactly).
  Checksummer directory_sum(prefix_checksum);
  out.seekp(directory_pos);
  for (uint32_t s = 0; s < num_shards; ++s) {
    out.write(reinterpret_cast<const char*>(&payload_bytes[s]),
              sizeof(uint64_t));
    out.write(reinterpret_cast<const char*>(&checksums[s]),
              sizeof(uint64_t));
    directory_sum.Update(&payload_bytes[s], sizeof(uint64_t));
    directory_sum.Update(&checksums[s], sizeof(uint64_t));
  }
  const uint64_t header_checksum = directory_sum.hash();
  out.write(reinterpret_cast<const char*>(&header_checksum),
            sizeof(header_checksum));
  out.seekp(0, std::ios::end);
  return Status::OK();
}

Result<LowerBoundIndex> LoadIndexV1(Reader& r, std::ifstream& in,
                                    const std::string& path,
                                    uint32_t expected_nodes) {
  CommonHeader header;
  if (Status s = ReadCommonHeader(&r, &header); !s.ok()) return s;
  if (header.n != expected_nodes) {
    return Status::InvalidArgument(
        "index was built for n=" + std::to_string(header.n) +
        " nodes, graph has n=" + std::to_string(expected_nodes));
  }
  RTK_ASSIGN_OR_RETURN(HubProximityStore store, ReadHubStore(&r, header.n));

  // The node records run from here to the final checksum field: read them
  // in one piece, verify, then parse them shard by shard with the v2/v3
  // record parser.
  const uint64_t remaining = r.Remaining();
  if (remaining < sizeof(uint64_t)) {
    return Status::Corruption("index file truncated: " + path);
  }
  std::string records(remaining - sizeof(uint64_t), '\0');
  if (!r.Array(records.data(), records.size())) {
    return Status::Corruption("short read in node records: " + path);
  }
  const uint64_t expected_sum = r.checksum();
  uint64_t stored_sum = 0;
  in.read(reinterpret_cast<char*>(&stored_sum), sizeof(stored_sum));
  if (!in.good() || stored_sum != expected_sum) {
    return Status::Corruption("index checksum mismatch: " + path);
  }

  LowerBoundIndex index(header.n, header.k, header.bca, std::move(store));
  std::string_view rest = records;
  for (uint32_t s = 0; s < index.num_shards(); ++s) {
    RTK_RETURN_NOT_OK(
        ParseNodeRecords(&rest, header.n, header.k, &index.MutableShard(s)));
  }
  // The checksum is the final field; bytes left over mean the file was not
  // produced by SaveIndex (or was corrupted by concatenation).
  if (!rest.empty()) {
    return Status::Corruption("trailing bytes after the last node record: " +
                              path);
  }
  return index;
}

Result<LowerBoundIndex> LoadIndexSharded(Reader& r, std::ifstream& in,
                                         const std::string& path,
                                         uint32_t expected_nodes,
                                         const LoadIndexOptions& options,
                                         uint32_t version) {
  ThreadPool* pool = options.pool;
  CommonHeader header;
  if (Status s = ReadCommonHeader(&r, &header); !s.ok()) return s;
  if (header.n != expected_nodes) {
    return Status::InvalidArgument(
        "index was built for n=" + std::to_string(header.n) +
        " nodes, graph has n=" + std::to_string(expected_nodes));
  }
  // v2 parses the whole hub store here (its entries live inside the
  // checksummed header). v3 parses only the hub META; the entries blob
  // sits after the header checksum and is read (heap tier) or left cold
  // (mmap tier) once the header has verified.
  std::optional<HubProximityStore> store;
  uint32_t num_hubs = 0;
  double hub_omega = 0.0;
  uint64_t hub_dropped = 0;
  std::vector<uint32_t> hub_ids;
  std::vector<uint64_t> hub_offsets;
  uint64_t hub_entries = 0;
  uint64_t hub_blob_checksum = 0;
  if (version == 2) {
    RTK_ASSIGN_OR_RETURN(HubProximityStore eager, ReadHubStore(&r, header.n));
    store.emplace(std::move(eager));
  } else {
    if (!r.Pod(&num_hubs) || !r.Pod(&hub_omega) || !r.Pod(&hub_dropped) ||
        num_hubs > header.n) {
      return Status::Corruption("bad hub header in index file: " + path);
    }
    hub_ids.resize(num_hubs);
    if (!r.Array(hub_ids.data(), hub_ids.size())) {
      return Status::Corruption("bad hub list: " + path);
    }
    hub_offsets.resize(num_hubs + 1);
    if (!r.Array(hub_offsets.data(), hub_offsets.size())) {
      return Status::Corruption("bad hub offsets: " + path);
    }
    hub_entries = hub_offsets.empty() ? 0 : hub_offsets.back();
    if (hub_entries > static_cast<uint64_t>(header.n) * num_hubs) {
      return Status::Corruption("hub entry count exceeds n*|H|: " + path);
    }
    if (!r.Pod(&hub_blob_checksum)) {
      return Status::Corruption("bad hub checksum field: " + path);
    }
  }

  uint32_t shard_nodes = 0, num_shards = 0;
  if (!r.Pod(&shard_nodes) || !r.Pod(&num_shards) || shard_nodes == 0 ||
      num_shards != (header.n + shard_nodes - 1) / shard_nodes) {
    return Status::Corruption("bad shard directory header: " + path);
  }
  std::vector<uint64_t> payload_bytes(num_shards);
  std::vector<uint64_t> shard_sums(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (!r.Pod(&payload_bytes[s]) || !r.Pod(&shard_sums[s])) {
      return Status::Corruption("bad shard directory: " + path);
    }
  }
  const uint64_t expected_header_sum = r.checksum();
  uint64_t stored_header_sum = 0;
  in.read(reinterpret_cast<char*>(&stored_header_sum),
          sizeof(stored_header_sum));
  if (!in.good() || stored_header_sum != expected_header_sum) {
    return Status::Corruption("index header checksum mismatch: " + path);
  }

  // Every payload is offset-addressable from the directory; the total must
  // land exactly on end-of-file (shorter = truncated, longer = trailing
  // garbage). In v3 the hub entries blob sits first in the payload region.
  uint64_t payload_start = static_cast<uint64_t>(in.tellg());
  in.seekg(0, std::ios::end);
  const uint64_t file_bytes = static_cast<uint64_t>(in.tellg());
  const uint64_t hub_blob_offset = payload_start;
  const uint64_t hub_blob_bytes =
      hub_entries * (sizeof(uint32_t) + sizeof(double));
  if (version == 3) {
    if (hub_blob_bytes > file_bytes ||
        hub_blob_offset > file_bytes - hub_blob_bytes) {
      return Status::Corruption("truncated hub entries: " + path);
    }
    payload_start += hub_blob_bytes;
  }
  std::vector<uint64_t> offsets(num_shards + 1, payload_start);
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (payload_bytes[s] > file_bytes) {  // also forecloses offset overflow
      return Status::Corruption("shard size exceeds file size: " + path);
    }
    offsets[s + 1] = offsets[s] + payload_bytes[s];
  }
  if (file_bytes != offsets[num_shards]) {
    return Status::Corruption(
        file_bytes < offsets[num_shards]
            ? "index file truncated: " + path
            : "trailing bytes after last shard: " + path);
  }

  if (options.tier == StorageTier::kMmap) {
    // O(directory) load: the header + directory above are verified, the
    // offsets are validated against the real file size — map the file and
    // stop. No payload byte is read until a query touches its shard
    // (checksums are then verified lazily, pinned per shard). v3 extends
    // the same laziness to the hub entries blob.
    MmapSourceLayout layout;
    layout.num_nodes = header.n;
    layout.capacity_k = header.k;
    layout.shard_nodes = shard_nodes;
    layout.offsets = std::move(offsets);
    layout.checksums = std::move(shard_sums);
    if (version == 3) {
      layout.hub_blob_offset = hub_blob_offset;
      layout.hub_blob_bytes = hub_blob_bytes;
      layout.hub_blob_checksum = hub_blob_checksum;
    }
    RTK_ASSIGN_OR_RETURN(std::shared_ptr<MmapShardSource> source,
                         MmapShardSource::Open(path, std::move(layout)));
    if (version == 3) {
      auto lazy_hubs = std::make_shared<LazyHubStore>(
          source, header.n, std::move(hub_ids), std::move(hub_offsets),
          hub_omega, hub_dropped);
      return LowerBoundIndex(header.bca, std::move(lazy_hubs),
                             IndexStorage(std::move(source)));
    }
    return LowerBoundIndex(header.bca, std::move(*store),
                           IndexStorage(std::move(source)));
  }

  if (version == 3) {
    // Heap tier: one bulk read + checksum pass over the packed blob, then
    // a straight decode — the entries never pass through the streaming
    // Reader, so full loads skip ~2 ifstream reads per entry.
    std::string blob(hub_blob_bytes, '\0');
    in.seekg(static_cast<std::streamoff>(hub_blob_offset));
    in.read(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (hub_blob_bytes > 0 && !in.good()) {
      return Status::Corruption("short read in hub entries: " + path);
    }
    if (Fnv1a64(blob) != hub_blob_checksum) {
      return Status::Corruption("checksum mismatch in hub store: " + path);
    }
    Result<HubProximityStore> parsed = HubProximityStore::FromRaw(
        header.n, std::move(hub_ids), std::move(hub_offsets), blob, hub_omega,
        hub_dropped);
    if (!parsed.ok()) {
      return Status::Corruption(parsed.status().message() + ": " + path);
    }
    store.emplace(std::move(*parsed));
  }

  LowerBoundIndex index(header.n, header.k, header.bca, std::move(*store),
                        shard_nodes);

  // Shard-aligned parallel read: every worker opens its own stream, reads
  // its shard's byte range, verifies the shard checksum, and parses into
  // the shard it exclusively owns.
  std::vector<Status> statuses(num_shards, Status::OK());
  ParallelForRange(
      pool, 0, num_shards, /*max_parallelism=*/0, /*grain=*/1,
      [&](int64_t lo, int64_t hi) {
        std::ifstream shard_in(path, std::ios::binary);
        if (!shard_in.is_open()) {
          for (int64_t s = lo; s < hi; ++s) {
            statuses[s] = Status::IOError("cannot reopen index: " + path);
          }
          return;
        }
        for (int64_t s = lo; s < hi; ++s) {
          std::string payload(payload_bytes[s], '\0');
          shard_in.seekg(static_cast<std::streamoff>(offsets[s]));
          shard_in.read(payload.data(),
                        static_cast<std::streamsize>(payload.size()));
          if (!shard_in.good()) {
            statuses[s] = Status::Corruption("short read for shard " +
                                             std::to_string(s) + ": " + path);
            continue;
          }
          if (Fnv1a64(payload) != shard_sums[s]) {
            statuses[s] = Status::Corruption("checksum mismatch in shard " +
                                             std::to_string(s) + ": " + path);
            continue;
          }
          statuses[s] =
              ParseShard(payload, &index, static_cast<uint32_t>(s));
        }
      });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;  // first failing shard, in shard order
  }
  return index;
}

}  // namespace

Status SaveIndex(const LowerBoundIndex& index, const std::string& path) {
  return SaveIndex(index, path, SaveIndexOptions{});
}

Status SaveIndex(const LowerBoundIndex& index, const std::string& path,
                 const SaveIndexOptions& options) {
  if (options.format_version < 1 || options.format_version > 3) {
    return Status::InvalidArgument(
        "unsupported index format version " +
        std::to_string(options.format_version));
  }
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + tmp);
  }
  Status written =
      options.format_version == 1
          ? SaveIndexV1(index, out)
          : SaveIndexSharded(index, out, options.pool, options.format_version);
  if (!written.ok()) return written;
  out.flush();
  if (!out.good()) {
    return Status::IOError("write failed: " + tmp);
  }
  out.close();
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename failed: " + tmp + " -> " + path);
  }
  return Status::OK();
}

Result<LowerBoundIndex> LoadIndex(const std::string& path,
                                  uint32_t expected_nodes, ThreadPool* pool) {
  LoadIndexOptions options;
  options.pool = pool;
  return LoadIndex(path, expected_nodes, options);
}

Result<LowerBoundIndex> LoadIndex(const std::string& path,
                                  uint32_t expected_nodes,
                                  const LoadIndexOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open index: " + path);
  }
  Reader r(in);
  char magic[8];
  if (!r.Array(magic, sizeof(magic))) {
    return Status::Corruption("bad magic in index file: " + path);
  }
  if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0) {
    if (options.tier == StorageTier::kMmap) {
      // v1 has no shard directory to address the mapping with.
      return Status::InvalidArgument(
          "mmap storage tier requires a sharded (v2+) index file: " + path);
    }
    return LoadIndexV1(r, in, path, expected_nodes);
  }
  if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0) {
    return LoadIndexSharded(r, in, path, expected_nodes, options, 2);
  }
  if (std::memcmp(magic, kMagicV3, sizeof(kMagicV3)) == 0) {
    return LoadIndexSharded(r, in, path, expected_nodes, options, 3);
  }
  return Status::Corruption("bad magic in index file: " + path);
}

Result<IndexFileInfo> ReadIndexFileInfo(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open index: " + path);
  }
  IndexFileInfo info;
  {
    in.seekg(0, std::ios::end);
    info.file_bytes = static_cast<uint64_t>(in.tellg());
    in.seekg(0);
  }
  // A genuine header peek: fixed-size reads and seeks only. Header counts
  // are untrusted (no checksum is verified here), so nothing may be
  // allocated proportional to them — a corrupt count must surface as
  // Corruption below, not as a multi-GB allocation.
  Reader r(in);
  char magic[8];
  if (!r.Array(magic, sizeof(magic))) {
    return Status::Corruption("bad magic in index file: " + path);
  }
  if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0) {
    info.format_version = 1;
  } else if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0) {
    info.format_version = 2;
  } else if (std::memcmp(magic, kMagicV3, sizeof(kMagicV3)) == 0) {
    info.format_version = 3;
  } else {
    return Status::Corruption("bad magic in index file: " + path);
  }
  CommonHeader header;
  if (Status s = ReadCommonHeader(&r, &header); !s.ok()) return s;
  info.num_nodes = header.n;
  info.capacity_k = header.k;

  double omega = 0.0;
  uint64_t dropped = 0;
  if (!r.Pod(&info.num_hubs) || !r.Pod(&omega) || !r.Pod(&dropped) ||
      info.num_hubs > header.n) {
    return Status::Corruption("bad hub header in index file: " + path);
  }
  // Skip hubs[] and offsets[0 .. num_hubs-1]; the final offset is the
  // total entry count. Every skip is bounds-checked against the real file
  // size before seeking.
  const uint64_t skip_bytes = static_cast<uint64_t>(info.num_hubs) *
                              (sizeof(uint32_t) + sizeof(uint64_t));
  if (static_cast<uint64_t>(in.tellg()) + skip_bytes > info.file_bytes) {
    return Status::Corruption("truncated hub section: " + path);
  }
  in.seekg(static_cast<std::streamoff>(skip_bytes), std::ios::cur);
  if (!r.Pod(&info.hub_entries) ||
      info.hub_entries > static_cast<uint64_t>(header.n) * info.num_hubs) {
    return Status::Corruption("bad hub offsets: " + path);
  }
  if (info.format_version >= 2) {
    const uint64_t entry_bytes =
        info.hub_entries * (sizeof(uint32_t) + sizeof(double));
    if (info.format_version == 2) {
      // v2 streams the entries inside the header: skip them here.
      if (static_cast<uint64_t>(in.tellg()) + entry_bytes > info.file_bytes) {
        return Status::Corruption("truncated hub entries: " + path);
      }
      in.seekg(static_cast<std::streamoff>(entry_bytes), std::ios::cur);
    } else {
      // v3 keeps only the blob checksum in the header; the entries blob
      // itself sits after the header checksum (skipped below).
      uint64_t hub_blob_checksum = 0;
      if (!r.Pod(&hub_blob_checksum)) {
        return Status::Corruption("bad hub checksum field: " + path);
      }
    }
    if (!r.Pod(&info.shard_nodes) || !r.Pod(&info.num_shards) ||
        info.shard_nodes == 0 ||
        info.num_shards !=
            (header.n + info.shard_nodes - 1) / info.shard_nodes) {
      return Status::Corruption("bad shard directory header: " + path);
    }
    // The per-shard directory: sizes + checksums, resolved to absolute
    // offsets (the payload region starts right after the directory and its
    // trailing header checksum). Bound the directory against the real file
    // size BEFORE allocating — num_shards derives from unverified header
    // counts, so the allocation must be capped by trusted bytes on disk.
    const uint64_t directory_bytes =
        static_cast<uint64_t>(info.num_shards) * 2 * sizeof(uint64_t) +
        sizeof(uint64_t);
    if (static_cast<uint64_t>(in.tellg()) + directory_bytes >
        info.file_bytes) {
      return Status::Corruption("truncated shard directory: " + path);
    }
    info.shard_bytes.resize(info.num_shards);
    info.shard_checksums.resize(info.num_shards);
    for (uint32_t s = 0; s < info.num_shards; ++s) {
      if (!r.Pod(&info.shard_bytes[s]) || !r.Pod(&info.shard_checksums[s])) {
        return Status::Corruption("bad shard directory: " + path);
      }
    }
    uint64_t header_checksum = 0;
    in.read(reinterpret_cast<char*>(&header_checksum),
            sizeof(header_checksum));
    if (!in.good()) {
      return Status::Corruption("bad shard directory: " + path);
    }
    uint64_t offset = static_cast<uint64_t>(in.tellg());
    if (info.format_version == 3) {
      // The hub entries blob precedes the first shard payload.
      if (entry_bytes > info.file_bytes - std::min(offset, info.file_bytes)) {
        return Status::Corruption("truncated hub entries: " + path);
      }
      offset += entry_bytes;
    }
    info.shard_offsets.resize(info.num_shards);
    for (uint32_t s = 0; s < info.num_shards; ++s) {
      if (info.shard_bytes[s] > info.file_bytes - offset) {
        return Status::Corruption("shard size exceeds file size: " + path);
      }
      info.shard_offsets[s] = offset;
      offset += info.shard_bytes[s];
    }
    if (offset != info.file_bytes) {
      return Status::Corruption(
          offset < info.file_bytes
              ? "trailing bytes after last shard: " + path
              : "index file truncated: " + path);
    }
  }
  return info;
}

}  // namespace rtk
