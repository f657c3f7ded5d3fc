#include "index/index_io.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

namespace rtk {

namespace {

// "RTKIDX0" followed by the format version digit. SaveIndex writes v3.
constexpr char kMagicV3[8] = {'R', 'T', 'K', 'I', 'D', 'X', '0', '3'};
constexpr size_t kMagicPrefixBytes = 7;

// The bytes the file holds for `count` trivially copyable values.
template <typename T>
std::string_view Bytes(const T* data, size_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<const char*>(data), count * sizeof(T)};
}

// Streams the header out, hashing everything it writes.
class Writer {
 public:
  explicit Writer(std::ofstream& out) : out_(out) {}

  template <typename T>
  void Pod(const T& value) {
    Array(&value, 1);
  }
  template <typename T>
  void Array(const T* data, size_t count) {
    const std::string_view bytes = Bytes(data, count);
    out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    sum_ = Fnv1a64(bytes, sum_);
  }
  uint64_t checksum() const { return sum_; }

 private:
  std::ofstream& out_;
  uint64_t sum_ = kFnv1a64Basis;
};

// Streams the header in, hashing everything it reads. Every read is bounded
// by the bytes left in the file, and Array checks its count against them
// BEFORE allocating: the header's counts are untrusted until its checksum,
// which comes last, has verified.
class Reader {
 public:
  Reader(std::ifstream& in, uint64_t file_bytes)
      : in_(in), left_(file_bytes) {}

  template <typename T>
  bool Pod(T* value) {
    return Read(reinterpret_cast<char*>(value), sizeof(T));
  }
  /// Reads `count` elements into *out (a std::vector or std::string).
  template <typename C>
  bool Array(uint64_t count, C* out) {
    using T = typename C::value_type;
    if (count > left_ / sizeof(T)) return false;
    out->resize(count);
    return Read(reinterpret_cast<char*>(out->data()), count * sizeof(T));
  }
  uint64_t left() const { return left_; }
  uint64_t checksum() const { return sum_; }

 private:
  bool Read(char* data, uint64_t len) {
    if (len > left_) return false;
    in_.read(data, static_cast<std::streamsize>(len));
    if (!in_.good()) return false;
    left_ -= len;
    sum_ = Fnv1a64({data, static_cast<size_t>(len)}, sum_);
    return true;
  }

  std::ifstream& in_;
  uint64_t left_;
  uint64_t sum_ = kFnv1a64Basis;
};

// In-memory append serializer for one shard payload (Save serializes
// shards concurrently, so each gets its own buffer).
class BufWriter {
 public:
  template <typename T>
  void Pod(const T& value) {
    out_.append(Bytes(&value, 1));
  }
  template <typename T>
  void Array(const T* data, size_t count) {
    out_.append(Bytes(data, count));
  }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

// Serializes shard s's node records (the record layout of every format
// version; v1 streams the records of all nodes back to back). A node's BCA
// state is stored in its file layout already: its bytes copy once.
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

// Writes the v3 file. The shard directory precedes payloads not serialized
// yet: a zeroed placeholder goes out first and is patched once the
// payloads have streamed out, so peak memory is one batch of shard
// buffers — never the whole serialized index.
void WriteIndex(const LowerBoundIndex& index, std::ofstream& out,
                ThreadPool* pool) {
  const uint32_t num_shards = index.num_shards();
  const HubProximityStore& hubs = index.hub_store();
  const std::string hub_blob = hubs.PackedEntries();
  const BcaOptions& bca = index.bca_options();

  Writer w(out);
  w.Array(kMagicV3, sizeof(kMagicV3));
  w.Pod<uint32_t>(index.num_nodes());
  w.Pod<uint32_t>(index.capacity_k());
  w.Pod(bca.alpha);
  w.Pod(bca.eta);
  w.Pod(bca.delta);
  w.Pod<int32_t>(bca.max_iterations);
  w.Pod<uint32_t>(hubs.num_hubs());
  w.Pod<double>(hubs.rounding_omega());
  w.Pod<uint64_t>(hubs.DroppedEntries());
  w.Array(hubs.hubs().data(), hubs.hubs().size());
  w.Array(hubs.offsets().data(), hubs.offsets().size());
  w.Pod<uint64_t>(Fnv1a64(hub_blob));
  w.Pod<uint32_t>(index.shard_nodes());
  w.Pod<uint32_t>(num_shards);

  // (payload bytes, checksum) per shard, then the header checksum.
  std::vector<uint64_t> directory(2 * size_t{num_shards} + 1, 0);
  const std::streampos directory_pos = out.tellp();
  const std::string_view directory_bytes =
      Bytes(directory.data(), directory.size());
  out.write(directory_bytes.data(),
            static_cast<std::streamsize>(directory_bytes.size()));
  // The hub entries land between the header checksum and the first shard
  // payload, covered by the blob checksum written above.
  out.write(hub_blob.data(), static_cast<std::streamsize>(hub_blob.size()));

  // Serialize in pool-sized batches (parallel within a batch), write in
  // shard order. Payload content is a pure function of the shard, so the
  // file bytes are identical at every thread count.
  const uint32_t batch =
      pool == nullptr ? 1 : std::max(1, pool->num_threads()) * 2;
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
                         directory[2 * s] = payload.size();
                         directory[2 * s + 1] = Fnv1a64(payload);
                       }
                     });
    for (const std::string& payload : buffers) {
      out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    }
  }

  // Patch the real directory in, and extend the header checksum over it
  // (FNV-1a streams, so the running hash resumes exactly).
  directory.back() = Fnv1a64(directory_bytes.substr(
                                 0, directory_bytes.size() - sizeof(uint64_t)),
                             w.checksum());
  out.seekp(directory_pos);
  out.write(directory_bytes.data(),
            static_cast<std::streamsize>(directory_bytes.size()));
}

// A parsed header: the file's layout plus the values the loaders build the
// index from.
struct IndexHeader {
  IndexFileInfo layout;
  BcaOptions bca;
  double hub_omega = 0.0;
  uint64_t hub_dropped = 0;
  std::vector<uint32_t> hub_ids;
  std::vector<uint64_t> hub_offsets;
  /// The packed hub entries: read with the header in v1 and v2, from the
  /// hub blob on v3's heap load (an mmap open leaves them in the map).
  std::string hub_entries;
  /// v1: FNV-1a over the header, which the trailing whole-file checksum
  /// resumes over the node records.
  uint64_t checksum = 0;
};

// THE header parse, shared by LoadIndex (both tiers, every version) and
// ReadIndexFileInfo. Opens `path` into *in, reads magic .. shard directory
// through the streaming checksum, verifies the header checksum (v2, v3; a
// v1 file has only its trailing whole-file checksum, which LoadV1 checks),
// and resolves the directory into absolute offsets that tile the file.
// Leaves *in at the first byte after the header: v1's node records, v2's
// first shard payload, v3's hub blob.
Result<IndexHeader> ReadIndexHeader(const std::string& path,
                                    std::ifstream* in) {
  in->open(path, std::ios::binary);
  if (!in->is_open()) return Status::IOError("cannot open index: " + path);
  const auto corrupt = [&](const char* what) {
    return Status::Corruption(std::string(what) + ": " + path);
  };
  IndexHeader h;
  IndexFileInfo& info = h.layout;
  in->seekg(0, std::ios::end);
  info.file_bytes = static_cast<uint64_t>(in->tellg());
  in->seekg(0);
  Reader r(*in, info.file_bytes);

  char magic[sizeof(kMagicV3)];
  if (!r.Pod(&magic) ||
      std::memcmp(magic, kMagicV3, kMagicPrefixBytes) != 0 ||
      magic[kMagicPrefixBytes] < '1' || magic[kMagicPrefixBytes] > '3') {
    return corrupt("bad magic in index file");
  }
  const uint32_t version = magic[kMagicPrefixBytes] - '0';
  info.format_version = version;

  if (!r.Pod(&info.num_nodes) || !r.Pod(&info.capacity_k) ||
      info.capacity_k == 0) {
    return corrupt("bad header in index file");
  }
  const uint32_t n = info.num_nodes;
  // Every node record holds K + 1 doubles, so the file bounds K as well
  // (the heap tier allocates n x K bounds).
  if (n > 0 &&
      (uint64_t{info.capacity_k} + 1) * sizeof(double) > r.left() / n) {
    return corrupt("capacity K exceeds the file");
  }
  int32_t max_iterations = 0;
  if (!r.Pod(&h.bca.alpha) || !r.Pod(&h.bca.eta) || !r.Pod(&h.bca.delta) ||
      !r.Pod(&max_iterations)) {
    return corrupt("bad BCA options in index file");
  }
  h.bca.max_iterations = max_iterations;

  if (!r.Pod(&info.num_hubs) || !r.Pod(&h.hub_omega) ||
      !r.Pod(&h.hub_dropped) || info.num_hubs > n) {
    return corrupt("bad hub header in index file");
  }
  if (!r.Array(info.num_hubs, &h.hub_ids)) return corrupt("bad hub list");
  if (!r.Array(uint64_t{info.num_hubs} + 1, &h.hub_offsets)) {
    return corrupt("bad hub offsets");
  }
  info.hub_entries = h.hub_offsets.back();
  if (info.hub_entries > uint64_t{n} * info.num_hubs ||
      info.hub_entries > r.left() / kBcaEntryBytes) {
    return corrupt("hub entry count exceeds n*|H| or the file");
  }
  const uint64_t hub_bytes = info.hub_entries * kBcaEntryBytes;
  if (version < 3) {
    if (!r.Array(hub_bytes, &h.hub_entries)) {
      return corrupt("bad hub entries");
    }
  } else if (!r.Pod(&info.hub_blob_checksum)) {
    return corrupt("bad hub checksum field");
  }
  if (version == 1) {
    h.checksum = r.checksum();
    return h;
  }

  if (!r.Pod(&info.shard_nodes) || !r.Pod(&info.num_shards) ||
      info.shard_nodes == 0 ||
      info.num_shards !=
          (uint64_t{n} + info.shard_nodes - 1) / info.shard_nodes) {
    return corrupt("bad shard directory header");
  }
  std::vector<uint64_t> directory;  // (payload bytes, checksum) per shard
  if (!r.Array(2 * uint64_t{info.num_shards}, &directory)) {
    return corrupt("bad shard directory");
  }
  const uint64_t header_checksum = r.checksum();
  uint64_t stored_checksum = 0;
  if (!r.Pod(&stored_checksum) || stored_checksum != header_checksum) {
    return corrupt("index header checksum mismatch");
  }

  // v3's hub blob, then the shard payloads, must tile the rest of the file
  // exactly: shorter is a truncation, longer is trailing garbage.
  uint64_t offset = info.file_bytes - r.left();
  if (version == 3) {
    if (hub_bytes > r.left()) return corrupt("truncated hub entries");
    info.hub_blob_offset = offset;
    info.hub_blob_bytes = hub_bytes;
    offset += hub_bytes;
  }
  info.shard_offsets.resize(info.num_shards);
  info.shard_bytes.resize(info.num_shards);
  info.shard_checksums.resize(info.num_shards);
  for (uint32_t s = 0; s < info.num_shards; ++s) {
    info.shard_offsets[s] = offset;
    info.shard_bytes[s] = directory[2 * s];
    info.shard_checksums[s] = directory[2 * s + 1];
    if (info.shard_bytes[s] > info.file_bytes - offset) {
      return corrupt("index file truncated");
    }
    offset += info.shard_bytes[s];
  }
  if (offset != info.file_bytes) {
    return corrupt("trailing bytes after last shard");
  }
  return h;
}

// P_H from the header's hub meta and packed entries (read with a v1/v2
// header, or from v3's verified blob).
Result<HubProximityStore> ParseHubStore(IndexHeader& header,
                                        const std::string& path) {
  Result<HubProximityStore> store = HubProximityStore::FromRaw(
      header.layout.num_nodes, std::move(header.hub_ids),
      std::move(header.hub_offsets), header.hub_entries, header.hub_omega,
      header.hub_dropped);
  if (!store.ok()) {
    return Status::Corruption(store.status().message() + ": " + path);
  }
  return store;
}

// v1: the node records run from the header to the trailing whole-file
// checksum. Read them in one piece, verify, then parse them shard by shard
// with the v2/v3 record parser.
Result<LowerBoundIndex> LoadV1(std::ifstream& in, const std::string& path,
                               IndexHeader header) {
  const IndexFileInfo& info = header.layout;
  const uint64_t records_at = static_cast<uint64_t>(in.tellg());
  if (info.file_bytes - records_at < sizeof(uint64_t)) {
    return Status::Corruption("index file truncated: " + path);
  }
  std::string records(info.file_bytes - records_at - sizeof(uint64_t), '\0');
  uint64_t stored_sum = 0;
  in.read(records.data(), static_cast<std::streamsize>(records.size()));
  in.read(reinterpret_cast<char*>(&stored_sum), sizeof(stored_sum));
  if (!in.good() || stored_sum != Fnv1a64(records, header.checksum)) {
    return Status::Corruption("index checksum mismatch: " + path);
  }

  RTK_ASSIGN_OR_RETURN(HubProximityStore store, ParseHubStore(header, path));
  LowerBoundIndex index(info.num_nodes, info.capacity_k, header.bca,
                        std::move(store));
  std::string_view rest = records;
  for (uint32_t s = 0; s < index.num_shards(); ++s) {
    RTK_RETURN_NOT_OK(ParseNodeRecords(&rest, info.num_nodes, info.capacity_k,
                                       &index.MutableShard(s)));
  }
  // The checksum is the final field; bytes left over mean the file was not
  // produced by SaveIndex (or was corrupted by concatenation).
  if (!rest.empty()) {
    return Status::Corruption("trailing bytes after the last node record: " +
                              path);
  }
  return index;
}

// O(directory) load: the header parse verified the header and tiled the
// file with its payloads, so map it and stop. No payload byte is read until
// a query touches its shard (checksums are then verified lazily, pinned per
// shard); a v3 file's hub blob stays cold the same way.
Result<LowerBoundIndex> OpenMapped(const std::string& path,
                                   IndexHeader header) {
  RTK_ASSIGN_OR_RETURN(std::shared_ptr<MmapShardSource> source,
                       MmapShardSource::Open(path, header.layout));
  if (header.layout.format_version == 3) {
    auto lazy_hubs = std::make_shared<LazyHubStore>(
        source, source->num_nodes(), std::move(header.hub_ids),
        std::move(header.hub_offsets), header.hub_omega, header.hub_dropped);
    return LowerBoundIndex(header.bca, std::move(lazy_hubs),
                           IndexStorage(std::move(source)));
  }
  RTK_ASSIGN_OR_RETURN(HubProximityStore store, ParseHubStore(header, path));
  return LowerBoundIndex(header.bca, std::move(store),
                         IndexStorage(std::move(source)));
}

// Heap tier, v2 and v3: every shard read, verified and parsed eagerly.
Result<LowerBoundIndex> LoadSharded(std::ifstream& in, const std::string& path,
                                    IndexHeader header, ThreadPool* pool) {
  const IndexFileInfo& info = header.layout;
  if (info.format_version == 3) {
    // One bulk read + checksum pass over the packed blob (the header parse
    // left `in` at its first byte), then a straight decode.
    header.hub_entries.resize(info.hub_blob_bytes);
    in.read(header.hub_entries.data(),
            static_cast<std::streamsize>(info.hub_blob_bytes));
    if (!in.good() ||
        Fnv1a64(header.hub_entries) != info.hub_blob_checksum) {
      return Status::Corruption("checksum mismatch in hub store: " + path);
    }
  }
  RTK_ASSIGN_OR_RETURN(HubProximityStore store, ParseHubStore(header, path));
  LowerBoundIndex index(info.num_nodes, info.capacity_k, header.bca,
                        std::move(store), info.shard_nodes);

  // Shard-aligned parallel read: every worker opens its own stream, reads
  // its shard's byte range, verifies the shard checksum, and parses into
  // the shard it exclusively owns.
  std::vector<Status> statuses(info.num_shards, Status::OK());
  ParallelForRange(
      pool, 0, info.num_shards, /*max_parallelism=*/0, /*grain=*/1,
      [&](int64_t lo, int64_t hi) {
        std::ifstream shard_in(path, std::ios::binary);
        if (!shard_in.is_open()) {
          for (int64_t s = lo; s < hi; ++s) {
            statuses[s] = Status::IOError("cannot reopen index: " + path);
          }
          return;
        }
        for (int64_t s = lo; s < hi; ++s) {
          std::string payload(info.shard_bytes[s], '\0');
          shard_in.seekg(static_cast<std::streamoff>(info.shard_offsets[s]));
          shard_in.read(payload.data(),
                        static_cast<std::streamsize>(payload.size()));
          if (!shard_in.good()) {
            statuses[s] = Status::Corruption("short read for shard " +
                                             std::to_string(s) + ": " + path);
            continue;
          }
          if (Fnv1a64(payload) != info.shard_checksums[s]) {
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

Status SaveIndex(const LowerBoundIndex& index, const std::string& path,
                 ThreadPool* pool) {
  // An mmap-tier index serves a corrupt hub blob as an empty store and a
  // corrupt shard as its zero-knowledge stand-in. Writing either would
  // turn the corruption into a file whose checksums all hold.
  RTK_RETURN_NOT_OK(index.EnsureHubStore());
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + tmp);
  }
  WriteIndex(index, out, pool);
  out.close();  // flushes; a failed write or flush leaves failbit set
  // Serializing faulted every cold shard in, so a corrupt one shows here.
  Status status = index.storage_status();
  if (status.ok() && out.fail()) {
    status = Status::IOError("write failed: " + tmp);
  }
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::IOError("rename failed: " + tmp + " -> " + path);
  }
  if (!status.ok()) std::remove(tmp.c_str());
  return status;
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
  std::ifstream in;
  RTK_ASSIGN_OR_RETURN(IndexHeader header, ReadIndexHeader(path, &in));
  const uint32_t n = header.layout.num_nodes;
  if (n != expected_nodes) {
    return Status::InvalidArgument(
        "index was built for n=" + std::to_string(n) +
        " nodes, graph has n=" + std::to_string(expected_nodes));
  }
  if (options.tier == StorageTier::kMmap) {
    return OpenMapped(path, std::move(header));
  }
  if (header.layout.format_version == 1) {
    return LoadV1(in, path, std::move(header));
  }
  return LoadSharded(in, path, std::move(header), options.pool);
}

Result<IndexFileInfo> ReadIndexFileInfo(const std::string& path) {
  std::ifstream in;
  RTK_ASSIGN_OR_RETURN(IndexHeader header, ReadIndexHeader(path, &in));
  return std::move(header.layout);
}

}  // namespace rtk
