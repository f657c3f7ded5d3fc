// BCA state records: the one layout of a node's resumable BCA state (the
// r, w, s of bca.h), in memory and in index files alike.
//
// A record is exactly the bytes an index shard payload stores after a
// node's bounds (index_io.h):
//
//   u32 iterations
//   residue, retained, hub_ink: each a u64 count, then count packed 12-byte
//   (u32 id, f64 value) entries sorted by id
//
// In memory a state is one immutable, exact-size heap blob holding its
// record, shared by every shard copy that holds the row (SharedBcaState),
// and StoredBcaState reads it in place. An entry therefore costs the 12
// bytes Table 2 and Theorem 1 price it at, and loading or saving a state
// copies its bytes once. Entries are unaligned inside a record, so every
// read is a memcpy.

#ifndef RTK_BCA_BCA_STATE_H_
#define RTK_BCA_BCA_STATE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace rtk {

/// \brief Bytes of one packed (u32 id, f64 value) entry.
inline constexpr size_t kBcaEntryBytes = sizeof(uint32_t) + sizeof(double);

/// \brief Bytes of a record whose three lists are empty: the iteration
/// count and three list counts.
inline constexpr size_t kBcaRecordHeaderBytes =
    sizeof(uint32_t) + 3 * sizeof(uint64_t);

/// \brief One list of a record: `size()` packed entries, sorted by id.
class BcaEntryList {
 public:
  BcaEntryList() = default;
  BcaEntryList(const char* entries, size_t count)
      : entries_(entries), count_(count) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  uint32_t id(size_t i) const {
    uint32_t id = 0;
    std::memcpy(&id, entries_ + i * kBcaEntryBytes, sizeof(id));
    return id;
  }
  double value(size_t i) const {
    double value = 0.0;
    std::memcpy(&value, entries_ + i * kBcaEntryBytes + sizeof(uint32_t),
                sizeof(value));
    return value;
  }

  /// \brief The entries as (id, value) pairs.
  std::vector<std::pair<uint32_t, double>> ToPairs() const;

 private:
  const char* entries_ = nullptr;
  size_t count_ = 0;
};

/// \brief One row's state as an index shard stores it: the record in one
/// immutable heap allocation, shared by every shard copy holding the row.
/// Null stands for the empty state (every list empty, zero iterations):
/// exact and hub nodes, fresh storage.
using SharedBcaState = std::shared_ptr<const char[]>;

/// \brief Read-only view of one record. A default view is the empty state.
/// The view borrows its bytes: it stays valid while some holder of the
/// blob it reads (or the static empty record) lives.
class StoredBcaState {
 public:
  StoredBcaState();
  /// `record` must start a record that ReadBcaStateRecord accepted or a
  /// BcaStateWriter wrote.
  explicit StoredBcaState(const char* record);

  uint32_t iterations() const {
    uint32_t iterations = 0;
    std::memcpy(&iterations, data_, sizeof(iterations));
    return iterations;
  }
  // The lists borrow the record's bytes, like the view itself.
  BcaEntryList residue() const { return lists_[0]; }   // r
  BcaEntryList retained() const { return lists_[1]; }  // w (non-hub)
  BcaEntryList hub_ink() const { return lists_[2]; }   // s (hubs)

  /// \brief The whole record, as an index file stores it.
  std::string_view bytes() const { return {data_, size_}; }

  /// \brief |r|_1 recomputed from the residue list, in list order.
  double ResidueL1() const;

 private:
  const char* data_ = nullptr;
  size_t size_ = 0;
  BcaEntryList lists_[3];
};

/// \brief The view of a row's state (null: the empty state).
inline StoredBcaState StateOf(const SharedBcaState& state) {
  return state != nullptr ? StoredBcaState(state.get()) : StoredBcaState();
}

/// \brief Writes one record into a fresh exact-size blob: construct with the
/// iteration count and the total entry count, then for each list in record
/// order (residue, retained, hub_ink) call BeginList and Add its entries in
/// ascending id order. Callers store the empty state as null instead.
class BcaStateWriter {
 public:
  BcaStateWriter(uint32_t iterations, size_t total_entries);

  void BeginList(uint64_t count) { Put(&count, sizeof(count)); }
  void Add(uint32_t id, double value) {
    Put(&id, sizeof(id));
    Put(&value, sizeof(value));
  }

  /// \brief The finished blob (every entry must have been added).
  SharedBcaState Finish() &&;

 private:
  void Put(const void* bytes, size_t len) {
    std::memcpy(pos_, bytes, len);
    pos_ += len;
  }

  size_t size_ = 0;
  std::shared_ptr<char[]> blob_;
  char* pos_ = nullptr;
};

/// \brief Packs three sorted pair lists into one blob (null when all are
/// empty and `iterations` is 0).
SharedBcaState PackBcaState(
    uint32_t iterations,
    const std::vector<std::pair<uint32_t, double>>& residue,
    const std::vector<std::pair<uint32_t, double>>& retained = {},
    const std::vector<std::pair<uint32_t, double>>& hub_ink = {});

/// \brief The one validator of stored records (eager loads of every format
/// version, the mmap tier's lazy verification and its faults): checks the
/// record at the front of `bytes` — each list's count fits in the bytes
/// left and is at most `num_nodes`, every entry id is below `num_nodes` —
/// and sets `*length` to its size. Corruption otherwise.
Status CheckBcaStateRecord(std::string_view bytes, uint32_t num_nodes,
                           size_t* length);

/// \brief Checks the record at the front of `*bytes` (CheckBcaStateRecord),
/// copies it into a blob (null for the empty state) and advances `*bytes`
/// past it.
Status ReadBcaStateRecord(std::string_view* bytes, uint32_t num_nodes,
                          SharedBcaState* state);

}  // namespace rtk

#endif  // RTK_BCA_BCA_STATE_H_
