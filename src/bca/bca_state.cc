#include "bca/bca_state.h"

#include <cassert>
#include <string>

namespace rtk {

namespace {

// The empty state's record: zero iterations, three zero counts.
constexpr char kEmptyRecord[kBcaRecordHeaderBytes] = {};

uint64_t ReadCount(const char* at) {
  uint64_t count = 0;
  std::memcpy(&count, at, sizeof(count));
  return count;
}

}  // namespace

std::vector<std::pair<uint32_t, double>> BcaEntryList::ToPairs() const {
  std::vector<std::pair<uint32_t, double>> pairs;
  pairs.reserve(count_);
  for (size_t i = 0; i < count_; ++i) pairs.emplace_back(id(i), value(i));
  return pairs;
}

StoredBcaState::StoredBcaState() : StoredBcaState(kEmptyRecord) {}

StoredBcaState::StoredBcaState(const char* record) : data_(record) {
  size_t pos = sizeof(uint32_t);
  for (BcaEntryList& list : lists_) {
    const uint64_t count = ReadCount(data_ + pos);
    pos += sizeof(uint64_t);
    list = BcaEntryList(data_ + pos, count);
    pos += count * kBcaEntryBytes;
  }
  size_ = pos;
}

double StoredBcaState::ResidueL1() const {
  double sum = 0.0;
  for (size_t i = 0; i < residue().size(); ++i) sum += residue().value(i);
  return sum;
}

BcaStateWriter::BcaStateWriter(uint32_t iterations, size_t total_entries)
    : size_(kBcaRecordHeaderBytes + total_entries * kBcaEntryBytes),
      blob_(std::make_shared_for_overwrite<char[]>(size_)),
      pos_(blob_.get()) {
  Put(&iterations, sizeof(iterations));
}

SharedBcaState BcaStateWriter::Finish() && {
  assert(pos_ == blob_.get() + size_);
  return std::move(blob_);
}

SharedBcaState PackBcaState(
    uint32_t iterations,
    const std::vector<std::pair<uint32_t, double>>& residue,
    const std::vector<std::pair<uint32_t, double>>& retained,
    const std::vector<std::pair<uint32_t, double>>& hub_ink) {
  const size_t total = residue.size() + retained.size() + hub_ink.size();
  if (total == 0 && iterations == 0) return nullptr;
  BcaStateWriter writer(iterations, total);
  for (const auto* list : {&residue, &retained, &hub_ink}) {
    writer.BeginList(list->size());
    for (const auto& [id, value] : *list) writer.Add(id, value);
  }
  return std::move(writer).Finish();
}

Status CheckBcaStateRecord(std::string_view in, uint32_t num_nodes,
                           size_t* length) {
  if (in.size() < kBcaRecordHeaderBytes) {
    return Status::Corruption("truncated BCA state record");
  }
  size_t pos = sizeof(uint32_t);
  for (int list = 0; list < 3; ++list) {
    if (in.size() - pos < sizeof(uint64_t)) {
      return Status::Corruption("truncated BCA state record");
    }
    const uint64_t count = ReadCount(in.data() + pos);
    pos += sizeof(uint64_t);
    if (count > num_nodes || count > (in.size() - pos) / kBcaEntryBytes) {
      return Status::Corruption("BCA state list of " + std::to_string(count) +
                                " entries overruns its record");
    }
    const BcaEntryList entries(in.data() + pos, count);
    for (size_t i = 0; i < count; ++i) {
      if (entries.id(i) >= num_nodes) {
        return Status::Corruption("BCA state entry id " +
                                  std::to_string(entries.id(i)) +
                                  " out of range for n=" +
                                  std::to_string(num_nodes));
      }
    }
    pos += count * kBcaEntryBytes;
  }
  *length = pos;
  return Status::OK();
}

Status ReadBcaStateRecord(std::string_view* bytes, uint32_t num_nodes,
                          SharedBcaState* state) {
  size_t length = 0;
  RTK_RETURN_NOT_OK(CheckBcaStateRecord(*bytes, num_nodes, &length));
  if (length == kBcaRecordHeaderBytes &&
      std::memcmp(bytes->data(), kEmptyRecord, length) == 0) {
    *state = nullptr;
  } else {
    std::shared_ptr<char[]> blob =
        std::make_shared_for_overwrite<char[]>(length);
    std::memcpy(blob.get(), bytes->data(), length);
    *state = std::move(blob);
  }
  bytes->remove_prefix(length);
  return Status::OK();
}

}  // namespace rtk
