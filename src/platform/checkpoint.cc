#include "platform/checkpoint.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "common/serde.h"

namespace streamlib::platform {

namespace {

/// File magic ("SLCK") + format version; a reader seeing anything else
/// knows immediately it is not looking at a checkpoint file.
constexpr uint32_t kCheckpointMagic = 0x534c434bu;
constexpr uint32_t kCheckpointVersion = 1;

/// DedupLedger::Serialize layout version (the leading byte).
constexpr uint8_t kLedgerFormatVersion = 1;

}  // namespace

Status KvCheckpointStore::SaveToFile(const std::string& path) const {
  ByteWriter w;
  w.PutU32(kCheckpointMagic);
  w.PutU32(kCheckpointVersion);
  {
    std::lock_guard<std::mutex> lock(mu_);
    w.PutVarint(entries_.size());
    for (const auto& [key, entry] : entries_) {
      w.PutString(key);
      w.PutU64(entry.version);
      w.PutVarint(entry.state.size());
      w.PutBytes(entry.state.data(), entry.state.size());
    }
  }
  const std::vector<uint8_t> bytes = w.TakeBytes();
  // Write-then-rename: the file under `path` is always either the old
  // complete checkpoint or the new complete checkpoint, never a torn mix.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open '" + tmp + "' for writing");
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::OK();
}

Status KvCheckpointStore::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("no checkpoint file at '" + path + "'");
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Internal("read error on '" + path + "'");
  }

  ByteReader r(bytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetU32(&magic));
  if (magic != kCheckpointMagic) {
    return Status::Corruption("'" + path + "' is not a checkpoint file");
  }
  STREAMLIB_RETURN_NOT_OK(r.GetU32(&version));
  if (version != kCheckpointVersion) {
    return Status::Corruption("unsupported checkpoint version");
  }
  uint64_t count = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&count));
  // Every entry takes at least one byte, so a larger count is garbage;
  // reject it before the reserve below sizes a table for it.
  if (count > r.remaining()) {
    return Status::Corruption("checkpoint entry count exceeds file size");
  }
  // Decode into a staging map so a torn file (Corruption below) leaves the
  // live store untouched.
  std::unordered_map<std::string, Entry> staged;
  staged.reserve(count);
  for (uint64_t i = 0; i < count; i++) {
    std::string key;
    Entry entry;
    uint64_t state_len = 0;
    STREAMLIB_RETURN_NOT_OK(r.GetString(&key));
    STREAMLIB_RETURN_NOT_OK(r.GetU64(&entry.version));
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&state_len));
    if (state_len > bytes.size()) {
      // A length longer than the whole file is garbage; reject before
      // resize so a torn file can't make us allocate gigabytes.
      return Status::Corruption("checkpoint state length exceeds file size");
    }
    entry.state.resize(state_len);
    STREAMLIB_RETURN_NOT_OK(r.GetBytes(entry.state.data(), state_len));
    if (!staged.emplace(std::move(key), std::move(entry)).second) {
      return Status::Corruption("checkpoint file names a key twice");
    }
  }
  if (!r.AtEnd()) {
    return Status::Corruption("checkpoint file has trailing bytes");
  }
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(staged);
  return Status::OK();
}

bool DedupLedger::CheckAndRecord(uint64_t producer, uint64_t sequence) {
  // The watermark is exclusive, so the largest id would push it past the
  // 64-bit range; the ledger's id space stops one short of it.
  STREAMLIB_CHECK_MSG(sequence != UINT64_MAX,
                      "DedupLedger sequence ids must be below 2^64-1");
  State& state = producers_[producer];
  if (sequence < state.watermark) return false;
  std::vector<uint64_t>& above = state.above;
  if (sequence == state.watermark) {
    // Advance over the contiguous run this id completes and forget it.
    uint64_t next = sequence + 1;
    size_t run = 0;
    while (run < above.size() && above[run] == next) {
      run++;
      next++;
    }
    state.watermark = next;
    above.erase(above.begin(), above.begin() + static_cast<ptrdiff_t>(run));
    return true;
  }
  // In-order ids append; a replayed one lands after a binary search.
  if (above.empty() || sequence > above.back()) {
    above.push_back(sequence);
    return true;
  }
  auto it = std::lower_bound(above.begin(), above.end(), sequence);
  if (*it == sequence) return false;
  above.insert(it, sequence);
  return true;
}

std::vector<uint8_t> DedupLedger::Serialize() const {
  ByteWriter w;
  // Gaps take 1-2 bytes for the id densities key groups see; headers fewer
  // than 32 per producer.
  w.Reserve(16 + 32 * producers_.size() + 2 * RetainedIds());
  w.PutU8(kLedgerFormatVersion);
  w.PutVarint(producers_.size());
  for (const auto& [producer, state] : producers_) {
    w.PutVarint(producer);
    w.PutVarint(state.watermark);
    w.PutVarint(state.above.size());
    uint64_t prev = state.watermark;
    for (uint64_t id : state.above) {
      w.PutVarint(id - prev);
      prev = id;
    }
  }
  return w.TakeBytes();
}

Result<DedupLedger> DedupLedger::Deserialize(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  uint8_t version = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetU8(&version));
  if (version != kLedgerFormatVersion) {
    return Status::Corruption("DedupLedger: unknown format version " +
                              std::to_string(version));
  }
  uint64_t num_producers = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&num_producers));
  DedupLedger ledger;
  for (uint64_t p = 0; p < num_producers; p++) {
    uint64_t producer = 0;
    uint64_t count = 0;
    State state;
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&producer));
    if (!ledger.producers_.empty() &&
        producer <= ledger.producers_.rbegin()->first) {
      return Status::Corruption(
          "DedupLedger: producers not strictly ascending");
    }
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&state.watermark));
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&count));
    if (state.watermark == 0 && count == 0) {
      return Status::Corruption("DedupLedger: empty producer record");
    }
    // Every gap takes at least one byte: a larger count is garbage, and
    // rejecting it here keeps a corrupt count from sizing the reserve.
    if (count > r.remaining()) {
      return Status::Corruption("DedupLedger: id count exceeds the bytes left");
    }
    state.above.reserve(count);
    uint64_t prev = state.watermark;
    for (uint64_t i = 0; i < count; i++) {
      uint64_t gap = 0;
      STREAMLIB_RETURN_NOT_OK(r.GetVarint(&gap));
      if (gap == 0) return Status::Corruption("DedupLedger: zero gap");
      if (gap >= UINT64_MAX - prev) {
        return Status::Corruption("DedupLedger: gap leaves the id range");
      }
      prev += gap;
      state.above.push_back(prev);
    }
    ledger.producers_.emplace_hint(ledger.producers_.end(), producer,
                                   std::move(state));
  }
  if (!r.AtEnd()) return Status::Corruption("DedupLedger: trailing bytes");
  return ledger;
}

}  // namespace streamlib::platform
