#ifndef STREAMLIB_PLATFORM_CHECKPOINT_H_
#define STREAMLIB_PLATFORM_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace streamlib::platform {

/// Versioned key-value checkpoint store — the in-process stand-in for the
/// BigTable MillWheel checkpoints against (DESIGN.md §2). Writes are
/// versioned per key; a bolt restores the latest state after a (simulated)
/// crash. Thread-safe.
class KvCheckpointStore {
 public:
  KvCheckpointStore() = default;

  /// Stores a new version of `key`'s state; returns the version number.
  uint64_t Put(const std::string& key, std::vector<uint8_t> state) {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = entries_[key];
    entry.version++;
    entry.state = std::move(state);
    return entry.version;
  }

  /// Latest state for `key` (nullopt if never checkpointed).
  std::optional<std::vector<uint8_t>> Get(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second.state;
  }

  /// Status-typed restore lookup: NotFound (with the key in the message)
  /// when `key` was never checkpointed. Restore paths use this instead of
  /// Get so a component renamed between save and restore produces a clean
  /// diagnosable error rather than silently starting empty.
  Result<std::vector<uint8_t>> Fetch(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      return Status::NotFound("no checkpoint for key '" + key + "'");
    }
    return it->second.state;
  }

  /// Latest version for `key` (0 if never checkpointed).
  uint64_t VersionOf(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    return it == entries_.end() ? 0 : it->second.version;
  }

  size_t NumKeys() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  /// Removes `key` (all versions); returns whether it existed. Rescaling
  /// uses this to retire epoch frames of task indices that no longer exist.
  bool Erase(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.erase(key) > 0;
  }

  /// Total Put() calls absorbed across all keys (the sum of per-key
  /// versions). The replay debugger's "on checkpoint K" breakpoint keys on
  /// this monotonic count.
  uint64_t TotalPuts() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& [key, entry] : entries_) total += entry.version;
    return total;
  }

  /// Durability across "process" restarts: writes every entry (key,
  /// version, state) to `path` atomically (temp file + rename), so a crash
  /// mid-save can never leave a half-written file under the real name. An
  /// empty store saves a valid file that restores to an empty store.
  Status SaveToFile(const std::string& path) const;

  /// Replaces this store's contents with the entries in `path`. Rejects
  /// torn/truncated/garbage files and files that name a key twice with
  /// Corruption (the store is left untouched on any error) and a missing
  /// file with NotFound.
  Status LoadFromFile(const std::string& path);

 private:
  struct Entry {
    uint64_t version = 0;
    std::vector<uint8_t> state;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
};

/// MillWheel-style duplicate suppression: the paper credits MillWheel with
/// "exactly once semantics by checkpointing state every time" — concretely,
/// each (producer, sequence) id is recorded alongside the state mutation so
/// a redelivered record (the at-least-once engine *will* redeliver after
/// failures) is recognized and dropped.
///
/// Per producer the ledger keeps a watermark (every id below it was seen,
/// the id at it was not) plus the ascending ids seen above it. A dense,
/// in-order producer costs nothing beyond the watermark. A sparse one — a
/// key group sees only the ids whose keys hash to it — stops its watermark
/// at the first hole, so every later id it accepts stays retained: 8 bytes
/// in memory and 1–2 bytes in a Serialize'd frame (a varint gap to the
/// previous id). Nothing retires retained ids; they live as long as the
/// ledger.
///
/// Serialize is canonical: one ledger state always gives the same bytes,
/// whatever order its ids arrived in, and Deserialize accepts only that
/// form. Not internally synchronized: a ledger belongs to one bolt task,
/// whose Execute calls the engine already serializes.
class DedupLedger {
 public:
  DedupLedger() = default;

  /// Records `sequence` for `producer`; returns false if it was already
  /// processed (a duplicate the caller must drop).
  bool CheckAndRecord(uint64_t producer, uint64_t sequence);

  /// Ids retained above all watermarks (memory diagnostic).
  size_t RetainedIds() const {
    size_t total = 0;
    for (const auto& [producer, state] : producers_) {
      total += state.above.size();
    }
    return total;
  }

  /// Serialization for inclusion in checkpoints: a format-version byte,
  /// then per producer in ascending order its id, watermark, id count and
  /// the ids as varint gaps (the first measured from the watermark).
  std::vector<uint8_t> Serialize() const;
  /// Typed Corruption for anything Serialize cannot have produced:
  /// truncation, trailing bytes, an unknown version, unordered producers,
  /// empty producer records, zero or wrapping gaps, overlong varints.
  static Result<DedupLedger> Deserialize(const std::vector<uint8_t>& bytes);

 private:
  struct State {
    uint64_t watermark = 0;
    std::vector<uint64_t> above;  // Ascending ids > watermark.
  };

  std::map<uint64_t, State> producers_;  // Ordered: canonical bytes.
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_CHECKPOINT_H_
