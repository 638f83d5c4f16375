#ifndef STREAMLIB_LAMBDA_BATCH_LAYER_H_
#define STREAMLIB_LAMBDA_BATCH_LAYER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "lambda/master_log.h"
#include "platform/checkpoint.h"

namespace streamlib::lambda {

/// A batch view: exact aggregates precomputed over a master-log prefix
/// (Figure 1, steps 2-3 — the batch layer "pre-computes the batch views",
/// the serving layer "indexes them for low-latency queries"). Immutable
/// once built; `through_offset` records the prefix it covers so the speed
/// layer knows where real-time responsibility begins.
struct BatchView {
  uint64_t through_offset = 0;  ///< exclusive end of the covered prefix
  std::unordered_map<std::string, double> key_totals;  ///< exact sums

  /// Every key by total descending, then key ascending. Built once with
  /// the view (RecomputePrefix, RestoreFrom), so TopK copies k entries
  /// instead of sorting the whole map on each query.
  std::vector<std::pair<std::string, double>> ranked;

  /// Cardinality of the key set as a versioned SketchBlob (HyperLogLog,
  /// precision 12). Kept in envelope form so the serving layer merges it
  /// with the speed layer's blob through the state contract, and so the
  /// view persists byte-for-byte through a KvCheckpointStore.
  std::vector<uint8_t> distinct_keys_blob;

  /// Exact total for a key over the covered prefix (0 if absent).
  double TotalOf(const std::string& key) const;

  /// Top-k keys by total, descending (ties by key): the first k of
  /// `ranked`.
  std::vector<std::pair<std::string, double>> TopK(size_t k) const;

  /// Persists the view into `store` under `prefix` — the distinct-key
  /// sketch as its SketchBlob, the exact totals + offset as a meta entry.
  void SnapshotTo(platform::KvCheckpointStore* store,
                  const std::string& prefix) const;

  /// Rebuilds a view previously written by SnapshotTo. Corrupt or missing
  /// entries (a repeated key included) surface as the underlying Status.
  static Result<BatchView> RestoreFrom(const platform::KvCheckpointStore& store,
                                       const std::string& prefix);
};

/// The batch layer: recomputes a BatchView from scratch over a master-log
/// prefix. Recomputation latency is what the Lambda Architecture trades
/// against freshness — the F1 bench measures staleness by controlling how
/// often this runs. A recompute scans the log in place, so it can run on
/// another thread while the writer appends past its prefix.
class BatchLayer {
 public:
  BatchLayer() = default;

  /// Full recompute over log[0, log.size()). O(prefix length).
  BatchView Recompute(const MasterLog& log) const;

  /// Recompute over an explicit prefix log[0, through_offset), bounded to
  /// the log's end.
  BatchView RecomputePrefix(const MasterLog& log,
                            uint64_t through_offset) const;
};

}  // namespace streamlib::lambda

#endif  // STREAMLIB_LAMBDA_BATCH_LAYER_H_
