#ifndef STREAMLIB_LAMBDA_BATCH_LAYER_H_
#define STREAMLIB_LAMBDA_BATCH_LAYER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cardinality/hyperloglog.h"
#include "lambda/master_log.h"

namespace streamlib::lambda {

/// HyperLogLog precision of every view's distinct-key sketch, batch and
/// speed alike: the serving layer merges them, which needs one register
/// geometry.
inline constexpr int kDistinctKeysPrecision = 12;

/// A batch view: exact aggregates precomputed over a master-log prefix
/// (Figure 1, steps 2-3 — the batch layer "pre-computes the batch views",
/// the serving layer "indexes them for low-latency queries"). Immutable
/// once built; `through_offset` records the prefix it covers so the speed
/// layer knows where real-time responsibility begins.
struct BatchView {
  uint64_t through_offset = 0;  ///< exclusive end of the covered prefix
  std::unordered_map<std::string, double> key_totals;  ///< exact sums

  /// Every key by total descending, then key ascending. Built once with
  /// the view (RecomputePrefix), so TopK copies k entries instead of
  /// sorting the whole map on each query.
  std::vector<std::pair<std::string, double>> ranked;

  /// Cardinality of the key set. The serving layer merges it with the
  /// speed views' sketches once per snapshot.
  HyperLogLog distinct_keys{kDistinctKeysPrecision};

  /// Exact total for a key over the covered prefix (0 if absent).
  double TotalOf(const std::string& key) const;

  /// Top-k keys by total, descending (ties by key): the first k of
  /// `ranked`.
  std::vector<std::pair<std::string, double>> TopK(size_t k) const;
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
