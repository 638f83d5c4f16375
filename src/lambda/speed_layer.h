#ifndef STREAMLIB_LAMBDA_SPEED_LAYER_H_
#define STREAMLIB_LAMBDA_SPEED_LAYER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rcu_ptr.h"
#include "common/status.h"
#include "core/cardinality/hyperloglog.h"
#include "core/frequency/count_min_sketch.h"
#include "core/frequency/space_saving.h"
#include "lambda/batch_layer.h"
#include "lambda/master_log.h"

namespace streamlib::lambda {

/// Sketch geometry of every speed view, live and published: Count-Min
/// width and depth for per-key totals, SpaceSaving entries for top-k.
inline constexpr uint32_t kSpeedCmsWidth = 2048;
inline constexpr uint32_t kSpeedCmsDepth = 4;
inline constexpr size_t kSpeedTopKCapacity = 256;

/// An immutable, versioned snapshot of the speed layer's sketches. Published
/// RCU-style: once a SpeedView is handed out it never changes, so any number
/// of reader threads can query it concurrently without synchronization while
/// ingest keeps mutating the live sketches behind it. Readers obtain the
/// latest view through SpeedLayer::View() (a lock-free atomic load).
struct SpeedView {
  uint64_t version = 0;      ///< monotone publication counter
  uint64_t from_offset = 0;  ///< first log offset this view covers
  uint64_t ingested = 0;     ///< records folded into the sketches

  CountMinSketch totals{kSpeedCmsWidth, kSpeedCmsDepth,
                        /*conservative=*/true};
  SpaceSaving<std::string> topk{kSpeedTopKCapacity};
  HyperLogLog distinct{kDistinctKeysPrecision};

  /// Exclusive end of the log range the view covers.
  uint64_t through_offset() const { return from_offset + ingested; }

  /// Estimated total for `key` over [from_offset, through_offset()).
  double TotalOf(const std::string& key) const {
    return static_cast<double>(totals.Estimate(key));
  }

  /// Top-k keys by estimated total over the covered suffix.
  std::vector<std::pair<std::string, double>> TopK(size_t k) const;
};

/// The speed layer (Figure 1, step 4): compensates for batch staleness by
/// maintaining *approximate, incremental* real-time views over the log
/// suffix the latest batch view does not cover. This is where the paper's
/// two threads meet: the streaming sketches of Section 2 are exactly what
/// makes the real-time view cheap (Count-Min for per-key totals,
/// SpaceSaving for top-k, HyperLogLog for cardinality — the Summingbird
/// pattern). Thread-safe.
///
/// Concurrency model (DESIGN.md §14): writers (Ingest/Seal/RestartAt)
/// serialize on an internal mutex; every `snapshot_interval` ingests — and
/// on every Seal/RestartAt — the layer publishes an immutable SpeedView via
/// an atomic shared_ptr swap. Queries against View() never contend with
/// ingest. The live query methods (TotalOf/TopK) remain for
/// single-threaded exactness and as the mutex-merge baseline the serving
/// bench compares against; the scalable read path is View().
class SpeedLayer {
 public:
  /// \param snapshot_interval  publish a fresh SpeedView every this many
  ///                           ingests (the staleness bound of the
  ///                           lock-free read path; >= 1).
  explicit SpeedLayer(uint64_t snapshot_interval = 256);

  /// Ingests one record (must have offset >= from_offset()). Returns true
  /// when this ingest crossed the snapshot interval and published a fresh
  /// SpeedView (the caller — LambdaPipeline — then refreshes the serving
  /// layer's snapshot pair).
  bool Ingest(const LogRecord& record);

  /// Latest published immutable view. Never null; lock-free.
  std::shared_ptr<const SpeedView> View() const { return view_.load(); }

  /// Forces publication of a fresh view of the current live state and
  /// returns it (also swapped into View()).
  std::shared_ptr<const SpeedView> PublishSnapshot();

  /// Real-time estimate of the total for `key` over ingested records,
  /// against the *live* sketches (locks against ingest).
  double TotalOf(const std::string& key) const;

  /// Real-time top-k keys by estimated total (live, locked).
  std::vector<std::pair<std::string, double>> TopK(size_t k) const;

  /// The speed half of a batch hand-off: freezes the live sketches as an
  /// immutable view of [from_offset(), cut), where cut is the live end,
  /// then restarts them empty at `cut` and publishes the empty view. The
  /// sealed view answers for its range until a batch view over [0, cut)
  /// lands; the serving layer drops it then.
  std::shared_ptr<const SpeedView> Seal();

  /// Restarts the live sketches empty at `offset` and publishes the empty
  /// view: the speed half of a restore, whose batch view covers
  /// [0, offset).
  void RestartAt(uint64_t offset);

  uint64_t from_offset() const;
  uint64_t ingested() const;
  uint64_t snapshot_interval() const { return snapshot_interval_; }

 private:
  /// Builds an immutable copy of the live state. Caller holds mu_.
  std::shared_ptr<const SpeedView> FreezeLocked();

  /// Builds + publishes a view of the live state. Caller holds mu_.
  std::shared_ptr<const SpeedView> PublishLocked();

  /// Empties the live sketches, restarts them at `offset` and publishes
  /// the empty view. Caller holds mu_.
  void RestartLocked(uint64_t offset);

  uint64_t snapshot_interval_;

  mutable std::mutex mu_;
  uint64_t from_offset_ = 0;
  uint64_t ingested_ = 0;
  uint64_t since_publish_ = 0;  ///< ingests since the last published view
  uint64_t next_version_ = 0;
  CountMinSketch totals_{kSpeedCmsWidth, kSpeedCmsDepth,
                         /*conservative=*/true};
  SpaceSaving<std::string> topk_{kSpeedTopKCapacity};
  HyperLogLog distinct_{kDistinctKeysPrecision};

  /// RCU publication point: readers atomic-load, writers swap whole views.
  RcuPtr<SpeedView> view_;
};

}  // namespace streamlib::lambda

#endif  // STREAMLIB_LAMBDA_SPEED_LAYER_H_
