#ifndef STREAMLIB_LAMBDA_LAMBDA_PIPELINE_H_
#define STREAMLIB_LAMBDA_LAMBDA_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "lambda/batch_layer.h"
#include "lambda/master_log.h"
#include "lambda/serving_layer.h"
#include "lambda/speed_layer.h"

namespace streamlib::lambda {

/// Pipeline tuning knobs.
struct LambdaConfig {
  /// A batch recompute starts once this many records have arrived since
  /// the last cut (the staleness/work trade-off the F1 bench sweeps). It
  /// runs in the background; the records not yet in the batch view
  /// (SpeedSuffixLength) stay below 2 × this while one is in flight, and
  /// below this once it lands (LambdaPipeline::WaitForBatch).
  uint64_t batch_interval_records = 10000;

  /// The speed layer publishes an immutable SpeedView every this many
  /// ingests (plus on every batch hand-off). This is the staleness bound of
  /// the lock-free read path: a query may miss at most the last
  /// `speed_snapshot_interval_records - 1` ingested records. 1 = publish on
  /// every ingest (exact freshness, full sketch copy per record).
  uint64_t speed_snapshot_interval_records = 256;

  /// Typed validation of every knob; mirrors EngineConfig::Validate. The
  /// LambdaPipeline constructor checks this and aborts on invalid configs;
  /// callers taking config from the outside validate first.
  Status Validate() const;
};

/// The full Lambda Architecture of Figure 1, wired end to end:
///   1. Ingest() dispatches each event to both the batch layer's master log
///      and the speed layer.
///   2-3. The batch layer periodically recomputes exact batch views over the
///      immutable log, which the serving layer indexes.
///   4. The speed layer covers only the records the current batch view has
///      not seen, with the Section-2 sketches.
///   5. Queries merge batch + real-time views.
///
/// The master log is the only state the pipeline persists: Save writes it,
/// and Restore loads it into an empty pipeline and recomputes the views.
///
/// Concurrency (DESIGN.md §14): writers — Ingest, RunBatchNow, Restore —
/// serialize on one pipeline mutex. Every batch recompute runs on one
/// background worker the pipeline owns. A cut at the log end seals the
/// speed layer's [b, cut) under that mutex and hands the worker the prefix
/// [0, cut); ingest goes on into a fresh live speed view while the worker
/// scans the log, and one snapshot swap then installs the batch view over
/// [0, cut) and drops the sealed view. At most one recompute is in flight:
/// when the next cut comes due before it lands, Ingest waits for it — the
/// only wait left on the ingest path, which keeps the cut points at
/// multiples of batch_interval_records and SpeedSuffixLength() below twice
/// that. Readers never take the writer mutex: every query runs against an
/// immutable ServingSnapshot obtained by a single atomic load, so read
/// throughput scales with reader threads while ingest runs at full rate.
class LambdaPipeline {
 public:
  explicit LambdaPipeline(const LambdaConfig& config);

  /// Waits for an in-flight recompute to land, then stops the worker.
  ~LambdaPipeline();

  LambdaPipeline(const LambdaPipeline&) = delete;
  LambdaPipeline& operator=(const LambdaPipeline&) = delete;

  /// Ingests one event into both paths (Figure 1, step 1).
  void Ingest(int64_t timestamp, const std::string& key, double value);

  /// Cuts at the current log end and returns once the batch view over the
  /// whole log, as of the call, has landed.
  void RunBatchNow();

  /// Blocks until no batch recompute is in flight.
  void WaitForBatch() const;

  /// Forces publication of a fresh speed view + serving snapshot, so the
  /// very next query sees everything ingested so far (bypasses the
  /// snapshot-interval staleness bound).
  void PublishSpeedSnapshot();

  /// Writes the master log's records [0, log().size()) as of the call to
  /// `path` (MasterLog::Save). Takes no writer lock and waits for no
  /// recompute: the prefix never changes, so ingest goes on meanwhile.
  Status Save(const std::string& path) const;

  /// Loads a log image written by Save into this pipeline, whose log must
  /// be empty (FailedPrecondition otherwise), and rebuilds the views from
  /// it: a batch view over the whole log and an empty live speed view at
  /// its end, installed in one snapshot swap, so every answer is exact and
  /// the next automatic cut comes due batch_interval_records later. An
  /// image that fails to load (MasterLog::Load) leaves the pipeline empty
  /// and usable.
  Status Restore(const std::string& path);

  /// Merged query interface (Figure 1, step 5). Lock-free: each call runs
  /// against one immutable snapshot. Multi-query consistency (e.g. a total
  /// and a top-k answered from the same state) comes from holding the
  /// snapshot: serving().Snapshot().
  double QueryTotal(const std::string& key) const {
    return serving_.TotalOf(key);
  }
  std::vector<std::pair<std::string, double>> QueryTopK(size_t k) const {
    return serving_.TopK(k);
  }
  double QueryDistinctKeys() const { return serving_.DistinctKeys(); }

  const MasterLog& log() const { return log_; }
  const ServingLayer& serving() const { return serving_; }
  const SpeedLayer& speed() const { return speed_; }
  /// Batch views the background worker has landed so far.
  uint64_t batch_recomputes() const {
    std::lock_guard<std::mutex> lock(batch_mu_);
    return batch_recomputes_;
  }

  /// Records not yet covered by the batch view (staleness in records).
  /// Reads the batch offset *before* the log size: the log only grows, and
  /// the batch view always covers a prefix of it, so that order guarantees
  /// size >= offset; the subtraction is additionally clamped at zero so a
  /// reordered or racing read can never wrap the unsigned difference.
  uint64_t SpeedSuffixLength() const {
    const uint64_t batch_through = serving_.BatchThroughOffset();
    const uint64_t log_size = log_.size();
    return log_size > batch_through ? log_size - batch_through : 0;
  }

 private:
  /// Seals the speed layer at the log end and hands the prefix to the
  /// worker. Caller holds writer_mu_, and no recompute is in flight.
  void CutLocked();

  /// The worker: recomputes each handed-over prefix and installs it.
  void RunWorker();

  LambdaConfig config_;
  MasterLog log_;
  BatchLayer batch_;
  SpeedLayer speed_;
  ServingLayer serving_;
  /// Serializes writers (ingest / cut / restore). Queries never take it.
  mutable std::mutex writer_mu_;
  uint64_t last_cut_ = 0;  ///< log end at the last cut; under writer_mu_

  /// Hand-off to the worker. A writer sets `cut_` and `in_flight_`; the
  /// worker clears `in_flight_` once the view over [0, cut_) has landed.
  mutable std::mutex batch_mu_;
  mutable std::condition_variable batch_cv_;
  uint64_t cut_ = 0;
  bool in_flight_ = false;
  bool stopping_ = false;
  uint64_t batch_recomputes_ = 0;
  std::thread worker_;  ///< runs RunWorker; joined by the destructor
};

}  // namespace streamlib::lambda

#endif  // STREAMLIB_LAMBDA_LAMBDA_PIPELINE_H_
