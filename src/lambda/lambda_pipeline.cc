#include "lambda/lambda_pipeline.h"

#include "common/check.h"

namespace streamlib::lambda {

Status LambdaConfig::Validate() const {
  if (batch_interval_records < 1) {
    return Status::InvalidArgument("batch_interval_records must be >= 1");
  }
  if (speed_snapshot_interval_records < 1) {
    return Status::InvalidArgument(
        "speed_snapshot_interval_records must be >= 1 (1 publishes on every "
        "ingest)");
  }
  return Status::OK();
}

LambdaPipeline::LambdaPipeline(const LambdaConfig& config)
    : config_(config),
      speed_(config.speed_snapshot_interval_records),
      serving_(&speed_) {
  const Status status = config.Validate();
  STREAMLIB_CHECK_MSG(status.ok(), "invalid LambdaConfig: %s",
                      status.ToString().c_str());
  worker_ = std::thread(&LambdaPipeline::RunWorker, this);
}

LambdaPipeline::~LambdaPipeline() {
  WaitForBatch();
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    stopping_ = true;
  }
  batch_cv_.notify_all();
  worker_.join();
}

void LambdaPipeline::Ingest(int64_t timestamp, const std::string& key,
                            double value) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  // This record makes the next cut due. A recompute still in flight must
  // land first — the one ingest wait — so the sealed view it absorbs is
  // gone before the next one is sealed.
  const bool cut_due =
      log_.size() + 1 - last_cut_ >= config_.batch_interval_records;
  if (cut_due) WaitForBatch();
  const uint64_t offset = log_.Append(timestamp, key, value);
  LogRecord record;
  record.offset = offset;
  record.timestamp = timestamp;
  record.key = key;
  record.value = value;
  if (speed_.Ingest(record)) {
    serving_.RefreshSpeedView();  // A fresh SpeedView was published.
  }
  if (cut_due) CutLocked();
}

void LambdaPipeline::CutLocked() {
  // Hand-off order matters: seal the speed layer first (it restarts its
  // live view empty at the cut), then compose batch + sealed + live in ONE
  // snapshot swap. Writers are serialized on writer_mu_, so no record can
  // land between the seal and that swap, and readers see either the old
  // views or all three — never the live view without the sealed one.
  std::shared_ptr<const SpeedView> sealed = speed_.Seal();
  const uint64_t cut = sealed->through_offset();
  serving_.Seal(std::move(sealed));
  last_cut_ = log_.size();
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    cut_ = cut;
    in_flight_ = true;
  }
  batch_cv_.notify_all();
}

void LambdaPipeline::RunWorker() {
  std::unique_lock<std::mutex> lock(batch_mu_);
  for (;;) {
    batch_cv_.wait(lock, [this] { return in_flight_ || stopping_; });
    if (stopping_) return;
    const uint64_t cut = cut_;
    lock.unlock();
    // The prefix [0, cut) never changes, so the scan needs no writer lock.
    // The install drops the sealed view in the same swap.
    serving_.InstallBatchView(batch_.RecomputePrefix(log_, cut));
    lock.lock();
    in_flight_ = false;
    batch_recomputes_++;
    batch_cv_.notify_all();
  }
}

void LambdaPipeline::WaitForBatch() const {
  std::unique_lock<std::mutex> lock(batch_mu_);
  batch_cv_.wait(lock, [this] { return !in_flight_; });
}

void LambdaPipeline::RunBatchNow() {
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    WaitForBatch();
    CutLocked();
  }
  WaitForBatch();
}

void LambdaPipeline::PublishSpeedSnapshot() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  speed_.PublishSnapshot();
  serving_.RefreshSpeedView();
}

Status LambdaPipeline::Save(const std::string& path) const {
  return log_.Save(path);
}

Status LambdaPipeline::Restore(const std::string& path) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  // A recompute of the empty log may still be in flight (RunBatchNow); it
  // must land before the rebuilt views replace it.
  WaitForBatch();
  STREAMLIB_RETURN_NOT_OK(log_.Load(path));
  const uint64_t end = log_.size();
  BatchView view = batch_.RecomputePrefix(log_, end);
  speed_.RestartAt(end);
  serving_.InstallBatchView(std::move(view));
  last_cut_ = end;
  return Status::OK();
}

}  // namespace streamlib::lambda
