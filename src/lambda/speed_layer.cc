#include "lambda/speed_layer.h"

#include <cmath>
#include <utility>

#include "common/check.h"

namespace streamlib::lambda {

std::vector<std::pair<std::string, double>> SpeedView::TopK(size_t k) const {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& item : topk.TopK(k)) {
    out.emplace_back(item.key, static_cast<double>(item.estimate));
  }
  return out;
}

SpeedLayer::SpeedLayer(uint64_t snapshot_interval)
    : snapshot_interval_(snapshot_interval) {
  STREAMLIB_CHECK_MSG(snapshot_interval >= 1,
                      "speed-layer snapshot interval must be >= 1");
  std::lock_guard<std::mutex> lock(mu_);
  PublishLocked();  // View() is never null, even before the first ingest.
}

std::shared_ptr<const SpeedView> SpeedLayer::FreezeLocked() {
  auto view = std::make_shared<SpeedView>();
  view->version = ++next_version_;
  view->from_offset = from_offset_;
  view->ingested = ingested_;
  view->totals = totals_;
  view->topk = topk_;
  view->distinct = distinct_;
  return view;
}

std::shared_ptr<const SpeedView> SpeedLayer::PublishLocked() {
  std::shared_ptr<const SpeedView> frozen = FreezeLocked();
  since_publish_ = 0;
  view_.store(frozen);
  return frozen;
}

bool SpeedLayer::Ingest(const LogRecord& record) {
  // Record values are event weights (typically 1.0 for count semantics);
  // the integer sketches ingest the rounded weight.
  const uint64_t weight = static_cast<uint64_t>(
      std::llround(std::max(record.value, 0.0)));
  std::lock_guard<std::mutex> lock(mu_);
  STREAMLIB_DCHECK(record.offset >= from_offset_);
  ingested_++;
  since_publish_++;
  if (weight > 0) {
    totals_.Add(record.key, weight);
    topk_.Add(record.key, weight);
  }
  distinct_.Add(record.key);
  if (since_publish_ >= snapshot_interval_) {
    PublishLocked();
    return true;
  }
  return false;
}

std::shared_ptr<const SpeedView> SpeedLayer::PublishSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  return PublishLocked();
}

double SpeedLayer::TotalOf(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<double>(totals_.Estimate(key));
}

std::vector<std::pair<std::string, double>> SpeedLayer::TopK(size_t k) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  for (const auto& item : topk_.TopK(k)) {
    out.emplace_back(item.key, static_cast<double>(item.estimate));
  }
  return out;
}

void SpeedLayer::RestartLocked(uint64_t offset) {
  from_offset_ = offset;
  ingested_ = 0;
  totals_ = CountMinSketch(kSpeedCmsWidth, kSpeedCmsDepth,
                           /*conservative=*/true);
  topk_ = SpaceSaving<std::string>(kSpeedTopKCapacity);
  distinct_ = HyperLogLog(kDistinctKeysPrecision);
  PublishLocked();
}

std::shared_ptr<const SpeedView> SpeedLayer::Seal() {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const SpeedView> sealed = FreezeLocked();
  // The hand-off always publishes (empty suffix view).
  RestartLocked(from_offset_ + ingested_);
  return sealed;
}

void SpeedLayer::RestartAt(uint64_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  RestartLocked(offset);
}

uint64_t SpeedLayer::from_offset() const {
  std::lock_guard<std::mutex> lock(mu_);
  return from_offset_;
}

uint64_t SpeedLayer::ingested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ingested_;
}

}  // namespace streamlib::lambda
