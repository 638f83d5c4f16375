#include "lambda/serving_layer.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>

#include "common/check.h"
#include "core/cardinality/hyperloglog.h"

namespace streamlib::lambda {

double ServingSnapshot::TotalOf(const std::string& key) const {
  const double sealed_total = sealed ? sealed->TotalOf(key) : 0.0;
  return batch->TotalOf(key) + sealed_total + speed->TotalOf(key);
}

std::vector<std::pair<std::string, double>> ServingSnapshot::TopK(
    size_t k) const {
  // Candidates: top keys of every view (taking 2k from each bounds the
  // merge error the same way distributed top-k merges do). 2k saturates,
  // so a k past SIZE_MAX / 2 takes every key instead of wrapping.
  const size_t fetch = k > SIZE_MAX / 2 ? SIZE_MAX : 2 * k;
  std::set<std::string> candidates;
  for (const auto& [key, total] : batch->TopK(fetch)) candidates.insert(key);
  if (sealed) {
    for (const auto& [key, total] : sealed->TopK(fetch)) candidates.insert(key);
  }
  for (const auto& [key, total] : speed->TopK(fetch)) candidates.insert(key);

  std::vector<std::pair<std::string, double>> merged;
  merged.reserve(candidates.size());
  for (const std::string& key : candidates) {
    merged.emplace_back(key, TotalOf(key));
  }
  std::sort(merged.begin(), merged.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (merged.size() > k) merged.resize(k);
  return merged;
}

ServingLayer::ServingLayer(const SpeedLayer* speed) : speed_(speed) {
  STREAMLIB_CHECK(speed != nullptr);
  std::lock_guard<std::mutex> lock(compose_mu_);
  PublishLocked(std::make_shared<const BatchView>(), nullptr, speed_->View());
}

void ServingLayer::PublishLocked(std::shared_ptr<const BatchView> batch,
                                 std::shared_ptr<const SpeedView> sealed,
                                 std::shared_ptr<const SpeedView> speed) {
  STREAMLIB_DCHECK(batch->through_offset ==
                   (sealed ? sealed->from_offset : speed->from_offset));
  STREAMLIB_DCHECK(!sealed || sealed->through_offset() == speed->from_offset);
  auto snap = std::make_shared<ServingSnapshot>();
  snap->version = ++next_version_;
  snap->batch = std::move(batch);
  snap->sealed = std::move(sealed);
  snap->speed = std::move(speed);
  // Fold the distinct-key union once per snapshot: every view carries its
  // HLL, all at kDistinctKeysPrecision.
  HyperLogLog merged = snap->speed->distinct;
  for (const HyperLogLog* other :
       {snap->sealed ? &snap->sealed->distinct : nullptr,
        &snap->batch->distinct_keys}) {
    if (other == nullptr) continue;
    const Status status = merged.Merge(*other);
    STREAMLIB_CHECK_MSG(status.ok(), "distinct sketch merge: %s",
                        status.ToString().c_str());
  }
  snap->distinct_estimate = merged.Estimate();
  snap_.store(std::shared_ptr<const ServingSnapshot>(std::move(snap)));
}

void ServingLayer::Seal(std::shared_ptr<const SpeedView> sealed) {
  std::lock_guard<std::mutex> lock(compose_mu_);
  PublishLocked(snap_.load()->batch, std::move(sealed), speed_->View());
}

void ServingLayer::InstallBatchView(BatchView view) {
  auto shared = std::make_shared<const BatchView>(std::move(view));
  std::lock_guard<std::mutex> lock(compose_mu_);
  PublishLocked(std::move(shared), nullptr, speed_->View());
}

void ServingLayer::RefreshSpeedView() {
  std::lock_guard<std::mutex> lock(compose_mu_);
  std::shared_ptr<const SpeedView> speed = speed_->View();
  const std::shared_ptr<const ServingSnapshot> current = snap_.load();
  // Two refreshes can race to the composition lock; whichever loses must
  // not regress the snapshot to an older speed view.
  if (speed->version <= current->speed->version) return;
  PublishLocked(current->batch, current->sealed, std::move(speed));
}

}  // namespace streamlib::lambda
