#include "platform/fault.h"

#include <cmath>

#include "platform/metrics.h"

namespace streamlib::platform {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDropTuple: return "drop_tuple";
    case FaultKind::kDuplicateTuple: return "duplicate_tuple";
    case FaultKind::kDelayDelivery: return "delay_delivery";
    case FaultKind::kBoltThrow: return "bolt_throw";
    case FaultKind::kTaskCrash: return "task_crash";
    case FaultKind::kQueueStall: return "queue_stall";
    case FaultKind::kAckerEventLoss: return "acker_event_loss";
    case FaultKind::kBarrierDrop: return "barrier_drop";
    case FaultKind::kBarrierDelay: return "barrier_delay";
  }
  return "unknown";
}

bool FaultSpec::Enabled() const {
  return drop_tuple_prob > 0 || duplicate_tuple_prob > 0 ||
         delay_delivery_prob > 0 || bolt_throw_prob > 0 ||
         task_crash_prob > 0 || queue_stall_prob > 0 || acker_loss_prob > 0 ||
         barrier_drop_prob > 0 || barrier_delay_prob > 0;
}

Status FaultSpec::Validate() const {
  const struct {
    const char* name;
    double value;
  } probs[] = {
      {"drop_tuple_prob", drop_tuple_prob},
      {"duplicate_tuple_prob", duplicate_tuple_prob},
      {"delay_delivery_prob", delay_delivery_prob},
      {"bolt_throw_prob", bolt_throw_prob},
      {"task_crash_prob", task_crash_prob},
      {"queue_stall_prob", queue_stall_prob},
      {"acker_loss_prob", acker_loss_prob},
      {"barrier_drop_prob", barrier_drop_prob},
      {"barrier_delay_prob", barrier_delay_prob},
  };
  for (const auto& p : probs) {
    if (!std::isfinite(p.value) || p.value < 0.0 || p.value > 1.0) {
      return Status::InvalidArgument(std::string("FaultSpec::") + p.name +
                                     " must be in [0, 1]");
    }
  }
  return Status::OK();
}

FaultPlan::FaultPlan(FaultSpec spec) : spec_(spec) {}

std::unique_ptr<FaultSite> FaultPlan::MakeSite(uint64_t site_id,
                                               TaskMetrics* metrics) {
  auto& slot = site_stats_[site_id];
  if (slot == nullptr) slot = std::make_unique<FaultSiteStats>();
  return std::unique_ptr<FaultSite>(
      new FaultSite(this, site_id, metrics, slot.get()));
}

uint64_t FaultPlan::total_injected() const {
  uint64_t total = 0;
  for (const uint64_t count : Snapshot()) total += count;
  return total;
}

std::array<uint64_t, kNumFaultKinds> FaultPlan::Snapshot() const {
  std::array<uint64_t, kNumFaultKinds> out{};
  for (const auto& [site_id, stats] : site_stats_) {
    for (size_t i = 0; i < kNumFaultKinds; i++) out[i] += stats->fired[i];
  }
  return out;
}

std::map<uint64_t, FaultSiteStats> FaultPlan::SiteStatsSnapshot() const {
  std::map<uint64_t, FaultSiteStats> out;
  for (const auto& [site_id, stats] : site_stats_) {
    out[site_id] = *stats;
  }
  return out;
}

FaultSite::FaultSite(FaultPlan* plan, uint64_t site_id, TaskMetrics* metrics,
                     FaultSiteStats* stats)
    // Golden-ratio mixing keeps adjacent site ids from producing
    // correlated streams (Rng's SplitMix64 expansion finishes the job).
    : plan_(plan),
      rng_(plan->spec_.seed ^ (0x9e3779b97f4a7c15ULL * (site_id + 1))),
      metrics_(metrics),
      stats_(stats) {}

bool FaultSite::Draw(double prob, FaultKind kind, bool allowed) {
  if (prob <= 0.0) return false;
  stats_->consulted[static_cast<size_t>(kind)]++;
  if (rng_.NextDouble() >= prob || !allowed) return false;
  stats_->fired[static_cast<size_t>(kind)]++;
  if (metrics_ != nullptr) metrics_->IncFaultsInjected();
  return true;
}

bool FaultSite::FireDropTuple() {
  return Draw(plan_->spec_.drop_tuple_prob, FaultKind::kDropTuple);
}

bool FaultSite::FireDuplicateTuple() {
  return Draw(plan_->spec_.duplicate_tuple_prob, FaultKind::kDuplicateTuple);
}

uint32_t FaultSite::DeliveryDelayMicros() {
  const uint32_t max = plan_->spec_.delay_max_micros;
  if (max == 0 ||
      !Draw(plan_->spec_.delay_delivery_prob, FaultKind::kDelayDelivery)) {
    return 0;
  }
  return 1 + static_cast<uint32_t>(rng_.NextBounded(max));
}

bool FaultSite::FireBoltThrow() {
  return Draw(plan_->spec_.bolt_throw_prob, FaultKind::kBoltThrow);
}

bool FaultSite::FireTaskCrash() {
  // The budget is this site's own crash count, so whether a crash fires
  // depends on the site's program order alone.
  const uint64_t crashes =
      stats_->fired[static_cast<size_t>(FaultKind::kTaskCrash)];
  return Draw(plan_->spec_.task_crash_prob, FaultKind::kTaskCrash,
              crashes < plan_->spec_.max_task_crashes);
}

bool FaultSite::FireAckerLoss() {
  return Draw(plan_->spec_.acker_loss_prob, FaultKind::kAckerEventLoss);
}

bool FaultSite::FireBarrierDrop() {
  return Draw(plan_->spec_.barrier_drop_prob, FaultKind::kBarrierDrop);
}

uint32_t FaultSite::BarrierDelayMicros() {
  const uint32_t max = plan_->spec_.barrier_delay_max_micros;
  if (max == 0 ||
      !Draw(plan_->spec_.barrier_delay_prob, FaultKind::kBarrierDelay)) {
    return 0;
  }
  return 1 + static_cast<uint32_t>(rng_.NextBounded(max));
}

uint32_t FaultSite::QueueStallMicros() {
  const uint32_t max = plan_->spec_.queue_stall_micros;
  if (max == 0 ||
      !Draw(plan_->spec_.queue_stall_prob, FaultKind::kQueueStall)) {
    return 0;
  }
  return 1 + static_cast<uint32_t>(rng_.NextBounded(max));
}

}  // namespace streamlib::platform
