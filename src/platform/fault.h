#ifndef STREAMLIB_PLATFORM_FAULT_H_
#define STREAMLIB_PLATFORM_FAULT_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/random.h"
#include "common/status.h"

namespace streamlib::platform {

class TaskMetrics;

/// The failure vocabulary of the engine's chaos harness — each kind maps
/// to one injection point in the data or control plane. The paper's
/// platform axis (Table 2) separates Storm/Heron/MillWheel by what they
/// guarantee *under exactly these events*; the injector exists so tests
/// can create them on demand instead of waiting for them to happen.
enum class FaultKind : uint8_t {
  kDropTuple = 0,    ///< staged delivery silently lost in "transport"
  kDuplicateTuple,   ///< staged delivery arrives twice (redelivery)
  kDelayDelivery,    ///< staged delivery held back a bounded interval
  kBoltThrow,        ///< bolt Execute throws mid-tuple
  kTaskCrash,        ///< bolt instance dies and restarts from its factory
  kQueueStall,       ///< consumer stalls before executing a delivery
  kAckerEventLoss,   ///< executor→acker kUpdate event lost
  kBarrierDrop,      ///< epoch-barrier marker lost toward one target task
  kBarrierDelay,     ///< epoch-barrier marker held back a bounded interval
};

inline constexpr size_t kNumFaultKinds = 9;

/// Short stable identifier ("drop_tuple", ...) — JSON keys and logs.
const char* FaultKindName(FaultKind kind);

/// Declarative fault mix: per-injection-point probabilities plus the
/// master seed every per-site PRNG derives from. All probabilities default
/// to 0 (injection fully disabled — the engine then skips every hook).
///
/// Determinism model: each injection site (one task's transport path, one
/// task's executor, one bolt task's input stalls) owns a PRNG seeded from
/// (seed, site id) and consults it in the site's own program order. A
/// site's decision stream — which consultation indices fire, and every
/// drawn delay/stall magnitude — is therefore a pure function of the seed,
/// independent of thread scheduling. The crash budget is per site too, so
/// no decision depends on another site. Rerunning a failing seed replays
/// the same fault schedule at every site.
struct FaultSpec {
  uint64_t seed = 0xc4a05;  ///< master seed; per-site PRNGs derive from it

  double drop_tuple_prob = 0.0;       ///< per staged delivery
  double duplicate_tuple_prob = 0.0;  ///< per staged delivery
  double delay_delivery_prob = 0.0;   ///< per staged delivery
  uint32_t delay_max_micros = 200;    ///< delay drawn uniform in [1, max]
  double bolt_throw_prob = 0.0;       ///< per Execute call
  double task_crash_prob = 0.0;       ///< per executed tuple (post-Execute)
  uint32_t max_task_crashes = 1;      ///< crash/restart budget per bolt task
  double queue_stall_prob = 0.0;      ///< per tuple delivered to a bolt
  uint32_t queue_stall_micros = 100;  ///< stall drawn uniform in [1, max]
  double acker_loss_prob = 0.0;       ///< per successful tracked hop
  // Barrier-marker faults (epoch checkpointing only): consulted per
  // (barrier, target task) in EmitBarrier. A dropped barrier starves the
  // target's alignment for that epoch; the alignment timeout then
  // force-advances, the epoch goes incomplete, and checkpointing retries
  // at the next epoch — the wedge-resistance the chaos suite certifies.
  double barrier_drop_prob = 0.0;         ///< per barrier per target task
  double barrier_delay_prob = 0.0;        ///< per barrier per target task
  uint32_t barrier_delay_max_micros = 200;  ///< delay uniform in [1, max]

  /// Any probability > 0 — i.e. the engine must build sites and hooks.
  bool Enabled() const;

  /// All probabilities finite and in [0, 1].
  Status Validate() const;
};

class FaultSite;

/// Per-site decision-stream accounting: how many times each kind's draw
/// was consulted (PRNG advanced) and how many of those fired. Two runs
/// with the same seed executed the same fault schedule iff their per-site
/// stats maps compare equal — this is what the fused-vs-queued schedule
/// equality regression test asserts, and what caught the per-batch draw
/// sizing drift in the fused execute path.
struct FaultSiteStats {
  std::array<uint64_t, kNumFaultKinds> consulted{};
  std::array<uint64_t, kNumFaultKinds> fired{};

  bool operator==(const FaultSiteStats&) const = default;
};

/// Fault-injection state for one run: the spec and every site's stats.
/// Each decision and each count belongs to one site and is written only
/// by the thread that consults it; the plan itself keeps no counter.
/// Owned by the engine; tests read the counts through
/// TopologyEngine::fault_plan() or the telemetry report.
class FaultPlan {
 public:
  explicit FaultPlan(FaultSpec spec);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  const FaultSpec& spec() const { return spec_; }

  /// Creates the deterministic decision stream for one injection site.
  /// `site_id` must be unique and stable across runs (the engine uses the
  /// task's global index × site-role); `metrics` (nullable) receives the
  /// per-task faults_injected increments.
  std::unique_ptr<FaultSite> MakeSite(uint64_t site_id, TaskMetrics* metrics);

  // Each site's stats are written, unsynchronized, by the one thread that
  // consults the site. Read the four counts below once those draws are
  // ordered before the read: after Run() returns, or between replay steps.
  // TaskMetrics::faults_injected is the live per-task count.

  /// Faults injected, per kind / in total: sums of the sites' fired counts.
  uint64_t injected(FaultKind kind) const {
    return Snapshot()[static_cast<size_t>(kind)];
  }
  uint64_t total_injected() const;
  std::array<uint64_t, kNumFaultKinds> Snapshot() const;

  /// Copies every site's consulted/fired counters, keyed by site id.
  std::map<uint64_t, FaultSiteStats> SiteStatsSnapshot() const;

 private:
  friend class FaultSite;

  const FaultSpec spec_;
  // Stats slots live here (stable addresses) so a site can outlive nothing:
  // MakeSite is called single-threaded from BuildTasks; afterwards each
  // slot is written only by its site's consulting thread.
  std::map<uint64_t, std::unique_ptr<FaultSiteStats>> site_stats_;
};

/// One injection site's deterministic decision stream. NOT thread-safe:
/// a site belongs to exactly one consulting thread (the engine gives each
/// task its own sites, consulted only by the thread currently running
/// that task — which the engine already serializes).
///
/// Every Fire*/draw method advances the site PRNG exactly once when its
/// probability is nonzero, so the stream position after N consultations
/// is a function of the spec alone.
class FaultSite {
 public:
  /// Transport path (StageGraph::DrawTransport), consulted per routed
  /// delivery, fused hops included.
  bool FireDropTuple();
  bool FireDuplicateTuple();
  /// 0 = no delay; otherwise the number of microseconds to hold delivery.
  uint32_t DeliveryDelayMicros();

  /// Executor path (the stage runner, TopologyEngine::RunStage), consulted
  /// per delivered tuple — queued, fused or replayed.
  bool FireBoltThrow();
  /// Consulted after a successful Execute: true = the "process" dies here,
  /// between its state mutation and its ack (the MillWheel torn window).
  /// Fires at most max_task_crashes times per site; a crash the budget
  /// denies still advances the PRNG.
  bool FireTaskCrash();

  /// Ack path, consulted per successful tracked hop (nothing threw or
  /// crashed).
  bool FireAckerLoss();

  /// Barrier path (TaskCollector::EmitBarrier), consulted once per
  /// (barrier, target task). Data tuples never draw from these.
  bool FireBarrierDrop();
  /// 0 = no delay; otherwise microseconds to hold the barrier back.
  uint32_t BarrierDelayMicros();

  /// Consumer path, consulted per delivered tuple before the throw draw.
  /// 0 = no stall; otherwise microseconds the consumer sleeps.
  uint32_t QueueStallMicros();

 private:
  friend class FaultPlan;

  FaultSite(FaultPlan* plan, uint64_t site_id, TaskMetrics* metrics,
            FaultSiteStats* stats);

  /// One Bernoulli draw against `prob`; records `kind` on fire. Skips the
  /// PRNG entirely when prob == 0 so disabled kinds cost nothing and do
  /// not perturb the streams of enabled ones. A hit fires only if
  /// `allowed`.
  bool Draw(double prob, FaultKind kind, bool allowed = true);

  FaultPlan* plan_;
  Rng rng_;
  TaskMetrics* metrics_;  // Nullable (sites not tied to one task).
  FaultSiteStats* stats_;  // Owned by the plan; written only by this site.
};

/// The exception the bolt-throw injection point raises inside Execute.
/// Deliberately a real throw: it exercises the engine's genuine unwind and
/// catch path, the same one a buggy user bolt would take.
class InjectedBoltError : public std::runtime_error {
 public:
  explicit InjectedBoltError(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_FAULT_H_
