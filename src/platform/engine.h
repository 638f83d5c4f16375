#ifndef STREAMLIB_PLATFORM_ENGINE_H_
#define STREAMLIB_PLATFORM_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "platform/fault.h"
#include "platform/metrics.h"
#include "platform/metrics_sampler.h"
#include "platform/plan.h"
#include "platform/queue.h"
#include "platform/stage.h"
#include "platform/telemetry.h"
#include "platform/topology.h"
#include "platform/trace.h"

namespace streamlib::platform {

class RunRecorder;
class KvCheckpointStore;
class CheckpointCoordinator;
class Clock;

/// How bolt tasks map onto threads — the architectural axis the paper's
/// Storm-vs-Heron discussion (Section 3) turns on.
enum class ExecutionMode {
  /// Heron-style: every task runs in its own dedicated thread, blocking on
  /// its own input queue ("each task in a process of its own").
  kDedicated,
  /// Storm-style: a small pool of executor threads multiplexes all tasks,
  /// polling their queues round-robin ("disparate tasks multiplexed in a
  /// single worker" — the architecture Heron was built to replace).
  kMultiplexed,
};

/// Delivery guarantee for spout-rooted tuple trees.
enum class DeliverySemantics {
  kAtMostOnce,   ///< no tracking; failures lose tuples
  kAtLeastOnce,  ///< XOR-ledger acker; spouts see OnAck/OnFail
  /// At-least-once replay plus epoch-aligned barrier checkpoints plus
  /// checkpointed dedup state (DESIGN.md §12): every payload's effect is
  /// applied exactly once even across crash/restore. Requires a
  /// checkpoint_store and epoch_interval_tuples > 0.
  kExactlyOnce,
};

/// Whether a semantics level runs the acker / root-tracking machinery
/// (everything above at-most-once does).
inline bool TracksTuples(DeliverySemantics s) {
  return s != DeliverySemantics::kAtMostOnce;
}

/// Engine tuning knobs.
struct EngineConfig {
  ExecutionMode mode = ExecutionMode::kDedicated;
  DeliverySemantics semantics = DeliverySemantics::kAtMostOnce;
  size_t queue_capacity = 1024;      ///< per-task input queue bound, <= 2^20
  uint32_t multiplexed_threads = 2;  ///< executor pool size (kMultiplexed)
  size_t max_spout_pending = 4096;   ///< at-least-once spout throttle
  uint64_t seed = 0x5eed;            ///< shuffle-grouping randomness
  /// Every Nth tuple contributes an end-to-end latency sample.
  uint32_t latency_sample_every = 64;
  /// At-least-once: a root not fully acked within this window fails (and
  /// the spout's OnFail may replay it).
  double ack_timeout_seconds = 5.0;
  /// Transport batching: emissions accumulate in per-target staging
  /// buffers and flush as one batch push when a buffer reaches this size
  /// (or when the producing Execute/NextTuple batch ends). 1 disables
  /// output batching (per-tuple pushes, the pre-batching data plane).
  /// At most 65536, like execute_batch_size.
  size_t emit_batch_size = 32;
  /// Max input messages a bolt executor drains per queue operation.
  /// 1 disables input batching; at most 65536.
  size_t execute_batch_size = 128;
  /// Use a lock-free SPSC ring (instead of the mutex BlockingQueue) for
  /// bolt input queues with exactly one producer task, in dedicated mode.
  bool enable_spsc = true;
  /// Fused batch execution: deliver whole input batches to bolts that
  /// declare BatchCapable() through one ExecuteBatch call (one dispatch,
  /// one ack-staging pass, batched sketch kernels) instead of per-tuple
  /// Execute. Traced batches, non-capable bolts, epoch alignment and armed
  /// fault injection always take the per-tuple path. false restores
  /// tuple-at-a-time delivery everywhere: the per-tuple baseline of
  /// bench_t2_platform's E-batched-sketch-path table.
  bool enable_bolt_batch = true;
  /// Telemetry sampler period: every N ms a background thread snapshots
  /// all per-task counters and instantaneous queue depths into the time
  /// series exposed by TopologyEngine::telemetry(). 0 disables the sampler
  /// (no thread, and max_queue_depth stays 0 — the sampler owns gauges).
  uint32_t telemetry_sample_interval_ms = 10;
  /// Tuple tracing: every Kth spout root carries a trace id, and each hop
  /// records (task, queue wait, execute time) into per-task ring buffers
  /// that merge into span trees after Run(). 0 disables tracing; untraced
  /// tuples pay exactly one branch per hop.
  uint32_t trace_sample_every = 0;
  /// Deterministic fault injection (chaos testing): per-injection-point
  /// probabilities, all 0 by default — fully disabled, and the engine
  /// builds no sites or hooks. See fault.h for the determinism model.
  FaultSpec faults;
  /// Flight recorder (recorder.h): when set, every spout emission is
  /// captured before routing, every spout epoch cut where it happens, and
  /// Run() attaches the final counters as the recording's summary. Not
  /// owned; the caller Finalize()s after Run(). Null (the default) records
  /// nothing and costs one branch per emission.
  RunRecorder* recorder = nullptr;
  /// Epoch-aligned barrier checkpointing (DESIGN.md §12). Spouts inject an
  /// epoch barrier every `epoch_interval_tuples` emissions; bolts align on
  /// barriers across their input edges, snapshot their state into per-epoch
  /// frames in `checkpoint_store`, and a coordinator marks an epoch
  /// complete once every task acked it. 0 disables barriers entirely.
  /// Required (with a non-null store) for kExactlyOnce.
  uint64_t epoch_interval_tuples = 0;
  /// Per-epoch frame storage. Not owned; must outlive Run(). Required when
  /// epoch_interval_tuples > 0 or resume_from_epoch > 0.
  KvCheckpointStore* checkpoint_store = nullptr;
  /// A bolt whose alignment on the next barrier stalls longer than this
  /// (dropped/delayed barrier, stalled producer) force-advances: it skips
  /// the stuck epochs — they simply never complete — and realigns at the
  /// highest barrier it has seen, so checkpointing retries instead of
  /// wedging the data plane.
  double epoch_align_timeout_seconds = 0.5;
  /// Resume: restore every task from its frame at this (complete) epoch
  /// before pumping data, and number new epochs from here. 0 = fresh run.
  uint64_t resume_from_epoch = 0;
  /// Fused-operator compilation (DESIGN.md §13): lower the topology to a
  /// dataflow IR, run every eligible edge's consumer inline on its
  /// producer's thread (no queue, no per-hop acker traffic), and fall back
  /// to queued edges wherever the legality rules demand it. On by default:
  /// a queue hop costs a tuple its wait behind the consumer's backlog, and
  /// on the Figure-1 job (e2ebench) fusing its one legal edge, spout ->
  /// parse, cuts freshness p50 about threefold. Set false for the queued
  /// baseline (H-fusion), for tests of queue behaviour (spsc_edges(),
  /// queue depths, backpressure), and for a linear chain of CPU-heavy
  /// stages that needs a thread per stage: fusing gives up that pipeline
  /// parallelism.
  bool enable_fusion = true;
  /// Time source for latency stamps, ack/alignment timeouts, and trace
  /// timestamps. Null (the default) uses the process steady clock; tests
  /// inject a ManualClock to drive timeout paths deterministically.
  /// Not owned; must outlive Run().
  Clock* clock = nullptr;

  /// Checks knob ranges (0 means "disabled" for the telemetry knobs, not
  /// an error). Run() aborts on an invalid config; callers building
  /// configs from user input should validate first.
  Status Validate() const;
};

/// Executes a topology to completion: runs all spouts until exhausted,
/// drains in-flight tuples, then runs the Finish() pass. Single-use.
class TopologyEngine {
 public:
  TopologyEngine(Topology topology, EngineConfig config);
  ~TopologyEngine();

  TopologyEngine(const TopologyEngine&) = delete;
  TopologyEngine& operator=(const TopologyEngine&) = delete;

  /// Blocking run to completion.
  void Run();

  MetricsRegistry& metrics() { return metrics_; }

  /// Observability facade: live time series during Run() (sampler
  /// snapshots are thread-safe), full report including trace span trees
  /// once Run() returns. See telemetry.h.
  Telemetry& telemetry() { return telemetry_; }

  /// Completed (fully acked) tuple trees — at-least-once mode only.
  uint64_t completed_roots() const {
    return completed_roots_.load(std::memory_order_relaxed);
  }
  /// Failed tuple trees — at-least-once mode only.
  uint64_t failed_roots() const {
    return failed_roots_.load(std::memory_order_relaxed);
  }

  /// Number of bolt input queues backed by the SPSC ring (after Run()).
  size_t spsc_edges() const { return spsc_edges_; }

  /// The dataflow IR the engine compiled this topology into, with fusion
  /// decisions and per-edge vetoes. Built during Run()'s BuildTasks (null
  /// before Run()); always present afterwards, even with fusion disabled.
  const TopologyPlan* plan() const { return graph_.plan(); }

  /// Edges realized as in-thread fused hops instead of queues (after
  /// Run()). 0 whenever enable_fusion is false or nothing was eligible.
  size_t fused_edges() const { return plan()->fused_edge_count(); }

  /// This run's fault sites and their counts; null when config.faults is
  /// disabled. Built at Run() start; read its counts after Run() returns.
  const FaultPlan* fault_plan() const { return graph_.fault_plan(); }

  /// Epoch checkpointing results (barriers enabled; after Run()).
  /// Highest epoch every task acked — the epoch a resumed run restores.
  uint64_t last_complete_epoch() const;
  /// Epochs that reached completion during this run.
  uint64_t epochs_completed() const;
  /// Alignment timeouts: times a bolt force-advanced past a stuck barrier.
  uint64_t epoch_timeouts() const {
    return epoch_timeouts_.load(std::memory_order_relaxed);
  }

 private:
  friend class TaskCollector;
  // The debugger drives the stepped scheduler below.
  friend class ReplayEngine;
  struct AckerEvent;

  // Run()'s two phases around its threads. Start validates the config,
  // builds the tasks and their channels (`stepped`: the stepped
  // scheduler's unbounded queues), the epoch coordinator and the acker
  // queue (failing on an invalid config or a resume epoch that never
  // completed); Finish runs the finish pass and the telemetry and
  // recording epilogue.
  Status Start(bool stepped);
  void Finish();

  // The stepped scheduler: the same build and finish phases around one
  // thread instead of many, over a config whose clock is a ManualClock,
  // and every queued bolt gets an unbounded BlockingQueue (no SPSC rings,
  // no bound). Each unit is one
  // spout record (an emission, or a barrier: the spout's epoch cut) fed
  // through the spout task's own collector, or one queued message run
  // through ExecuteBatch — the lowest-indexed task's oldest. After every
  // unit the staged acker events settle in the root ledger, and once
  // nothing is queued every root still open fails.
  Status StartStepped();
  void StepRecord(size_t spout_task, const Tuple& tuple);
  /// The task whose queued message runs next; null when nothing is queued.
  Task* NextQueued() const;
  void StepQueued(Task* task);
  size_t QueuedMessages() const;
  void SettleStep();

  void BuildTasks(bool stepped);
  void StartSampler();
  void DrainTraces();
  void PrepareOnThread(Task* task);
  void SpoutLoop(Task* task);
  void DedicatedBoltLoop(Task* task);
  void MultiplexedWorkerLoop(const std::vector<Task*>& tasks);
  void AckerLoop();
  // The root ledger's operations (true when some root resolved).
  bool ApplyAckerEvents(std::span<const AckerEvent> events);
  bool FailRoots(uint64_t created_before);
  void ResolveRoot(uint64_t root, size_t spout_task, bool success);
  void RestartBolt(Task* task);

  /// Injected time source (config.clock or the steady default).
  uint64_t NowNanos() const;

  // Queued execution: one batch loop (barriers and alignment holds
  // included) feeding every message through the stage runner, plus the
  // batch-capable bolts' single-dispatch path, taken only while fault
  // injection is off.
  void ExecuteBatch(Task* task, std::span<Message> batch);
  void ExecuteBatchFused(Task* task, std::span<Message> batch);
  void FinishPending(size_t n);

  // The stage runner every bolt delivery executes through, with all its
  // fault draws; a crash restarts the bolt before the next delivery.
  void RunStage(Task* task, const Message& m, uint64_t* fused_ack);

  // Epoch-barrier plumbing (all no-ops unless epoch_interval_tuples > 0).
  void HandleBarrier(Task* task, uint32_t producer, uint64_t epoch);
  void ReleaseHeld(Task* task, uint64_t max_tag);
  void FlushHeld(Task* task);
  void MaybeEpochTimeout(Task* task);
  void CutEpoch(Task* task, uint64_t epoch);
  void RestoreEpochFrame(Task* task);

  Topology topology_;
  EngineConfig config_;
  MetricsRegistry metrics_;
  Telemetry telemetry_;
  std::unique_ptr<MetricsSampler> sampler_;
  std::unique_ptr<CheckpointCoordinator> coordinator_;
  std::atomic<uint64_t> epoch_timeouts_{0};

  Clock* clock_;  // Never null after construction; not owned.
  // Tasks, edges, the fusion plan, fault sites, routing, edge ids, the
  // fault draws and the finish pass.
  StageGraph graph_;
  std::vector<std::unique_ptr<TaskCollector>> collectors_;
  size_t spsc_edges_ = 0;

  std::atomic<uint64_t> pending_messages_{0};
  std::atomic<uint64_t> next_root_id_{1};
  std::atomic<uint64_t> inflight_roots_{0};
  std::atomic<uint64_t> completed_roots_{0};
  std::atomic<uint64_t> failed_roots_{0};
  std::atomic<bool> spouts_done_{false};

  /// Signalled on progress the blocked sides wait for: roots resolving
  /// (spout throttle) and the pipeline draining (Run's drain wait). All
  /// waits are timed, so a missed notify costs bounded latency, never a
  /// hang.
  std::mutex progress_mu_;
  std::condition_variable progress_cv_;

  std::unique_ptr<BlockingQueue<AckerEvent>> acker_queue_;
  std::thread acker_thread_;
  // The XOR root ledger: per tracked root, the running XOR of the edge ids
  // its tree created and acked; a root whose value returns to zero
  // completed. The acker thread owns it, or the one stepped thread.
  struct RootEntry {
    uint64_t value = 0;
    size_t spout_task = 0;
    bool initialized = false;
    uint64_t created_nanos = 0;
  };
  std::unordered_map<uint64_t, RootEntry> roots_;
  std::vector<std::thread> threads_;
  bool ran_ = false;
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_ENGINE_H_
