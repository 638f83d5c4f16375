#ifndef STREAMLIB_PLATFORM_REPLAY_H_
#define STREAMLIB_PLATFORM_REPLAY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "platform/checkpoint.h"
#include "platform/metrics.h"
#include "platform/recorder.h"
#include "platform/stage.h"
#include "platform/topology.h"

namespace streamlib::platform {

/// \file replay.h
/// Time-travel re-execution of a flight recording (recorder.h): the
/// recorded spout emissions are fed through the topology one at a time on
/// a single thread, with every nondeterministic decision — shuffle
/// routing, fault draws — regenerated from the recorded seeds. The
/// replayer adds only its own control loop (FIFO drain, synchronous ledger,
/// breakpoints, stepping): task and fault-site construction, routing,
/// transport draws, edge ids, the stage runner and the finish pass are the
/// live engine's own code (StageGraph, stage.h), so every site is consulted
/// in the live per-site order, and every task allocates the live edge ids,
/// by construction. SLFR carries enable_fusion, so the replayer builds the
/// live fusion plan: a fused edge is an ordinary delivery from task i to
/// task i that the replayer queues in its FIFO instead of running inline,
/// drawing what the live fused hop drew. Between any two tuples the
/// debugger can pause, inspect bolt state (Bolt::StateBlob) and live
/// TaskMetrics, and resume.
///
/// Determinism contract (DESIGN.md §11): replay-vs-replay of one
/// recording is always bit-identical. Replay-vs-original is bit-identical
/// when (1) every bolt fed during the run phase has exactly one producer
/// *task* (chains, fused chains at any parallelism — a fused consumer's
/// one producer is its task i — and fields/shuffle fan-outs from a single
/// source task; combiners fed only by the single-threaded finish pass
/// don't count),
/// (2) executor-site faults (bolt_throw / task_crash / acker_loss) are
/// only armed with execute_batch_size == 1, (3) at-least-once broadcast
/// edges out of spouts are avoided, and (4) with task_crash armed, the
/// crash budget (max_task_crashes) never runs out — an exhausted budget
/// is claimed by concurrently-firing sites in wall-clock order, which no
/// sequential re-execution can reproduce, and the denial leaks into the
/// losing site's later draw stream (a crash skips the acker-loss draw).
/// Condition (1) pins each task's input order to one producer's program
/// order; (2) pins the per-tuple blast radius (a crash kills the rest of a
/// popped batch; a batch-capable bolt's throw fails its whole batch); the
/// live ack timeout must also be long enough that only structurally
/// unresolvable trees fail.
///
/// Epoch checkpointing (DESIGN.md §12) is outside this contract entirely:
/// recording requires epoch_interval_tuples == 0 and resume_from_epoch ==
/// 0 (EngineConfig::Validate rejects the combination). A resumed run's
/// first emission depends on restored spout state, and barrier alignment
/// (hold timers, force-advance) depends on wall-clock timing the SLFR
/// format does not capture — replay a *fresh* run, or use the epoch
/// determinism guarantees of exactly_once_test.cc instead.

/// A pause condition for replayed execution.
struct Breakpoint {
  enum class Kind {
    /// Pause before task `task` (global index) executes its `count`th
    /// input tuple (1-based).
    kTaskTuple,
    /// Pause as soon as the replayed FaultPlan has injected any fault.
    kFirstFault,
    /// Pause once the watched checkpoint store (ReplayOptions) has
    /// absorbed at least `count` Put calls.
    kCheckpoint,
  };
  Kind kind = Kind::kTaskTuple;
  size_t task = 0;     ///< kTaskTuple: global task index
  uint64_t count = 0;  ///< kTaskTuple: 1-based tuple ordinal; kCheckpoint: K
};

/// Why Run() / Step() returned control.
enum class ReplayStop {
  kBreakpoint,  ///< a breakpoint fired; inspect, then Run()/Step() again
  kStep,        ///< Step(): one unit executed, more remain
  kEnd,         ///< recording fully replayed, finish pass complete
};

struct ReplayOptions {
  /// Store watched by Breakpoint::kCheckpoint (not owned; may be null).
  const KvCheckpointStore* checkpoint_store = nullptr;
};

/// Deterministic single-threaded re-execution of one RecordedRun.
///
/// Unit of progress: one spout emission injected, or one delivered tuple
/// executed at a bolt. Each emission's full tuple tree drains (FIFO,
/// preserving per-producer order) before the next emission, and under
/// at-least-once its XOR ledger resolves synchronously — acked iff the
/// ledger clears, replacing the live engine's wall-clock ack timeout.
/// Spout user code is never invoked (emissions come from the file);
/// acked/failed land on the spout task's metrics directly.
class ReplayEngine {
 public:
  ReplayEngine(Topology topology, RecordedRun run, ReplayOptions options = {});
  ~ReplayEngine();

  ReplayEngine(const ReplayEngine&) = delete;
  ReplayEngine& operator=(const ReplayEngine&) = delete;

  /// Validates the topology against the recording's fingerprint and
  /// builds tasks. Must be called (and return OK) before anything else.
  Status Prepare();

  void AddBreakpoint(const Breakpoint& breakpoint);

  /// Executes one unit. Returns kEnd when the replay just completed (or
  /// had already completed), kStep otherwise.
  ReplayStop Step();

  /// Runs until a breakpoint fires or the recording (including the finish
  /// pass) completes.
  ReplayStop Run();

  /// Replays until exactly `emission_count` recorded emissions have been
  /// injected and their trees fully drained, ignoring breakpoints and
  /// never entering the finish pass. Counts past the recording clamp to
  /// its length. The divergence bisector's probe primitive.
  Status RunToEmission(uint64_t emission_count);

  bool Done() const;
  uint64_t emissions_processed() const { return next_emission_; }
  uint64_t total_emissions() const { return run_.emissions.size(); }
  /// Tuples currently queued inside the in-flight tree (0 when paused
  /// between trees).
  size_t pending_deliveries() const;
  /// Input tuples delivered to a task so far (kTaskTuple's counter).
  uint64_t inputs_seen(size_t global_index) const;

  /// State snapshot of one bolt: Unimplemented if the bolt exposes no
  /// StateBlob, NotFound for an unknown component/task, InvalidArgument
  /// for a spout.
  Result<std::vector<uint8_t>> BoltStateBlob(const std::string& component,
                                             uint32_t task_index) const;
  /// Same by global task index; nullopt for spouts and blob-less bolts.
  std::optional<std::vector<uint8_t>> TaskStateBlob(size_t global_index) const;

  size_t task_count() const;
  const TaskMetrics& task_metrics(size_t global_index) const;
  MetricsRegistry& metrics() { return metrics_; }
  /// Null when the recording ran without fault injection.
  const FaultPlan* fault_plan() const { return graph_.fault_plan(); }
  /// Edges the live plan fused (after Prepare): the recorded run's count.
  size_t fused_edges() const { return graph_.plan()->fused_edge_count(); }
  uint64_t completed_roots() const { return completed_roots_; }
  uint64_t failed_roots() const { return failed_roots_; }
  const RecordedRun& run() const { return run_; }

  /// Current counters in the RunSummary shape (comparable to the
  /// recording's end-segment summary once the replay is Done()).
  RunSummary Summary() const;

  /// OK iff this replay reproduced the recording's end-segment summary
  /// exactly (roots, per-kind fault counts, per-task counters).
  /// FailedPrecondition when the recording carries no summary; Internal
  /// naming the first mismatched counter otherwise.
  Status CompareWithRecorded() const;

 private:
  struct Delivery;
  class ReplayCollector;

  void EmitNext();
  void ExecuteNext();
  void MaybeResolveRoot();
  void StepInternal(bool allow_finish);
  bool PreStepBreakpoint() const;
  bool PostStepBreakpoint();
  void InitRoot(uint64_t root, uint64_t edge_xor, size_t spout_task);
  void ApplyAck(uint64_t root, uint64_t xor_value);

  Topology topology_;
  RecordedRun run_;
  ReplayOptions options_;
  bool prepared_ = false;

  MetricsRegistry metrics_;
  // Task and fault-site construction, routing, transport draws, edge ids,
  // the stage runner and the finish pass: the live engine's own code.
  StageGraph graph_;
  std::vector<std::unique_ptr<StageTask>> tasks_;
  std::vector<std::unique_ptr<ReplayCollector>> collectors_;
  std::vector<uint64_t> inputs_seen_;  // Per task (kTaskTuple's counter).

  std::deque<Delivery> work_;
  uint64_t next_emission_ = 0;
  bool finish_done_ = false;

  uint64_t next_root_id_ = 1;
  // The one in-flight tree's ledger (trees drain before the next starts).
  bool root_active_ = false;
  uint64_t root_id_ = 0;
  uint64_t root_value_ = 0;
  size_t root_spout_task_ = 0;
  uint64_t completed_roots_ = 0;
  uint64_t failed_roots_ = 0;

  std::vector<Breakpoint> breakpoints_;
  bool skip_pre_check_once_ = false;
  bool first_fault_fired_ = false;
  bool checkpoint_fired_ = false;
};

/// One side of a divergence search. `topology` must build a *fresh*
/// topology per call (in particular, bolt factories capturing checkpoint
/// stores must capture stores private to that build — each probe replays
/// from scratch).
struct ReplayTarget {
  std::function<Topology()> topology;
  const RecordedRun* run = nullptr;
};

/// Binary-searches the earliest recorded emission index (0-based) whose
/// replay makes the two runs' bolt state diverge, comparing every bolt's
/// StateBlob bytes after each probe prefix. Returns nullopt when the two
/// recordings replay to identical state over their common length and have
/// equal length; the common length when one recording is a strict prefix
/// of the other. Assumes divergence is persistent (sketch state never
/// re-converges byte-for-byte once it differs) — the property that makes
/// the bisection sound.
Result<std::optional<uint64_t>> FindFirstDivergence(const ReplayTarget& a,
                                                    const ReplayTarget& b);

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_REPLAY_H_
