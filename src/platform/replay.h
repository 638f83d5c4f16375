#ifndef STREAMLIB_PLATFORM_REPLAY_H_
#define STREAMLIB_PLATFORM_REPLAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "platform/checkpoint.h"
#include "platform/clock.h"
#include "platform/engine.h"
#include "platform/metrics.h"
#include "platform/recorder.h"
#include "platform/topology.h"

namespace streamlib::platform {

/// \file replay.h
/// Time-travel re-execution of a flight recording (recorder.h). The
/// replayer is TopologyEngine stepped on one thread over a ManualClock:
/// the engine's own build and finish phases, collectors, queues, barrier
/// handling, stage runner and XOR root ledger, driven one unit at a time.
/// Each recorded spout record enters through its spout task's collector
/// (an inert RecordedSpout stands in for the user spout), and every
/// nondeterministic decision — shuffle routing, fault draws, edge ids — is
/// regenerated from the recorded seeds by the same code that drew it live.
/// The stepped engine gives every queued bolt an unbounded queue (no SPSC
/// rings, no bound), and the replay's copy of the recorded config
/// switches off the sampler and tracing: only wall-clock transport
/// changes, and none of it feeds a draw. Fused hops run inline inside
/// their producer's step, as they run live. Between any two units the
/// debugger can pause, inspect bolt state (Bolt::StateBlob) and live
/// TaskMetrics, and resume.
///
/// Determinism contract (DESIGN.md §11): replay-vs-replay of one
/// recording is always bit-identical. Replay-vs-original is bit-identical
/// when every bolt fed during the run phase has exactly one producer
/// *task* (chains, fused chains at any parallelism — a fused consumer's
/// one producer is its task i — and fields/shuffle/broadcast fan-outs
/// from a single source task; combiners fed only by the single-threaded
/// finish pass don't count). That pins each task's input order to one
/// producer's program order, and every fault decision, the crash budget
/// included, is a function of its site's input order; the live ack
/// timeout must also be long enough that only structurally unresolvable
/// trees fail. Batch sizes and the batch path are free: a fault takes
/// only its own message however the live consumer batched its input, and
/// the batch-capable path runs only with fault injection off, where it
/// reaches the state per-message delivery reaches.
///
/// Epoch checkpointing (DESIGN.md §12) composes: a recording carries each
/// spout task's epoch cuts as barrier records, and the replay cuts there,
/// aligns and snapshots through the engine's own barrier path, writing its
/// frames into ReplayOptions::checkpoint_store. Under the contract every
/// aligner has one producer, so nothing is ever held and no alignment
/// times out: the bolt frames and the set of complete epochs reproduce.
/// A resumed recording restores from the resume epoch's frames, which the
/// caller supplies in that store.

/// A pause condition for replayed execution.
struct Breakpoint {
  enum class Kind {
    /// Pause before task `task` (global index) executes its `count`th
    /// queued input tuple (1-based; an epoch barrier counts). Only a task
    /// with an input queue can be the target: a spout has none, and a
    /// fused consumer's inputs run inside its producer's step, never from
    /// a queue. AddBreakpoint rejects either, naming a fused consumer's
    /// producer; with fusion on by default, break on the first queued
    /// task downstream instead.
    kTaskTuple,
    /// Pause as soon as the replayed FaultPlan has injected any fault.
    kFirstFault,
    /// Pause once the replay's checkpoint store (ReplayOptions) has
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
  /// Where the replay's epoch frames go and what Breakpoint::kCheckpoint
  /// watches (not owned). Null: a store the replay owns. A resumed
  /// recording needs the caller's copy of the resume epoch's frames here.
  KvCheckpointStore* checkpoint_store = nullptr;
};

/// Deterministic single-threaded re-execution of one RecordedRun.
///
/// Unit of progress: one spout record fed (an emission, or a barrier
/// record: the spout's epoch cut), or one queued message executed — the
/// lowest-indexed task's oldest — including the fused hops it runs inline.
/// Each record's full tree drains before the next record enters, and
/// under at-least-once its root settles in the engine's XOR ledger as the
/// acks land; a root still open when its tree drains fails, replacing the
/// live engine's wall-clock ack timeout. Spout user code is never invoked
/// (records come from the file); acked/failed land on the spout task's
/// metrics as they do live. Emission counts and indices (RunToEmission,
/// emissions_processed, FindFirstDivergence) count emissions only, never
/// barrier records.
class ReplayEngine {
 public:
  ReplayEngine(Topology topology, RecordedRun run, ReplayOptions options = {});
  ~ReplayEngine();

  ReplayEngine(const ReplayEngine&) = delete;
  ReplayEngine& operator=(const ReplayEngine&) = delete;

  /// Validates the topology against the recording's fingerprint, builds
  /// the tasks and prepares them (restoring a resumed recording's frames).
  /// Must be called (and return OK) before anything else.
  Status Prepare();

  /// FailedPrecondition before Prepare(); InvalidArgument for a kTaskTuple
  /// target that is out of range or has no input queue (see Breakpoint).
  Status AddBreakpoint(const Breakpoint& breakpoint);

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

  bool Done() const { return finish_done_; }
  uint64_t emissions_processed() const { return emissions_processed_; }
  uint64_t total_emissions() const { return run_.EmissionCount(); }
  /// Messages queued inside the in-flight tree (0 when paused between
  /// trees).
  size_t pending_deliveries() const;
  /// Queued input tuples a task has executed so far, barriers included
  /// (kTaskTuple's counter). A fused consumer has no queue: its inputs run
  /// inside its producer's step, so its count stays 0.
  uint64_t inputs_seen(size_t global_index) const;

  /// State snapshot of one bolt: Unimplemented if the bolt exposes no
  /// StateBlob, NotFound for an unknown component/task, InvalidArgument
  /// for a spout.
  Result<std::vector<uint8_t>> BoltStateBlob(const std::string& component,
                                             uint32_t task_index) const;
  /// Same by global task index; nullopt for spouts and blob-less bolts.
  std::optional<std::vector<uint8_t>> TaskStateBlob(size_t global_index) const;

  size_t task_count() const { return engine_.metrics_.task_count(); }
  const TaskMetrics& task_metrics(size_t global_index) const;
  MetricsRegistry& metrics() { return engine_.metrics(); }
  /// Null when the recording ran without fault injection.
  const FaultPlan* fault_plan() const { return engine_.fault_plan(); }
  /// Edges the live plan fused (after Prepare): the recorded run's count.
  size_t fused_edges() const { return engine_.fused_edges(); }
  uint64_t completed_roots() const { return engine_.completed_roots(); }
  uint64_t failed_roots() const { return engine_.failed_roots(); }
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
  void StepInternal(bool allow_finish);
  bool PreStepBreakpoint() const;
  bool PostStepBreakpoint();

  RecordedRun run_;
  // The store the replay writes frames into when the caller passes none.
  KvCheckpointStore owned_store_;
  KvCheckpointStore* const store_;
  ManualClock clock_;
  TopologyEngine engine_;
  bool prepared_ = false;

  std::vector<uint64_t> inputs_seen_;  // Per task (kTaskTuple's counter).
  size_t next_record_ = 0;
  uint64_t emissions_processed_ = 0;
  bool finish_done_ = false;

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
