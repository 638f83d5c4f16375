#include "platform/replay.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace streamlib::platform {

namespace {

/// Stands in for user spout code: a replay feeds the recorded records
/// through the task's collector instead, and acks, failures, snapshots and
/// restores have nothing to act on.
class RecordedSpout : public Spout {
 public:
  bool NextTuple(OutputCollector*) override { return false; }
  Status RestoreEpoch(uint64_t, const std::vector<uint8_t>&) override {
    return Status::OK();
  }
};

Topology WithRecordedSpouts(Topology topology) {
  topology.ReplaceSpouts([] { return std::make_unique<RecordedSpout>(); });
  return topology;
}

/// The recorded config minus the sampler and tracing, which feed no draw,
/// route or edge id. Its queue knobs stay as recorded and are validated:
/// the stepped engine builds its own unbounded queues.
EngineConfig SteppedConfig(EngineConfig config, KvCheckpointStore* store,
                           Clock* clock) {
  config.telemetry_sample_interval_ms = 0;
  config.trace_sample_every = 0;
  config.checkpoint_store = store;
  config.clock = clock;
  return config;
}

}  // namespace

ReplayEngine::ReplayEngine(Topology topology, RecordedRun run,
                           ReplayOptions options)
    : run_(std::move(run)),
      store_(options.checkpoint_store != nullptr ? options.checkpoint_store
                                                 : &owned_store_),
      engine_(WithRecordedSpouts(std::move(topology)),
              SteppedConfig(run_.config, store_, &clock_)) {}

ReplayEngine::~ReplayEngine() = default;

Status ReplayEngine::Prepare() {
  if (prepared_ || engine_.ran_) {
    return Status::FailedPrecondition("ReplayEngine::Prepare called twice");
  }
  STREAMLIB_RETURN_NOT_OK(MatchesTopology(run_.fingerprint, engine_.topology_));
  STREAMLIB_RETURN_NOT_OK(engine_.StartStepped());
  inputs_seen_.assign(task_count(), 0);
  prepared_ = true;
  return Status::OK();
}

Status ReplayEngine::AddBreakpoint(const Breakpoint& breakpoint) {
  if (!prepared_) {
    return Status::FailedPrecondition("ReplayEngine::Prepare must run first");
  }
  if (breakpoint.kind == Breakpoint::Kind::kTaskTuple) {
    const auto& tasks = engine_.graph_.tasks();
    if (breakpoint.task >= tasks.size()) {
      return Status::InvalidArgument(
          "no task " + std::to_string(breakpoint.task) + " (the topology has " +
          std::to_string(tasks.size()) + ")");
    }
    const Task& task = *tasks[breakpoint.task];
    if (!task.HasInput()) {
      const auto name = [this](const Task& t) {
        const TaskMetrics& m = task_metrics(t.global_index);
        return "task " + std::to_string(t.global_index) + " (" +
               m.component() + "[" + std::to_string(m.task_index()) + "])";
      };
      std::string why = "a spout";
      for (const auto& producer : tasks) {
        if (producer->fused_next == &task) {
          why = "its inputs run fused inside " + name(*producer);
        }
      }
      return Status::InvalidArgument(name(task) + " has no input queue (" +
                                     why + "): a breakpoint there never fires");
    }
  }
  breakpoints_.push_back(breakpoint);
  return Status::OK();
}

void ReplayEngine::StepInternal(bool allow_finish) {
  if (Task* next = engine_.NextQueued()) {
    inputs_seen_[next->global_index]++;
    engine_.StepQueued(next);
  } else if (next_record_ < run_.emissions.size()) {
    const RecordedEmission& record = run_.emissions[next_record_++];
    if (!record.tuple.IsBarrier()) emissions_processed_++;
    engine_.StepRecord(record.spout_task, record.tuple);
  } else if (allow_finish && !finish_done_) {
    engine_.Finish();
    finish_done_ = true;
  }
}

bool ReplayEngine::PreStepBreakpoint() const {
  const Task* next = engine_.NextQueued();
  if (next == nullptr) return false;
  for (const Breakpoint& bp : breakpoints_) {
    if (bp.kind != Breakpoint::Kind::kTaskTuple) continue;
    if (bp.task != next->global_index) continue;
    const uint64_t ordinal = std::max<uint64_t>(1, bp.count);
    if (inputs_seen_[next->global_index] + 1 == ordinal) return true;
  }
  return false;
}

bool ReplayEngine::PostStepBreakpoint() {
  for (const Breakpoint& bp : breakpoints_) {
    switch (bp.kind) {
      case Breakpoint::Kind::kFirstFault:
        if (!first_fault_fired_ && fault_plan() != nullptr &&
            fault_plan()->total_injected() > 0) {
          first_fault_fired_ = true;
          return true;
        }
        break;
      case Breakpoint::Kind::kCheckpoint:
        if (!checkpoint_fired_ && store_->TotalPuts() >= bp.count) {
          checkpoint_fired_ = true;
          return true;
        }
        break;
      case Breakpoint::Kind::kTaskTuple:
        break;  // Pre-step condition.
    }
  }
  return false;
}

ReplayStop ReplayEngine::Step() {
  STREAMLIB_CHECK_MSG(prepared_, "ReplayEngine::Prepare must succeed first");
  if (Done()) return ReplayStop::kEnd;
  StepInternal(/*allow_finish=*/true);
  // A manual step moves past a pending kTaskTuple breakpoint, gdb-style.
  skip_pre_check_once_ = false;
  return Done() ? ReplayStop::kEnd : ReplayStop::kStep;
}

ReplayStop ReplayEngine::Run() {
  STREAMLIB_CHECK_MSG(prepared_, "ReplayEngine::Prepare must succeed first");
  while (!Done()) {
    if (!skip_pre_check_once_ && PreStepBreakpoint()) {
      skip_pre_check_once_ = true;  // Resume executes the paused tuple.
      return ReplayStop::kBreakpoint;
    }
    skip_pre_check_once_ = false;
    StepInternal(/*allow_finish=*/true);
    if (PostStepBreakpoint()) return ReplayStop::kBreakpoint;
  }
  return ReplayStop::kEnd;
}

Status ReplayEngine::RunToEmission(uint64_t emission_count) {
  if (!prepared_) {
    return Status::FailedPrecondition("ReplayEngine::Prepare must run first");
  }
  const uint64_t target =
      std::min<uint64_t>(emission_count, total_emissions());
  if (emissions_processed_ > target) {
    return Status::FailedPrecondition(
        "replay already past emission " + std::to_string(target));
  }
  while (emissions_processed_ < target || engine_.QueuedMessages() > 0) {
    StepInternal(/*allow_finish=*/false);
  }
  return Status::OK();
}

size_t ReplayEngine::pending_deliveries() const {
  return engine_.QueuedMessages();
}

uint64_t ReplayEngine::inputs_seen(size_t global_index) const {
  STREAMLIB_CHECK(global_index < inputs_seen_.size());
  return inputs_seen_[global_index];
}

const TaskMetrics& ReplayEngine::task_metrics(size_t global_index) const {
  STREAMLIB_CHECK(global_index < task_count());
  return engine_.metrics_.task(global_index);
}

std::optional<std::vector<uint8_t>> ReplayEngine::TaskStateBlob(
    size_t global_index) const {
  STREAMLIB_CHECK(global_index < task_count());
  const Bolt* bolt = engine_.graph_.tasks()[global_index]->bolt.get();
  if (bolt == nullptr) return std::nullopt;
  return bolt->StateBlob();
}

Result<std::vector<uint8_t>> ReplayEngine::BoltStateBlob(
    const std::string& component, uint32_t task_index) const {
  for (size_t i = 0; i < task_count(); i++) {
    const TaskMetrics& metrics = engine_.metrics_.task(i);
    if (metrics.component() != component ||
        metrics.task_index() != task_index) {
      continue;
    }
    if (engine_.graph_.tasks()[i]->bolt == nullptr) {
      return Status::InvalidArgument("component '" + component +
                                     "' is a spout (no bolt state)");
    }
    std::optional<std::vector<uint8_t>> blob = TaskStateBlob(i);
    if (!blob.has_value()) {
      return Status::Unimplemented("bolt '" + component +
                                   "' exposes no StateBlob");
    }
    return *std::move(blob);
  }
  return Status::NotFound("no task '" + component + "[" +
                          std::to_string(task_index) + "]' in topology");
}

RunSummary ReplayEngine::Summary() const {
  return SummarizeRun(completed_roots(), failed_roots(), fault_plan(),
                      engine_.metrics_);
}

Status ReplayEngine::CompareWithRecorded() const {
  if (!run_.has_summary) {
    return Status::FailedPrecondition(
        "recording carries no run summary to compare against");
  }
  const RunSummary& want = run_.summary;
  const RunSummary got = Summary();
  auto mismatch = [](const std::string& what, uint64_t got_v,
                     uint64_t want_v) {
    return Status::Internal("replay diverged from recording: " + what +
                            " = " + std::to_string(got_v) + ", recorded " +
                            std::to_string(want_v));
  };
  if (got.completed_roots != want.completed_roots) {
    return mismatch("completed_roots", got.completed_roots,
                    want.completed_roots);
  }
  if (got.failed_roots != want.failed_roots) {
    return mismatch("failed_roots", got.failed_roots, want.failed_roots);
  }
  for (size_t k = 0; k < kNumFaultKinds; k++) {
    if (got.faults_by_kind[k] != want.faults_by_kind[k]) {
      return mismatch(std::string("faults[") +
                          FaultKindName(static_cast<FaultKind>(k)) + "]",
                      got.faults_by_kind[k], want.faults_by_kind[k]);
    }
  }
  if (got.tasks.size() != want.tasks.size()) {
    return mismatch("task count", got.tasks.size(), want.tasks.size());
  }
  for (size_t i = 0; i < got.tasks.size(); i++) {
    const TaskMetrics& metrics = engine_.metrics_.task(i);
    const std::string prefix = metrics.component() + "[" +
                               std::to_string(metrics.task_index()) + "].";
    if (got.tasks[i].emitted != want.tasks[i].emitted) {
      return mismatch(prefix + "emitted", got.tasks[i].emitted,
                      want.tasks[i].emitted);
    }
    if (got.tasks[i].executed != want.tasks[i].executed) {
      return mismatch(prefix + "executed", got.tasks[i].executed,
                      want.tasks[i].executed);
    }
    if (got.tasks[i].acked != want.tasks[i].acked) {
      return mismatch(prefix + "acked", got.tasks[i].acked,
                      want.tasks[i].acked);
    }
    if (got.tasks[i].failed != want.tasks[i].failed) {
      return mismatch(prefix + "failed", got.tasks[i].failed,
                      want.tasks[i].failed);
    }
    if (got.tasks[i].bolt_exceptions != want.tasks[i].bolt_exceptions) {
      return mismatch(prefix + "bolt_exceptions",
                      got.tasks[i].bolt_exceptions,
                      want.tasks[i].bolt_exceptions);
    }
  }
  return Status::OK();
}

// ----------------------------------------------------- FindFirstDivergence

namespace {

using TaskStates = std::vector<std::optional<std::vector<uint8_t>>>;

Result<TaskStates> StatesAfter(const ReplayTarget& target, uint64_t count) {
  ReplayEngine engine(target.topology(), *target.run);
  STREAMLIB_RETURN_NOT_OK(engine.Prepare());
  STREAMLIB_RETURN_NOT_OK(engine.RunToEmission(count));
  TaskStates states;
  states.reserve(engine.task_count());
  for (size_t i = 0; i < engine.task_count(); i++) {
    states.push_back(engine.TaskStateBlob(i));
  }
  return states;
}

}  // namespace

Result<std::optional<uint64_t>> FindFirstDivergence(const ReplayTarget& a,
                                                    const ReplayTarget& b) {
  if (a.run == nullptr || b.run == nullptr || !a.topology || !b.topology) {
    return Status::InvalidArgument(
        "FindFirstDivergence: both targets need a topology and a run");
  }
  const uint64_t n =
      std::min<uint64_t>(a.run->EmissionCount(), b.run->EmissionCount());
  auto equal_at = [&](uint64_t m) -> Result<bool> {
    Result<TaskStates> sa = StatesAfter(a, m);
    STREAMLIB_RETURN_NOT_OK(sa.status());
    Result<TaskStates> sb = StatesAfter(b, m);
    STREAMLIB_RETURN_NOT_OK(sb.status());
    return sa.value() == sb.value();
  };

  Result<bool> at_end = equal_at(n);
  STREAMLIB_RETURN_NOT_OK(at_end.status());
  if (at_end.value()) {
    if (a.run->EmissionCount() != b.run->EmissionCount()) {
      // Identical over the common prefix; the first extra emission of the
      // longer recording is where they part ways.
      return std::optional<uint64_t>(n);
    }
    return std::optional<uint64_t>(std::nullopt);
  }
  Result<bool> at_start = equal_at(0);
  STREAMLIB_RETURN_NOT_OK(at_start.status());
  if (!at_start.value()) {
    // Initial states already differ (different restore checkpoints or bolt
    // construction) — before any recorded tuple.
    return std::optional<uint64_t>(0);
  }
  uint64_t lo = 0;  // States equal after lo emissions.
  uint64_t hi = n;  // States differ after hi emissions.
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    Result<bool> eq = equal_at(mid);
    STREAMLIB_RETURN_NOT_OK(eq.status());
    if (eq.value()) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // Replaying emission hi-1 (0-based) is the first to diverge the state.
  return std::optional<uint64_t>(hi - 1);
}

}  // namespace streamlib::platform
