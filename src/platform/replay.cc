#include "platform/replay.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "platform/clock.h"

namespace streamlib::platform {

/// One tuple in flight to a bolt task.
struct ReplayEngine::Delivery {
  StageTask* target = nullptr;
  Message message;
};

/// The replayer's collector for one task. Routing, transport draws and edge
/// ids come from StageGraph::Send like the live engine's; what differs is
/// where things land: arriving copies join the replayer's FIFO (Send's wire),
/// a fused edge's copy included (Route sends task i to task i), and roots
/// open and acks fold into the synchronous ledger (its AckSink).
class ReplayEngine::ReplayCollector : public StageCollector,
                                      public AckSink {
 public:
  ReplayCollector(ReplayEngine* engine, StageTask* task)
      : engine_(engine), task_(task) {}

  uint64_t LastRootId() const override { return last_spout_root_; }

  void Emit(Tuple tuple) override {
    const bool from_spout = task_->bolt == nullptr;
    Message message;
    message.tuple = std::move(tuple);
    message.root_id = root_;
    if (from_spout && TracksTuples(engine_->run_.config.semantics)) {
      message.root_id = engine_->next_root_id_++;
      last_spout_root_ = message.root_id;
    }
    const uint64_t root = message.root_id;
    const uint64_t edge_xor =
        engine_->graph_.Send(task_, std::move(message), this);
    task_->metrics->IncEmitted();
    if (from_spout && root != 0) {
      engine_->InitRoot(root, edge_xor, task_->global_index);
    } else if (root != 0) {
      xor_out_ ^= edge_xor;
    }
  }

  uint64_t Deliver(StageTask* target, Message&& message) {
    engine_->work_.push_back(Delivery{target, std::move(message)});
    return 0;
  }

  void Ack(uint64_t root, uint64_t value) override {
    engine_->ApplyAck(root, value);
  }

 private:
  ReplayEngine* engine_;
  StageTask* task_;
  uint64_t last_spout_root_ = 0;
};

ReplayEngine::ReplayEngine(Topology topology, RecordedRun run,
                           ReplayOptions options)
    : topology_(std::move(topology)),
      run_(std::move(run)),
      options_(options),
      graph_(run_.config, Clock::Steady(), /*live=*/false) {}

ReplayEngine::~ReplayEngine() = default;

Status ReplayEngine::Prepare() {
  if (prepared_) {
    return Status::FailedPrecondition("ReplayEngine::Prepare called twice");
  }
  STREAMLIB_RETURN_NOT_OK(MatchesTopology(run_.fingerprint, topology_));
  STREAMLIB_RETURN_NOT_OK(run_.config.Validate());

  graph_.Build(topology_, &metrics_, [this] {
    tasks_.push_back(std::make_unique<StageTask>());
    return tasks_.back().get();
  });
  for (auto& task : tasks_) {
    collectors_.push_back(std::make_unique<ReplayCollector>(this, task.get()));
  }
  inputs_seen_.assign(tasks_.size(), 0);
  metrics_.Freeze();

  const auto& components = topology_.components();
  for (auto& task : tasks_) {
    if (task->bolt != nullptr) {
      task->bolt->Prepare(task->task_index,
                          components[task->component_index].parallelism);
    }
  }

  for (const RecordedEmission& emission : run_.emissions) {
    if (emission.spout_task >= tasks_.size() ||
        tasks_[emission.spout_task]->bolt != nullptr) {
      return Status::Corruption(
          "recording: emission references task " +
          std::to_string(emission.spout_task) + " which is not a spout task");
    }
  }

  prepared_ = true;
  return Status::OK();
}

void ReplayEngine::AddBreakpoint(const Breakpoint& breakpoint) {
  breakpoints_.push_back(breakpoint);
}

void ReplayEngine::InitRoot(uint64_t root, uint64_t edge_xor,
                            size_t spout_task) {
  STREAMLIB_CHECK_MSG(!root_active_,
                      "replay: a new root opened before the previous tree "
                      "drained");
  root_active_ = true;
  root_id_ = root;
  root_value_ = edge_xor;
  root_spout_task_ = spout_task;
}

void ReplayEngine::ApplyAck(uint64_t root, uint64_t xor_value) {
  if (root_active_ && root == root_id_) root_value_ ^= xor_value;
}

void ReplayEngine::MaybeResolveRoot() {
  if (!root_active_ || !work_.empty()) return;
  StageTask* spout_task = tasks_[root_spout_task_].get();
  if (root_value_ == 0) {
    completed_roots_++;
    spout_task->metrics->IncAcked();
  } else {
    failed_roots_++;
    spout_task->metrics->IncFailed();
  }
  root_active_ = false;
}

void ReplayEngine::EmitNext() {
  const RecordedEmission& emission = run_.emissions[next_emission_];
  next_emission_++;
  collectors_[emission.spout_task]->Emit(emission.tuple);
}

/// Executes the FIFO's head delivery through the shared stage runner, its
/// ack landing in the synchronous ledger.
void ReplayEngine::ExecuteNext() {
  Delivery delivery = std::move(work_.front());
  work_.pop_front();
  StageTask* task = delivery.target;
  inputs_seen_[task->global_index]++;
  ReplayCollector* collector = collectors_[task->global_index].get();
  const StageOutcome outcome =
      graph_.Run(task, delivery.message, collector, collector);
  if (outcome != StageOutcome::kFailed) task->metrics->IncExecuted();
  if (outcome == StageOutcome::kCrashed) graph_.RestartBolt(task);
}

void ReplayEngine::StepInternal(bool allow_finish) {
  if (!work_.empty()) {
    ExecuteNext();
    MaybeResolveRoot();
  } else if (next_emission_ < run_.emissions.size()) {
    EmitNext();
    MaybeResolveRoot();  // A fully dropped tree resolves immediately.
  } else if (allow_finish && !finish_done_) {
    graph_.RunFinishPass();
    finish_done_ = true;
  }
}

bool ReplayEngine::Done() const {
  return prepared_ && next_emission_ == run_.emissions.size() &&
         work_.empty() && finish_done_;
}

bool ReplayEngine::PreStepBreakpoint() const {
  if (work_.empty()) return false;
  const Delivery& next = work_.front();
  for (const Breakpoint& bp : breakpoints_) {
    if (bp.kind != Breakpoint::Kind::kTaskTuple) continue;
    if (bp.task != next.target->global_index) continue;
    const uint64_t ordinal = std::max<uint64_t>(1, bp.count);
    if (inputs_seen_[next.target->global_index] + 1 == ordinal) return true;
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
        if (!checkpoint_fired_ && options_.checkpoint_store != nullptr &&
            options_.checkpoint_store->TotalPuts() >= bp.count) {
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
      std::min<uint64_t>(emission_count, run_.emissions.size());
  if (next_emission_ > target) {
    return Status::FailedPrecondition(
        "replay already past emission " + std::to_string(target));
  }
  while (next_emission_ < target || !work_.empty()) {
    StepInternal(/*allow_finish=*/false);
  }
  return Status::OK();
}

size_t ReplayEngine::pending_deliveries() const { return work_.size(); }

uint64_t ReplayEngine::inputs_seen(size_t global_index) const {
  STREAMLIB_CHECK(global_index < tasks_.size());
  return inputs_seen_[global_index];
}

size_t ReplayEngine::task_count() const { return tasks_.size(); }

const TaskMetrics& ReplayEngine::task_metrics(size_t global_index) const {
  STREAMLIB_CHECK(global_index < tasks_.size());
  return *tasks_[global_index]->metrics;
}

std::optional<std::vector<uint8_t>> ReplayEngine::TaskStateBlob(
    size_t global_index) const {
  STREAMLIB_CHECK(global_index < tasks_.size());
  const StageTask& task = *tasks_[global_index];
  if (task.bolt == nullptr) return std::nullopt;
  return task.bolt->StateBlob();
}

Result<std::vector<uint8_t>> ReplayEngine::BoltStateBlob(
    const std::string& component, uint32_t task_index) const {
  for (const auto& task : tasks_) {
    if (task->metrics->component() != component ||
        task->task_index != task_index) {
      continue;
    }
    if (task->bolt == nullptr) {
      return Status::InvalidArgument("component '" + component +
                                     "' is a spout (no bolt state)");
    }
    std::optional<std::vector<uint8_t>> blob = task->bolt->StateBlob();
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
  return SummarizeRun(completed_roots_, failed_roots_, fault_plan(), metrics_);
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
    const std::string prefix =
        metrics_.task(i).component() + "[" +
        std::to_string(metrics_.task(i).task_index()) + "].";
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
      std::min<uint64_t>(a.run->emissions.size(), b.run->emissions.size());
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
    if (a.run->emissions.size() != b.run->emissions.size()) {
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
