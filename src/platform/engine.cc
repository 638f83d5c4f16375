#include "platform/engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <unordered_map>

#include "common/check.h"
#include "platform/checkpoint.h"
#include "platform/clock.h"
#include "platform/epoch.h"
#include "platform/recorder.h"
#include "platform/spsc_ring.h"

namespace streamlib::platform {

namespace {

/// A timeout knob is positive and its nanosecond count fits a uint64_t:
/// TimeoutNanos's cast is undefined past 2^64 ns (about 1.8e10 s). NaN and
/// the infinities fail one comparison or the other.
bool ValidTimeout(double seconds) {
  return seconds > 0 && seconds * 1e9 < 0x1p64;
}

uint64_t TimeoutNanos(double seconds) {
  return static_cast<uint64_t>(seconds * 1e9);
}

/// Cap on both batch sizes: staging buffers and pop batches reserve that
/// many messages up front, so a size is an allocation, not only a policy.
constexpr size_t kMaxBatchSize = size_t{1} << 16;

/// Cap on queue_capacity, for the same reason: an SPSC ring allocates its
/// whole slot array, rounded up to a power of two, when it is built.
constexpr size_t kMaxQueueCapacity = size_t{1} << 20;

}  // namespace

Status EngineConfig::Validate() const {
  if (queue_capacity == 0 || queue_capacity > kMaxQueueCapacity) {
    return Status::InvalidArgument("queue_capacity must be in [1, " +
                                   std::to_string(kMaxQueueCapacity) + "]");
  }
  if (emit_batch_size == 0 || execute_batch_size == 0 ||
      emit_batch_size > kMaxBatchSize || execute_batch_size > kMaxBatchSize) {
    return Status::InvalidArgument(
        "emit_batch_size / execute_batch_size must be in [1, " +
        std::to_string(kMaxBatchSize) + "] (1 disables batching)");
  }
  if (mode == ExecutionMode::kMultiplexed && multiplexed_threads == 0) {
    return Status::InvalidArgument(
        "multiplexed mode needs at least one executor thread");
  }
  // Checked regardless of semantics: the knob must always be sane.
  if (!ValidTimeout(ack_timeout_seconds)) {
    return Status::InvalidArgument(
        "ack_timeout_seconds must be positive and below 1.8e10 (2^64 ns)");
  }
  if (TracksTuples(semantics) && max_spout_pending == 0) {
    return Status::InvalidArgument(
        "tracked delivery needs max_spout_pending >= 1");
  }
  if (semantics == DeliverySemantics::kExactlyOnce &&
      (checkpoint_store == nullptr || epoch_interval_tuples == 0)) {
    return Status::InvalidArgument(
        "exactly-once needs a checkpoint_store and epoch_interval_tuples "
        ">= 1");
  }
  if ((epoch_interval_tuples > 0 || resume_from_epoch > 0) &&
      checkpoint_store == nullptr) {
    return Status::InvalidArgument(
        "epoch checkpointing needs a checkpoint_store");
  }
  if (!ValidTimeout(epoch_align_timeout_seconds)) {
    return Status::InvalidArgument(
        "epoch_align_timeout_seconds must be positive and below 1.8e10 "
        "(2^64 ns)");
  }
  // Telemetry knobs: 0 = disabled, not an error. Guard against intervals
  // so short the sampler becomes a busy loop perturbing the data path.
  if (telemetry_sample_interval_ms > 60'000) {
    return Status::InvalidArgument(
        "telemetry_sample_interval_ms must be <= 60000 (0 disables)");
  }
  STREAMLIB_RETURN_NOT_OK(faults.Validate());
  return Status::OK();
}

/// Event sent to the acker thread.
struct TopologyEngine::AckerEvent {
  enum Kind { kInit, kUpdate };
  Kind kind = kUpdate;
  uint64_t root_id = 0;
  uint64_t xor_value = 0;
  size_t spout_task = 0;  // kInit only.
};

/// The OutputCollector of one task. It anchors each emission, routes it
/// and sends a copy to each target: the transport draws, a fresh edge id
/// per arriving copy, then the copy is staged for its target — or, on a
/// fused edge, the consumer runs inline. It also applies backpressure and
/// stages the task's acker traffic.
///
/// Emissions do not hit downstream queues directly: they accumulate in
/// per-target staging buffers and flush as one batch push when a buffer
/// reaches emit_batch_size or the surrounding Execute/NextTuple batch ends
/// (FlushAll). This amortizes the lock/notify per queue operation over the
/// batch while preserving per-target FIFO order. Acker traffic (kInit from
/// spouts, kUpdate from bolts) is staged and flushed the same way — one
/// vector push per execute batch.
class TaskCollector : public OutputCollector {
  using AckerEvent = TopologyEngine::AckerEvent;

 public:
  /// Builds one staging slot per distinct downstream task this task can
  /// reach through a queued edge (none for a fused producer, whose one
  /// edge runs its consumer inline).
  TaskCollector(TopologyEngine* engine, Task* task)
      : engine_(engine),
        task_(task),
        batch_size_(std::max<size_t>(1, engine->config_.emit_batch_size)) {
    slot_of_task_.assign(engine_->graph_.tasks().size(), -1);
    if (task_->fused_next != nullptr) return;
    for (const StageEdge& edge :
         engine_->graph_.outgoing(task_->component_index)) {
      for (Task* target : edge.targets) {
        if (slot_of_task_[target->global_index] < 0) {
          slot_of_task_[target->global_index] =
              static_cast<int32_t>(slots_.size());
          slots_.emplace_back();
          slots_.back().target = target;
          slots_.back().buffer.reserve(batch_size_);
        }
      }
    }
  }

  /// Sets the anchoring context for the hop `m`: the emissions of its
  /// Execute inherit its root and latency stamp, and parent their trace
  /// spans under `span`. End returns the XOR of the edge ids they created.
  void Begin(const Message& m, uint64_t span) {
    root_ = m.root_id;
    emit_time_ = m.emit_time_nanos;
    trace_id_ = m.trace_id;
    span_ = span;
    xor_out_ = 0;
  }
  uint64_t End() const { return xor_out_; }

  uint64_t LastRootId() const override { return last_spout_root_; }

  /// Monotonic count of Emit calls (spout loop uses it to detect idle
  /// polls and flush promptly instead of batching across waits).
  uint64_t total_emitted() const { return total_emitted_; }

  void Emit(Tuple tuple) override {
    const bool from_spout = task_->spout != nullptr;
    const EngineConfig& config = engine_->config_;
    Message message;
    message.root_id = root_;
    message.emit_time_nanos = emit_time_;
    if (from_spout) {
      // Flight recorder tap: capture the emission before routing consumes
      // (moves) the tuple. Everything downstream is deterministic given
      // the config, so spout output is all the recording needs.
      if (config.recorder != nullptr) {
        config.recorder->RecordEmission(
            static_cast<uint32_t>(task_->global_index), tuple);
      }
      // Source-side latency sampling: stamp every Nth emission instead of
      // reading the clock per tuple; executors sample exactly the stamped
      // tuples (and their descendants, which inherit the stamp).
      const uint32_t every = config.latency_sample_every;
      message.emit_time_nanos =
          every > 0 && total_emitted_ % every == 0 ? engine_->NowNanos() : 0;
      // Trace sampling rides the same counter: every Kth root becomes a
      // span tree, rooted at a span recorded right here.
      const uint32_t trace_every = config.trace_sample_every;
      if (trace_every > 0 && total_emitted_ % trace_every == 0) {
        trace_id_ = engine_->graph_.NextSpanId();
        span_ = trace_id_;
        task_->trace_ring->Record(TraceEvent{
            trace_id_, trace_id_, /*parent_span=*/0,
            static_cast<uint32_t>(task_->global_index), engine_->NowNanos(),
            /*wait_nanos=*/0, /*execute_nanos=*/0});
      } else {
        trace_id_ = 0;
        span_ = 0;
      }
      if (TracksTuples(config.semantics)) {
        message.root_id =
            engine_->next_root_id_.fetch_add(1, std::memory_order_relaxed);
        engine_->inflight_roots_.fetch_add(1, std::memory_order_relaxed);
        last_spout_root_ = message.root_id;
      }
    }
    message.trace_id = trace_id_;
    message.trace_parent_span = span_;
    message.tuple = std::move(tuple);

    // A fused producer hands its one consumer the delivery directly (no
    // routing); Deliver runs it inline and returns its ack into edge_xor.
    const uint64_t root = message.root_id;
    const uint64_t edge_xor =
        task_->fused_next != nullptr
            ? SendTo(task_->fused_next, std::move(message))
            : Send(std::move(message));
    total_emitted_++;
    unflushed_emits_++;

    if (from_spout && root != 0) {
      // Register the root with its initial ledger value.
      acker_staging_.push_back(
          AckerEvent{AckerEvent::kInit, root, edge_xor, task_->global_index});
    } else if (root != 0) {
      xor_out_ ^= edge_xor;
    }
  }

  /// Stages the epoch-barrier marker to every queued downstream task and
  /// flushes immediately: per-slot FIFO puts the marker after every
  /// already-staged tuple of its epoch, and prompt flushing keeps
  /// downstream alignment latency off the data's critical path. A fused
  /// consumer has already run every tuple of the epoch, and its one
  /// producer is this task, so it aligns at once and cuts the epoch inline
  /// (this task's barriers only ever increase). Barrier faults
  /// (drop/delay) inject here, one decision per (barrier, target).
  void EmitBarrier(uint64_t epoch) {
    for (StagingSlot& slot : slots_) {
      if (BarrierArrives()) {
        Message& message = slot.buffer.emplace_back();
        message.tuple = Tuple::Barrier(epoch);
        message.producer_task = static_cast<uint32_t>(task_->global_index);
      }
      FlushSlot(slot);
    }
    if (task_->fused_next != nullptr && BarrierArrives()) {
      engine_->CutEpoch(task_->fused_next, epoch);
    }
  }

  /// A queued bolt hop's ack (kUpdate) joins the staged acker traffic.
  void Ack(uint64_t root, uint64_t value) {
    acker_staging_.push_back(AckerEvent{AckerEvent::kUpdate, root, value, 0});
  }

  /// The stage runner executed this task once; the count is published
  /// with the next flush, like emissions.
  void CountExecuted() { unflushed_executed_++; }

  /// Flushes every staging buffer, the emitted- and executed-counter
  /// deltas, and staged acker events. Must run before the owning thread
  /// blocks on anything a staged tuple could be needed to unblock
  /// (execute-batch end, spout throttle wait, shutdown).
  void FlushAll() {
    // A fused consumer's collector flushes first: it may have staged tuples
    // toward queued edges further down, and those obey the same
    // flush-before-blocking contract.
    if (task_->fused_next != nullptr) task_->fused_next->collector->FlushAll();
    for (StagingSlot& slot : slots_) FlushSlot(slot);
    if (unflushed_emits_ > 0) {
      task_->metrics->IncEmitted(unflushed_emits_);
      unflushed_emits_ = 0;
    }
    if (unflushed_executed_ > 0) {
      task_->metrics->IncExecuted(unflushed_executed_);
      unflushed_executed_ = 0;
    }
    if (!acker_staging_.empty()) {
      engine_->acker_queue_->PushAll(std::span<AckerEvent>(acker_staging_));
      acker_staging_.clear();
    }
  }

 private:
  struct StagingSlot {
    Task* target = nullptr;
    std::vector<Message> buffer;
  };

  /// Routes one emission — `message` carries the tuple and the producer's
  /// stamps (root, latency, trace) — and sends a copy to each routed
  /// target. Returns the XOR of what SendTo returned.
  uint64_t Send(Message&& message) {
    std::vector<Task*>& targets = task_->route_scratch;
    targets.clear();
    engine_->graph_.Route(task_, message.tuple, task_->rng, &targets);
    if (targets.empty()) return 0;
    uint64_t edge_xor = 0;
    for (size_t i = 0; i + 1 < targets.size(); i++) {
      edge_xor ^= SendTo(targets[i], Message(message));
    }
    return edge_xor ^ SendTo(targets.back(), std::move(message));
  }

  /// One delivery to `target`, the per-target step routed edges take and a
  /// fused producer takes directly with its one consumer: transport draws,
  /// then per arriving copy a fresh edge id when the root is tracked, and
  /// Deliver. Returns the XOR of every edge id created (a dropped copy
  /// still creates one) and of every fused consumer's ack.
  uint64_t SendTo(Task* target, Message&& message) {
    const bool tracked = message.root_id != 0;
    const int copies = engine_->graph_.DrawTransport(task_);
    // Transport loss: the edge id is anchored but the message never
    // arrives — like a packet dropped after send. The ledger holds a bit
    // no execution will clear, so under at-least-once the root times out
    // and the spout's OnFail replays it.
    if (copies == 0) return tracked ? engine_->graph_.NextEdgeId(task_) : 0;
    message.producer_task = static_cast<uint32_t>(task_->global_index);
    // Traced path only: timestamp the enqueue (queue-wait = dequeue -
    // enqueue at the consumer).
    if (message.trace_id != 0) {
      message.trace_enqueue_nanos = engine_->NowNanos();
    }
    // A duplicate is a redelivery with its own ledger entry, so the XOR
    // accounting stays balanced while downstream genuinely sees the tuple
    // twice — the duplication at-least-once permits and DedupLedger exists
    // to suppress. It goes first, then the original moves on.
    uint64_t edge_xor = 0;
    if (copies == 2) {
      Message duplicate = message;
      duplicate.edge_id = tracked ? engine_->graph_.NextEdgeId(task_) : 0;
      edge_xor = duplicate.edge_id;
      edge_xor ^= Deliver(target, std::move(duplicate));
    }
    message.edge_id = tracked ? engine_->graph_.NextEdgeId(task_) : 0;
    edge_xor ^= message.edge_id;
    return edge_xor ^ Deliver(target, std::move(message));
  }

  /// A routed copy is staged for `target`, flushing the slot when it
  /// reaches the batch size. The fused consumer (DESIGN.md §13) runs inline
  /// instead, through the stage runner on this thread — the same code as a
  /// queued delivery and so the same per-site draws — and its ack comes
  /// back for this task's edge XOR instead of the acker: a success clears
  /// the edge id SendTo allocated, a failure (throw, crash, lost ack)
  /// leaves it there, as a queued hop leaves its own in the acker's
  /// ledger. A crash restarts the bolt in place (this thread IS the
  /// consumer's "process"; later tuples meet the fresh instance).
  uint64_t Deliver(Task* target, Message&& message) {
    if (target == task_->fused_next) {
      uint64_t ack = 0;
      engine_->RunStage(target, message, &ack);
      return ack;
    }
    StagingSlot& slot = slots_[slot_of_task_[target->global_index]];
    slot.buffer.push_back(std::move(message));
    if (slot.buffer.size() >= batch_size_) FlushSlot(slot);
    return 0;
  }

  /// One (barrier, target) fault decision: the drawn delay (slept here),
  /// then whether the marker reaches that target. A lost marker starves a
  /// queued target's alignment on the epoch until the timeout
  /// force-advances past it (the data still flows); a fused target skips
  /// the epoch.
  bool BarrierArrives() {
    FaultSite* faults = task_->barrier_faults.get();
    if (faults == nullptr) return true;
    StageGraph::Sleep(faults->BarrierDelayMicros());
    return !faults->FireBarrierDrop();
  }

  /// Pushes one slot's staged messages downstream as a batch. Fast path is
  /// a single non-blocking batch push; on a full queue the producer either
  /// blocks (bounded backpressure: spouts and dedicated-mode bolts) or
  /// falls back to unbounded buffering (multiplexed bolts, which must
  /// never block on a queue they may themselves drain — faithfully
  /// pre-backpressure Storm). The failed prefix stays in place: nothing is
  /// re-copied on the stall path.
  void FlushSlot(StagingSlot& slot) {
    if (slot.buffer.empty()) return;
    Task* target = slot.target;
    const size_t n = slot.buffer.size();
    // Count before pushing so a consumer finishing these messages can
    // never drive pending_messages_ negative.
    engine_->pending_messages_.fetch_add(n, std::memory_order_acq_rel);
    std::span<Message> batch(slot.buffer);
    size_t delivered = target->InTryPushAll(batch);
    if (delivered < n) {
      task_->metrics->IncBackpressureStalls();
      std::span<Message> rest = batch.subspan(delivered);
      if (engine_->config_.mode == ExecutionMode::kMultiplexed &&
          task_->bolt != nullptr) {
        delivered += target->InForcePushAll(rest);
      } else {
        delivered += target->InPushAll(rest);
      }
    }
    if (delivered < n) {
      // Queue closed during shutdown; remainder dropped.
      engine_->pending_messages_.fetch_sub(n - delivered,
                                           std::memory_order_acq_rel);
    }
    task_->metrics->RecordFlush(n);
    slot.buffer.clear();
  }

  TopologyEngine* engine_;
  Task* task_;
  const size_t batch_size_;
  std::vector<StagingSlot> slots_;
  std::vector<int32_t> slot_of_task_;  // global task index -> slot or -1.
  std::vector<AckerEvent> acker_staging_;
  uint64_t root_ = 0;
  uint64_t emit_time_ = 0;
  uint64_t trace_id_ = 0;
  uint64_t span_ = 0;
  uint64_t xor_out_ = 0;
  uint64_t total_emitted_ = 0;
  uint64_t unflushed_emits_ = 0;
  uint64_t unflushed_executed_ = 0;
  uint64_t last_spout_root_ = 0;
};

TopologyEngine::TopologyEngine(Topology topology, EngineConfig config)
    : topology_(std::move(topology)),
      config_(config),
      clock_(config.clock != nullptr ? config.clock : Clock::Steady()),
      graph_(config_) {}

TopologyEngine::~TopologyEngine() = default;

uint64_t TopologyEngine::NowNanos() const { return clock_->NowNanos(); }

void TopologyEngine::BuildTasks(bool stepped) {
  graph_.Build(topology_, &metrics_);
  const std::vector<std::unique_ptr<Task>>& tasks = graph_.tasks();
  // Input channels: a bolt task whose input has exactly one producer task
  // gets the lock-free SPSC ring (dedicated mode only — both endpoints are
  // single threads there); everything else gets the MPMC blocking queue.
  // Fused consumers have no input channel at all: their tuples arrive as
  // inline calls on their producer's thread. The stepped scheduler's one
  // thread never waits for a consumer, so its queues are unbounded.
  std::vector<bool> fused_consumer(tasks.size(), false);
  for (const auto& task : tasks) {
    if (task->fused_next != nullptr) {
      fused_consumer[task->fused_next->global_index] = true;
    }
  }
  for (const auto& task : tasks) {
    if (task->bolt == nullptr || fused_consumer[task->global_index]) continue;
    const uint64_t producers = graph_.producer_tasks(task->component_index);
    if (stepped) {
      task->queue = std::make_unique<BlockingQueue<Message>>(
          std::numeric_limits<size_t>::max());
    } else if (config_.enable_spsc &&
               config_.mode == ExecutionMode::kDedicated && producers == 1) {
      task->ring = std::make_unique<SpscRing<Message>>(config_.queue_capacity);
      spsc_edges_++;
    } else {
      task->queue =
          std::make_unique<BlockingQueue<Message>>(config_.queue_capacity);
    }
    if (config_.epoch_interval_tuples > 0) {
      // Alignment spans *producer tasks*, not components: every producer
      // task's collector broadcasts each barrier to every consumer task.
      task->aligner = std::make_unique<EpochAligner>(
          producers, TimeoutNanos(config_.epoch_align_timeout_seconds),
          config_.resume_from_epoch);
    }
  }

  for (const auto& task : tasks) {
    collectors_.push_back(std::make_unique<TaskCollector>(this, task.get()));
    task->collector = collectors_.back().get();
  }
  metrics_.Freeze();
  telemetry_.Bind(&metrics_, config_.telemetry_sample_interval_ms,
                  config_.trace_sample_every);
  telemetry_.BindFaultPlan(graph_.fault_plan());
  telemetry_.BindRecorder(config_.recorder);
}

/// Builds the sampler's per-task probes (counters + instantaneous input
/// depth for bolts) and starts the background sampling thread.
void TopologyEngine::StartSampler() {
  if (config_.telemetry_sample_interval_ms == 0) return;
  std::vector<MetricsSampler::Probe> probes;
  probes.reserve(graph_.tasks().size());
  for (const auto& task : graph_.tasks()) {
    MetricsSampler::Probe probe;
    probe.metrics = task->metrics;
    if (task->HasInput()) {
      Task* t = task.get();
      probe.queue_depth = [t] { return t->InApproxSize(); };
    }
    probes.push_back(std::move(probe));
  }
  sampler_ = std::make_unique<MetricsSampler>(
      std::move(probes), config_.telemetry_sample_interval_ms);
  telemetry_.AttachSampler(sampler_.get());
  sampler_->Start();
}

/// Merges every task's trace ring into the telemetry span-tree store.
/// Runs after all worker threads joined — rings are single-writer and the
/// writers have stopped.
void TopologyEngine::DrainTraces() {
  if (config_.trace_sample_every == 0) return;
  std::vector<TraceEvent> events;
  uint64_t dropped = 0;
  std::vector<std::string> task_components;
  task_components.reserve(graph_.tasks().size());
  for (const auto& task : graph_.tasks()) {
    task_components.push_back(task->metrics->component());
    std::vector<TraceEvent> drained = task->trace_ring->Drain();
    events.insert(events.end(), drained.begin(), drained.end());
    dropped += task->trace_ring->dropped();
  }
  telemetry_.mutable_traces().Build(std::move(events), task_components,
                                    dropped);
}

/// Opens or prepares `task` on the calling thread and restores it from the
/// resume epoch, then does the same for its fused consumer: that has no
/// thread of its own, and its bolt runs inline on this one.
void TopologyEngine::PrepareOnThread(Task* task) {
  const uint32_t parallelism =
      topology_.components()[task->component_index].parallelism;
  if (task->spout != nullptr) {
    task->spout->Open(task->task_index, parallelism);
  } else {
    task->bolt->Prepare(task->task_index, parallelism);
  }
  task->last_snapshot_epoch = config_.resume_from_epoch;
  RestoreEpochFrame(task);
  if (task->fused_next != nullptr) PrepareOnThread(task->fused_next);
}

void TopologyEngine::SpoutLoop(Task* task) {
  PrepareOnThread(task);
  TaskCollector* collector = task->collector;
  const size_t batch = std::max<size_t>(1, config_.emit_batch_size);
  const bool track = TracksTuples(config_.semantics);
  // Barrier injection cadence: epoch e's marker follows this spout's
  // e*K-th emission, so epoch boundaries are a pure function of the
  // emission sequence (the determinism the torture test pins down).
  const uint64_t epoch_k = config_.epoch_interval_tuples;
  uint64_t next_epoch = config_.resume_from_epoch + 1;
  uint64_t next_barrier_at = epoch_k;
  auto throttled = [this] {
    return inflight_roots_.load(std::memory_order_relaxed) >=
           config_.max_spout_pending;
  };
  bool done = false;
  while (!done) {
    if (track && throttled()) {
      // Spout throttle: cap in-flight tuple trees. Everything staged must
      // flush first — a root can only resolve (and release the throttle)
      // once its tuples are actually delivered.
      collector->FlushAll();
      std::unique_lock<std::mutex> lock(progress_mu_);
      progress_cv_.wait_for(lock, std::chrono::milliseconds(1),
                            [&] { return !throttled(); });
      continue;
    }
    for (size_t i = 0; i < batch && !done; i++) {
      const uint64_t before = collector->total_emitted();
      if (!task->spout->NextTuple(collector)) {
        done = true;
      } else if (collector->total_emitted() == before) {
        break;  // Idle poll: flush promptly instead of batching waits.
      }
      while (epoch_k > 0 && collector->total_emitted() >= next_barrier_at) {
        // The cut is a record in this task's stream, so a replay cuts the
        // epoch at the same point of the emission sequence.
        if (config_.recorder != nullptr) {
          config_.recorder->RecordEmission(
              static_cast<uint32_t>(task->global_index),
              Tuple::Barrier(next_epoch));
        }
        CutEpoch(task, next_epoch);
        next_epoch++;
        next_barrier_at += epoch_k;
      }
      if (track && throttled()) break;
    }
    collector->FlushAll();
  }
}

/// The queued execute path: one loop for every popped batch. With epochs
/// on, barriers feed the aligner, and data from a producer that already
/// barriered past this task's aligned epoch is parked in `task->held`
/// until alignment catches up, so a bolt's state at snapshot time contains
/// exactly the effects of epochs <= the snapshot epoch.
void TopologyEngine::ExecuteBatch(Task* task, std::span<Message> batch) {
  // A batch-capable bolt takes the whole batch through one ExecuteBatch
  // call when nothing can fault a single message of it. Barriers demand
  // per-message inspection, and traced batches keep per-tuple delivery so
  // their span trees stay per-hop-accurate.
  if (task->aligner == nullptr && graph_.fault_plan() == nullptr &&
      config_.enable_bolt_batch && batch.size() > 1 &&
      task->bolt->BatchCapable() &&
      std::none_of(batch.begin(), batch.end(),
                   [](const Message& m) { return m.trace_id != 0; })) {
    ExecuteBatchFused(task, batch);
    return;
  }
  size_t consumed = 0;  // Messages leaving the pending count this call.
  for (Message& message : batch) {
    if (task->aligner != nullptr) {
      if (message.tuple.IsBarrier()) {
        consumed++;
        HandleBarrier(task, message.producer_task,
                      message.tuple.barrier_epoch());
        continue;
      }
      if (task->aligner->ShouldHold(message.producer_task)) {
        // This producer already barriered ahead: the message belongs to a
        // later epoch than this task has aligned on. It stays pending (the
        // drain protocol keeps the topology open) until released.
        task->held_tags.push_back(
            task->aligner->HoldTag(message.producer_task));
        task->held.push_back(std::move(message));
        continue;
      }
    }
    consumed++;
    RunStage(task, message, nullptr);
  }
  // Children enqueue (and acker events post) before the parents' pending
  // count releases, so pending_messages_ == 0 always means fully drained.
  task->collector->FlushAll();
  FinishPending(consumed);
}

/// The stage runner: every tuple delivered to a bolt — queued, released
/// from an alignment hold, or fused inline — executes here, drawing on the
/// consuming thread in one fixed order: stall, throw, Execute, crash if
/// nothing threw, acker loss if the tuple is tracked and nothing crashed.
/// Records the hop's trace span and latency. A successful hop's ack
/// (its edge id ^ its children's ids) joins the task's acker staging, or
/// XORs into `*fused_ack` on a fused hop. A hop that threw, crashed or lost
/// its ack lands nothing: its own edge id stays in the root's ledger, so
/// the root fails. A hop that did not throw counts as executed. A fault
/// reaches no further than its own message: on a crash the bolt is rebuilt
/// like a restarted worker, and the next message, wherever it comes from,
/// runs on the fresh instance.
inline void TopologyEngine::RunStage(Task* task, const Message& m,
                                     uint64_t* fused_ack) {
  if (task->stall_faults != nullptr) {
    StageGraph::Sleep(task->stall_faults->QueueStallMicros());
  }
  FaultSite* faults = task->executor_faults.get();
  const bool throw_now = faults != nullptr && faults->FireBoltThrow();
  // Tracing costs exactly this one branch on untraced tuples; traced hops
  // pay the span allocation and two clock reads.
  uint64_t span = 0;
  uint64_t execute_start = 0;
  if (m.trace_id != 0) {
    span = graph_.NextSpanId();
    execute_start = NowNanos();
  }
  TaskCollector* out = task->collector;
  out->Begin(m, span);
  bool ok = true;
  try {
    if (throw_now) throw InjectedBoltError("injected bolt failure");
    task->bolt->Execute(m.tuple, out);
  } catch (...) {
    // A throwing Execute fails the tuple, never the engine: no ack lands,
    // and under at-least-once the root times out into the spout's OnFail.
    ok = false;
    task->metrics->IncBoltExceptions();
  }
  const uint64_t xor_out = out->End();
  if (!ok) return;
  out->CountExecuted();
  if (m.trace_id != 0) {
    task->trace_ring->Record(TraceEvent{
        m.trace_id, span, m.trace_parent_span,
        static_cast<uint32_t>(task->global_index), execute_start,
        execute_start - m.trace_enqueue_nanos, NowNanos() - execute_start});
  }
  if (m.emit_time_nanos > 0) {
    task->metrics->RecordLatencyNanos(NowNanos() - m.emit_time_nanos);
  }
  // The crash draw sits between Execute and the ack — the MillWheel torn
  // window. The completed Execute's state mutations (and any checkpoint
  // Put) survive, but the ack dies with the "process", so the root
  // replays into restored state: exactly the duplicate-delivery case
  // checkpoint-then-ack dedup (DedupLedger) must absorb. An acker-loss
  // fault loses the ack in transit instead: the root stays unresolved
  // until the timeout fails it back to the spout.
  const bool crash = faults != nullptr && faults->FireTaskCrash();
  if (m.root_id != 0 && !crash &&
      (faults == nullptr || !faults->FireAckerLoss())) {
    const uint64_t value = m.edge_id ^ xor_out;
    if (fused_ack != nullptr) {
      *fused_ack ^= value;
    } else {
      out->Ack(m.root_id, value);
    }
  }
  if (crash) RestartBolt(task);
}

/// Pending-count release with the drain-wait wakeup the plain paths inline.
void TopologyEngine::FinishPending(size_t n) {
  if (n == 0) return;
  const uint64_t prev =
      pending_messages_.fetch_sub(n, std::memory_order_acq_rel);
  if (prev == n && spouts_done_.load(std::memory_order_acquire)) {
    progress_cv_.notify_all();  // Wake the drain wait in Run().
  }
}

/// The batch-capable path, taken only with fault injection off: one
/// ExecuteBatch dispatch and one ack-staging pass for the whole batch. It
/// reaches the state per-message Execute reaches (the BatchCapable
/// contract), so nothing but speed depends on the batch boundaries. Only
/// reached for batch-capable bolts (pure accumulators that never emit from
/// execution) on fully untraced batches.
void TopologyEngine::ExecuteBatchFused(Task* task, std::span<Message> batch) {
  TaskCollector* collector = task->collector;
  thread_local std::vector<const Tuple*> inputs;
  inputs.clear();
  inputs.reserve(batch.size());
  for (const Message& message : batch) inputs.push_back(&message.tuple);
  const uint64_t emitted_before = collector->total_emitted();
  collector->Begin(Message(), 0);
  bool executed_ok = true;
  try {
    task->bolt->ExecuteBatch(
        std::span<const Tuple* const>(inputs.data(), inputs.size()),
        collector);
  } catch (...) {
    // The one call failed, so the whole batch fails: no acks are staged,
    // and under at-least-once every root in it times out and replays.
    executed_ok = false;
    task->metrics->IncBoltExceptions();
  }
  STREAMLIB_CHECK_MSG(collector->total_emitted() == emitted_before,
                      "batch-capable bolt emitted during ExecuteBatch");
  if (executed_ok) {
    const uint64_t now = NowNanos();
    for (const Message& message : batch) {
      if (message.emit_time_nanos > 0) {
        task->metrics->RecordLatencyNanos(now - message.emit_time_nanos);
      }
      // Nothing was emitted, so each input's ledger entry closes with its
      // own edge id.
      if (message.root_id != 0) {
        collector->Ack(message.root_id, message.edge_id);
      }
    }
  }
  collector->FlushAll();
  if (executed_ok) task->metrics->IncExecuted(batch.size());
  FinishPending(batch.size());
}

/// One barrier marker reached this task. When the aligner reports full
/// alignment on a new epoch: snapshot first (state now holds exactly
/// epochs <= snap), then forward the barrier (emissions so far precede it
/// in every slot), then release held input (its emissions land after the
/// barrier, in the next epoch — matching the tags the data carries).
void TopologyEngine::HandleBarrier(Task* task, uint32_t producer,
                                   uint64_t epoch) {
  const uint64_t snap = task->aligner->OnBarrier(producer, epoch, NowNanos());
  if (snap == 0) return;
  CutEpoch(task, snap);
  ReleaseHeld(task, snap + 1);
}

/// Executes (and finishes) every held message with tag <= max_tag,
/// compacting the rest in place.
void TopologyEngine::ReleaseHeld(Task* task, uint64_t max_tag) {
  if (task->held.empty()) return;
  size_t finished = 0;
  size_t kept = 0;
  for (size_t i = 0; i < task->held.size(); i++) {
    if (task->held_tags[i] > max_tag) {
      if (kept != i) {
        task->held[kept] = std::move(task->held[i]);
        task->held_tags[kept] = task->held_tags[i];
      }
      kept++;
      continue;
    }
    finished++;
    RunStage(task, task->held[i], nullptr);
  }
  task->held.resize(kept);
  task->held_tags.resize(kept);
  FinishPending(finished);
}

/// Shutdown safety valve: unconditionally releases whatever is still held
/// when this task's input is closed and drained. Normally unreachable —
/// held messages keep pending_messages_ > 0, so Run() cannot close the
/// queues before an alignment or a timeout released them — but it
/// guarantees the loop exit never strands pending counts.
void TopologyEngine::FlushHeld(Task* task) {
  if (task->aligner == nullptr || task->held.empty()) return;
  ReleaseHeld(task, UINT64_MAX);
  task->collector->FlushAll();
}

/// Alignment-timeout recovery: a barrier lost or badly delayed toward this
/// task would otherwise starve its alignment (and hold its data, and
/// starve downstream alignments) forever. On timeout the task abandons the
/// stuck epochs — no snapshot, no ack, so they simply never complete and
/// restore will not use them — realigns at the highest barrier it has
/// seen, forwards that barrier, and releases the held data. Checkpointing
/// retries at the next epoch instead of wedging the data plane.
void TopologyEngine::MaybeEpochTimeout(Task* task) {
  if (task->aligner == nullptr) return;
  if (!task->aligner->TimedOut(NowNanos())) return;
  const uint64_t forced = task->aligner->ForceAdvance();
  epoch_timeouts_.fetch_add(1, std::memory_order_relaxed);
  task->collector->EmitBarrier(forced);
  ReleaseHeld(task, forced + 1);
  task->collector->FlushAll();
}

/// One task's epoch cut: snapshot, store the frame, ack the epoch to the
/// coordinator, then forward the barrier. A spout cuts *before* its marker
/// enters the stream, so its frame holds every payload it still owes
/// (unemitted cursor + unacked in-flight); anything acked before this
/// instant is inside the downstream epoch frames, and the overlap (acked
/// after) is re-emitted on restore and absorbed by the restored
/// DedupLedgers. The snapshot-and-store time and frame size land in the
/// task's telemetry row.
void TopologyEngine::CutEpoch(Task* task, uint64_t epoch) {
  const uint64_t start = NowNanos();
  std::optional<std::vector<uint8_t>> frame =
      task->spout != nullptr ? task->spout->SnapshotEpoch(epoch)
                             : task->bolt->SnapshotEpoch(epoch);
  const uint64_t frame_bytes = frame.has_value() ? frame->size() : 0;
  if (frame.has_value()) {
    config_.checkpoint_store->Put(
        EpochTaskKey(epoch,
                     topology_.components()[task->component_index].name,
                     task->task_index),
        std::move(*frame));
  }
  task->metrics->RecordEpochSnapshot(NowNanos() - start, frame_bytes);
  task->last_snapshot_epoch = epoch;
  coordinator_->AckEpoch(epoch, task->global_index);
  task->collector->EmitBarrier(epoch);
}

/// Rehydrates `task` from its frame at `last_snapshot_epoch` (no-op at 0):
/// on resume, the complete epoch Run() checked the marker of, before any
/// traffic; after a crash-restart, the task's own last cut. Tasks without
/// a frame were stateless at snapshot time and start fresh.
void TopologyEngine::RestoreEpochFrame(Task* task) {
  const uint64_t epoch = task->last_snapshot_epoch;
  if (epoch == 0) return;
  const std::string key = EpochTaskKey(
      epoch, topology_.components()[task->component_index].name,
      task->task_index);
  Result<std::vector<uint8_t>> frame = config_.checkpoint_store->Fetch(key);
  if (!frame.ok()) return;
  const Status restored =
      task->spout != nullptr
          ? task->spout->RestoreEpoch(epoch, frame.value())
          : task->bolt->RestoreEpoch(epoch, frame.value());
  STREAMLIB_CHECK_MSG(restored.ok(), "epoch %llu restore failed for %s: %s",
                      static_cast<unsigned long long>(epoch), key.c_str(),
                      restored.ToString().c_str());
}

uint64_t TopologyEngine::last_complete_epoch() const {
  return coordinator_ != nullptr ? coordinator_->last_complete() : 0;
}

uint64_t TopologyEngine::epochs_completed() const {
  return coordinator_ != nullptr ? coordinator_->epochs_completed() : 0;
}

/// Crash-restart recovery: discards the bolt instance (all in-memory
/// state) and builds a fresh one from the component factory, re-running
/// Prepare as a restarted worker would. State that matters must have been
/// checkpointed by the bolt itself — that contract is exactly what the
/// chaos suite verifies.
void TopologyEngine::RestartBolt(Task* task) {
  graph_.RestartBolt(task);
  if (coordinator_ == nullptr) return;
  // Epoch fence: the restarted instance rebuilds from its frame at
  // last_snapshot_epoch, which is missing every already-acked effect
  // applied after that snapshot — and acked roots will not replay. Any
  // frame this task writes later inherits that gap, so no epoch beyond
  // the snapshot may ever be marked complete in this run; the resumable
  // point stays at the last epoch whose frames are known whole.
  coordinator_->FenceEpochsAfter(task->last_snapshot_epoch);
  RestoreEpochFrame(task);
}

void TopologyEngine::DedicatedBoltLoop(Task* task) {
  PrepareOnThread(task);
  const size_t max_batch = std::max<size_t>(1, config_.execute_batch_size);
  std::vector<Message> batch;
  batch.reserve(max_batch);
  while (true) {
    batch.clear();
    // With epochs the blocking pop becomes a timed pop, so a task whose
    // alignment is starving (dropped barrier, stalled producer) still gets
    // to run the timeout check while its queue is quiet.
    const size_t n = task->aligner == nullptr
                         ? task->InPopBatch(batch, max_batch)
                         : task->InPopBatchTimed(batch, max_batch,
                                                 std::chrono::milliseconds(1));
    if (n == 0) {
      if (task->InClosed() && task->InSize() == 0) {
        FlushHeld(task);
        break;
      }
      MaybeEpochTimeout(task);
      continue;
    }
    ExecuteBatch(task, std::span<Message>(batch.data(), n));
    MaybeEpochTimeout(task);
  }
}

void TopologyEngine::MultiplexedWorkerLoop(const std::vector<Task*>& tasks) {
  // One executor thread serving many task queues round-robin (Storm-style
  // multiplexing): drain each queue in batches, sleep briefly when idle
  // (a worker polls many queues, so it cannot block on any single one).
  const size_t max_batch = std::max<size_t>(1, config_.execute_batch_size);
  std::vector<Message> batch;
  batch.reserve(max_batch);
  while (true) {
    bool any = false;
    for (Task* task : tasks) {
      batch.clear();
      const size_t n = task->InTryPopBatch(batch, max_batch);
      if (n == 0) {
        MaybeEpochTimeout(task);
        continue;
      }
      any = true;
      ExecuteBatch(task, std::span<Message>(batch.data(), n));
      MaybeEpochTimeout(task);
    }
    if (!any) {
      bool all_done = true;
      for (Task* task : tasks) {
        if (!task->InClosed() || task->InSize() > 0) {
          all_done = false;
          break;
        }
      }
      if (all_done) {
        bool flushed = false;
        for (Task* task : tasks) {
          if (task->aligner != nullptr && !task->held.empty()) {
            FlushHeld(task);
            flushed = true;
          }
        }
        if (flushed) continue;  // Released emissions may need a last sweep.
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
}

void TopologyEngine::AckerLoop() {
  const uint64_t timeout_nanos = TimeoutNanos(config_.ack_timeout_seconds);
  uint64_t last_scan = NowNanos();
  std::vector<AckerEvent> events;
  events.reserve(1024);
  while (true) {
    events.clear();
    // Timed blocking wait (no spin-sleep): wake on traffic, or on the
    // timeout slice to run the periodic ack-timeout scan.
    const size_t n = acker_queue_->PopBatchWithTimeout(
        events, 1024, std::chrono::milliseconds(5));
    if (n == 0 && acker_queue_->Closed()) break;
    bool resolved_any = ApplyAckerEvents(events);
    // Periodic timeout scan.
    const uint64_t now = NowNanos();
    if (now - last_scan > timeout_nanos / 4 + 1000000) {
      last_scan = now;
      resolved_any |= FailRoots(now > timeout_nanos ? now - timeout_nanos : 0);
    }
    if (resolved_any) {
      progress_cv_.notify_all();  // Throttled spouts / the drain wait.
    }
  }
  // Shutdown: anything left unresolved fails.
  if (FailRoots(UINT64_MAX)) progress_cv_.notify_all();
}

/// Folds acker events into the ledger; true if any root completed.
bool TopologyEngine::ApplyAckerEvents(std::span<const AckerEvent> events) {
  bool resolved = false;
  for (const AckerEvent& event : events) {
    RootEntry& entry = roots_[event.root_id];
    entry.value ^= event.xor_value;
    if (event.kind == AckerEvent::kInit) {
      entry.initialized = true;
      entry.spout_task = event.spout_task;
      entry.created_nanos = NowNanos();
    }
    if (entry.initialized && entry.value == 0) {
      ResolveRoot(event.root_id, entry.spout_task, /*success=*/true);
      roots_.erase(event.root_id);
      resolved = true;
    }
  }
  return resolved;
}

/// Fails every registered root created before `created_before`; true if
/// any did.
bool TopologyEngine::FailRoots(uint64_t created_before) {
  bool resolved = false;
  for (auto it = roots_.begin(); it != roots_.end();) {
    if (it->second.initialized && it->second.created_nanos < created_before) {
      ResolveRoot(it->first, it->second.spout_task, /*success=*/false);
      it = roots_.erase(it);
      resolved = true;
    } else {
      ++it;
    }
  }
  return resolved;
}

void TopologyEngine::ResolveRoot(uint64_t root, size_t spout_task,
                                 bool success) {
  Task* task = graph_.tasks()[spout_task].get();
  if (success) {
    completed_roots_.fetch_add(1, std::memory_order_relaxed);
    task->metrics->IncAcked();
    task->spout->OnAck(root);
  } else {
    failed_roots_.fetch_add(1, std::memory_order_relaxed);
    task->metrics->IncFailed();
    task->spout->OnFail(root);
  }
  inflight_roots_.fetch_sub(1, std::memory_order_relaxed);
}

Status TopologyEngine::Start(bool stepped) {
  STREAMLIB_CHECK_MSG(!ran_, "TopologyEngine is single-use");
  ran_ = true;
  STREAMLIB_RETURN_NOT_OK(config_.Validate());
  const uint64_t resume = config_.resume_from_epoch;
  if (resume > 0 &&
      !config_.checkpoint_store->Get(EpochCompleteKey(resume)).has_value()) {
    return Status::FailedPrecondition(
        "resume_from_epoch " + std::to_string(resume) +
        " was never marked complete");
  }
  BuildTasks(stepped);
  if (config_.epoch_interval_tuples > 0) {
    // Every task (spouts included) acks every epoch; the coordinator marks
    // an epoch complete — restorable — only on the full set.
    coordinator_ = std::make_unique<CheckpointCoordinator>(
        config_.checkpoint_store, graph_.tasks().size(),
        config_.resume_from_epoch);
  }
  StartSampler();
  if (TracksTuples(config_.semantics)) {
    acker_queue_ = std::make_unique<BlockingQueue<AckerEvent>>(1 << 16);
  }
  return Status::OK();
}

void TopologyEngine::Finish() {
  graph_.RunFinishPass();

  // Telemetry epilogue: final tail sample (so delta sums equal the final
  // counters, finish-pass emissions included), then merge the per-task
  // trace rings into span trees — all writers have joined by now.
  if (sampler_) sampler_->Stop();
  DrainTraces();

  // Attach the run's final counters to the recording so a replay can be
  // verified against the original from the file alone. The caller still
  // owns Finalize().
  if (config_.recorder != nullptr) {
    config_.recorder->SetSummary(SummarizeRun(
        completed_roots(), failed_roots(), graph_.fault_plan(), metrics_));
  }
}

void TopologyEngine::Run() {
  const Status started = Start(/*stepped=*/false);
  STREAMLIB_CHECK_MSG(started.ok(), "cannot run the topology: %s",
                      started.ToString().c_str());
  if (acker_queue_ != nullptr) {
    acker_thread_ = std::thread([this] { AckerLoop(); });
  }

  // Bolt executors. Fused consumers get no thread (and have no input
  // channel to drain or close) — they execute inline on their producer's
  // thread.
  std::vector<Task*> bolt_tasks;
  for (const auto& task : graph_.tasks()) {
    if (task->HasInput()) bolt_tasks.push_back(task.get());
  }
  if (config_.mode == ExecutionMode::kDedicated) {
    for (Task* task : bolt_tasks) {
      threads_.emplace_back([this, task] { DedicatedBoltLoop(task); });
    }
  } else {
    const uint32_t workers =
        std::max<uint32_t>(1, config_.multiplexed_threads);
    std::vector<std::vector<Task*>> assignment(workers);
    for (size_t i = 0; i < bolt_tasks.size(); i++) {
      assignment[i % workers].push_back(bolt_tasks[i]);
    }
    for (Task* task : bolt_tasks) PrepareOnThread(task);
    for (uint32_t w = 0; w < workers; w++) {
      if (assignment[w].empty()) continue;
      auto tasks = assignment[w];
      threads_.emplace_back(
          [this, tasks] { MultiplexedWorkerLoop(tasks); });
    }
  }

  // Spouts.
  std::vector<std::thread> spout_threads;
  for (const auto& task : graph_.tasks()) {
    if (task->spout != nullptr) {
      spout_threads.emplace_back([this, t = task.get()] { SpoutLoop(t); });
    }
  }
  for (auto& t : spout_threads) t.join();
  spouts_done_.store(true, std::memory_order_release);

  // Drain: wait until no message is queued or mid-execution, and (at least
  // once) until every tuple tree resolved. Timed waits on progress_cv_
  // (executors notify on pending hitting zero, the acker on resolves).
  {
    auto drained = [this] {
      return pending_messages_.load(std::memory_order_acquire) == 0 &&
             (!TracksTuples(config_.semantics) ||
              inflight_roots_.load(std::memory_order_relaxed) == 0);
    };
    std::unique_lock<std::mutex> lock(progress_mu_);
    while (!drained()) {
      progress_cv_.wait_for(lock, std::chrono::microseconds(200));
    }
  }

  // Stop executors.
  for (Task* task : bolt_tasks) task->InClose();
  for (auto& t : threads_) t.join();
  threads_.clear();

  if (acker_queue_ != nullptr) {
    acker_queue_->Close();
    acker_thread_.join();
  }
  Finish();
}

// ------------------------------------------------------- stepped scheduler

Status TopologyEngine::StartStepped() {
  STREAMLIB_RETURN_NOT_OK(Start(/*stepped=*/true));
  // Every task a threaded run gives a thread prepares here, in index order.
  for (const auto& task : graph_.tasks()) {
    if (task->spout != nullptr || task->HasInput()) PrepareOnThread(task.get());
  }
  return Status::OK();
}

/// One spout record: an emission enters through the task's collector as
/// its NextTuple's would, a barrier is the task's epoch cut.
void TopologyEngine::StepRecord(size_t spout_task, const Tuple& tuple) {
  Task* task = graph_.tasks()[spout_task].get();
  if (tuple.IsBarrier()) {
    CutEpoch(task, tuple.barrier_epoch());
  } else {
    task->collector->Emit(tuple);
  }
  task->collector->FlushAll();
  SettleStep();
}

Task* TopologyEngine::NextQueued() const {
  for (const auto& task : graph_.tasks()) {
    if (task->queue != nullptr && task->queue->Size() > 0) return task.get();
  }
  return nullptr;
}

void TopologyEngine::StepQueued(Task* task) {
  std::vector<Message> one;
  task->queue->TryPopBatch(one, 1);
  ExecuteBatch(task, std::span<Message>(one));
  SettleStep();
}

size_t TopologyEngine::QueuedMessages() const {
  size_t total = 0;
  for (const auto& task : graph_.tasks()) {
    if (task->queue != nullptr) total += task->queue->Size();
  }
  return total;
}

/// The stepped acker: a unit's staged events settle in the ledger at once,
/// and once nothing is queued every root still open fails — its tree has
/// drained, where a threaded run waits out the ack timeout instead.
void TopologyEngine::SettleStep() {
  if (acker_queue_ == nullptr) return;
  std::vector<AckerEvent> events;
  acker_queue_->TryPopBatch(events, SIZE_MAX);
  ApplyAckerEvents(events);
  if (QueuedMessages() == 0) FailRoots(UINT64_MAX);
}

}  // namespace streamlib::platform
