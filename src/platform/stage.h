#ifndef STREAMLIB_PLATFORM_STAGE_H_
#define STREAMLIB_PLATFORM_STAGE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "platform/epoch.h"
#include "platform/fault.h"
#include "platform/metrics.h"
#include "platform/plan.h"
#include "platform/queue.h"
#include "platform/spsc_ring.h"
#include "platform/topology.h"
#include "platform/trace.h"

namespace streamlib::platform {

struct EngineConfig;
class TaskCollector;

/// A unit of data in flight between tasks.
struct Message {
  Tuple tuple;
  uint64_t root_id = 0;          // Ack-tree root; 0 = untracked.
  uint64_t edge_id = 0;          // This delivery's ledger entry.
  uint64_t emit_time_nanos = 0;  // Spout emission time (end-to-end latency).
  // Producing task's global index. Barrier alignment needs it: an MPMC
  // input queue merges producers, but the aligner must know *whose*
  // barrier (and whose post-barrier data) each message is.
  uint32_t producer_task = 0;
  // Sampled tracing (all 0 on untraced tuples — the common case).
  uint64_t trace_id = 0;            // Root span id of the sampled tree.
  uint64_t trace_parent_span = 0;   // Span of the hop that emitted this.
  uint64_t trace_enqueue_nanos = 0; // Stage time (queue-wait measurement).
};

/// One parallel instance of a component. Everything here is touched only
/// by the one thread currently running the task, which keeps each fault
/// site's decision stream and edge-id sequence deterministic.
///
/// Bolt tasks own exactly one input channel: a lock-free SPSC ring when the
/// task has a single producer task in dedicated mode (the common
/// spout→bolt pipeline edge), otherwise the mutex-based MPMC BlockingQueue.
/// The In* helpers dispatch to whichever is present. A fused consumer
/// (some task's `fused_next`) has neither and no thread of its own: its
/// bolt runs inline on its producer's thread, so all its state keeps the
/// one-consulting-thread invariant.
struct Task {
  size_t global_index = 0;
  size_t component_index = 0;
  uint32_t task_index = 0;
  std::unique_ptr<Spout> spout;  // Spout tasks only.
  std::unique_ptr<Bolt> bolt;    // Bolt tasks only.
  TaskMetrics* metrics = nullptr;
  TaskCollector* collector = nullptr;     // Owned by the engine.
  std::unique_ptr<TraceRing> trace_ring;  // Null when tracing is disabled.
  Rng rng;                                // Shuffle-routing stream.
  std::vector<Task*> route_scratch;
  // Fault-injection decision streams, null when injection is disabled.
  std::unique_ptr<FaultSite> transport_faults;  // Send: delay/drop/dup.
  std::unique_ptr<FaultSite> executor_faults;   // Throw/crash/acker loss.
  std::unique_ptr<FaultSite> stall_faults;      // Per-delivery stalls.
  std::unique_ptr<FaultSite> barrier_faults;    // Barrier drop/delay.
  // The consumer task this task's one outgoing edge feeds inline when that
  // edge is fused (task i feeds task i; DESIGN.md §13), else null.
  Task* fused_next = nullptr;
  uint64_t edge_seq = 0;  // Edge ids this task allocated (NextEdgeId).

  std::unique_ptr<BlockingQueue<Message>> queue;  // Bolts, multi-producer.
  std::unique_ptr<SpscRing<Message>> ring;        // Bolts, single-producer.

  // Epoch-barrier state (null/empty unless epoch_interval_tuples > 0).
  std::unique_ptr<EpochAligner> aligner;  // Bolts only.
  std::vector<Message> held;        // Post-barrier input awaiting alignment.
  std::vector<uint64_t> held_tags;  // held[i] belongs to epoch held_tags[i].
  uint64_t last_snapshot_epoch = 0;  // Frame a crash-restart restores from.

  bool HasInput() const { return ring != nullptr || queue != nullptr; }
  size_t InPushAll(std::span<Message> b) {
    return ring ? ring->PushAll(b) : queue->PushAll(b);
  }
  size_t InTryPushAll(std::span<Message> b) {
    return ring ? ring->TryPushAll(b) : queue->TryPushAll(b);
  }
  size_t InForcePushAll(std::span<Message> b) {
    // Rings are never selected in multiplexed mode, the only ForcePushAll
    // caller; fall back to a blocking push if that ever changes.
    return ring ? ring->PushAll(b) : queue->ForcePushAll(b);
  }
  size_t InPopBatch(std::vector<Message>& out, size_t max) {
    return ring ? ring->PopBatch(out, max) : queue->PopBatch(out, max);
  }
  size_t InTryPopBatch(std::vector<Message>& out, size_t max) {
    return ring ? ring->TryPopBatch(out, max) : queue->TryPopBatch(out, max);
  }
  size_t InPopBatchTimed(std::vector<Message>& out, size_t max,
                         std::chrono::nanoseconds timeout) {
    return ring ? ring->PopBatchWithTimeout(out, max, timeout)
                : queue->PopBatchWithTimeout(out, max, timeout);
  }
  void InClose() {
    if (ring) {
      ring->Close();
    } else {
      queue->Close();
    }
  }
  size_t InSize() const { return ring ? ring->Size() : queue->Size(); }
  size_t InApproxSize() const {
    return ring ? ring->ApproxSize() : queue->ApproxSize();
  }
  bool InClosed() const { return ring ? ring->Closed() : queue->Closed(); }
};

/// A subscription edge resolved to concrete target tasks.
struct StageEdge {
  Grouping grouping;
  std::vector<Task*> targets;
};

/// The physical graph of one run and its deterministic per-task streams:
/// task and fault-site construction, edge resolution and the fusion plan,
/// routing, edge ids, the transport draws, and the finish pass (the stall
/// and executor draws are the stage runner's, TopologyEngine::RunStage). A
/// draw a task takes depends only on that task's own input order, so one
/// input order gives one schedule, however the tasks are scheduled and
/// however their input is batched.
class StageGraph {
 public:
  /// `config` must outlive the graph.
  explicit StageGraph(const EngineConfig& config);

  /// Builds one task per (component, instance) in global-index order,
  /// registers its metrics and makes its fault sites. Then resolves
  /// subscription edges, runs the fusion pass, and links each fused
  /// producer task to its consumer (`fused_next`).
  void Build(const Topology& topology, MetricsRegistry* metrics);

  const std::vector<std::unique_ptr<Task>>& tasks() const { return tasks_; }
  const std::vector<StageEdge>& outgoing(size_t component) const {
    return outgoing_[component];
  }
  /// Distinct producer tasks feeding `component` (the SPSC test).
  uint64_t producer_tasks(size_t component) const {
    return producer_tasks_[component];
  }
  const TopologyPlan* plan() const { return plan_.get(); }
  FaultPlan* fault_plan() const { return fault_plan_.get(); }

  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// The edge-id allocator: `from`'s own sequence (from 1), interleaved
  /// across tasks as seq × task_count + global_index and passed through the
  /// bijective Mix64, so ids are unique, never 0, and spread over 64 bits:
  /// a root holding a few uncleared ids cannot XOR to zero by accident,
  /// which small sequential ids do (1 ^ 2 ^ 3 == 0). A sequence advances
  /// only on its task's thread, so ids follow per-task program order (a
  /// replay regenerates the live ids) and no shared counter is touched.
  uint64_t NextEdgeId(Task* from) {
    return Mix64(++from->edge_seq * tasks_.size() + from->global_index);
  }

  /// Appends the tasks one emission of `from` goes to, across all of its
  /// outgoing edges (a fused producer's one edge: its `fused_next`). `rng`
  /// draws shuffle targets.
  void Route(const Task* from, const Tuple& tuple, Rng& rng,
             std::vector<Task*>* out) const;

  /// Draws `producer`'s transport faults for one delivery in their fixed
  /// order — delay, drop, then duplicate unless dropped — and returns how
  /// many copies arrive (0, 1 or 2). A drawn delay sleeps here.
  int DrawTransport(Task* producer) {
    FaultSite* faults = producer->transport_faults.get();
    if (faults == nullptr) return 1;
    Sleep(faults->DeliveryDelayMicros());
    if (faults->FireDropTuple()) return 0;
    return faults->FireDuplicateTuple() ? 2 : 1;
  }

  /// Rebuilds `task`'s bolt from its factory and re-runs Prepare, as a
  /// restarted worker would.
  void RestartBolt(Task* task);

  /// The post-drain Finish() pass: in topological order each bolt
  /// finishes, and its emissions execute synchronously downstream.
  void RunFinishPass();

  /// Sleeps a drawn delay or stall.
  static void Sleep(uint32_t micros);

 private:
  class FinishCollector;

  const EngineConfig& config_;
  const Topology* topology_ = nullptr;
  std::unique_ptr<FaultPlan> fault_plan_;
  std::unique_ptr<TopologyPlan> plan_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<std::vector<StageEdge>> outgoing_;  // Per component index.
  std::vector<uint64_t> producer_tasks_;          // Per component index.
  std::atomic<uint64_t> next_span_id_{1};
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_STAGE_H_
