#ifndef STREAMLIB_PLATFORM_STAGE_H_
#define STREAMLIB_PLATFORM_STAGE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "platform/fault.h"
#include "platform/metrics.h"
#include "platform/plan.h"
#include "platform/topology.h"
#include "platform/trace.h"

namespace streamlib::platform {

class Clock;
struct EngineConfig;

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

/// One parallel instance of a component: the state every executor of a
/// task shares — the live engine's threads, a fused producer, the replayer.
/// Everything here is touched only by the one thread currently running the
/// task, which keeps each fault site's decision stream and edge-id sequence
/// deterministic.
struct StageTask {
  size_t global_index = 0;
  size_t component_index = 0;
  uint32_t task_index = 0;
  std::unique_ptr<Spout> spout;  // Live spout tasks only.
  std::unique_ptr<Bolt> bolt;    // Bolt tasks only.
  TaskMetrics* metrics = nullptr;
  std::unique_ptr<TraceRing> trace_ring;  // Null when tracing is disabled.
  Rng rng;                                // Shuffle-routing stream.
  std::vector<StageTask*> route_scratch;
  // Fault-injection decision streams, null when injection is disabled.
  std::unique_ptr<FaultSite> transport_faults;  // Send: delay/drop/dup.
  std::unique_ptr<FaultSite> executor_faults;   // Throw/crash/acker loss.
  std::unique_ptr<FaultSite> stall_faults;      // Per-delivery stalls.
  std::unique_ptr<FaultSite> barrier_faults;    // Barrier drop/delay.
  // The consumer task this task's one outgoing edge feeds inline when that
  // edge is fused (task i feeds task i; DESIGN.md §13), else null.
  StageTask* fused_next = nullptr;
  uint64_t edge_seq = 0;  // Edge ids this task allocated (NextEdgeId).
};

/// A subscription edge resolved to concrete target tasks.
struct StageEdge {
  Grouping grouping;
  std::vector<StageTask*> targets;
};

/// The output side of one Execute. Begin sets the anchoring context for the
/// hop `m` (children inherit its root and latency stamp, and parent their
/// trace spans under `span`); End returns the XOR of the edge ids the
/// Execute's emissions created.
class StageCollector : public OutputCollector {
 public:
  void Begin(const Message& m, uint64_t span) {
    root_ = m.root_id;
    emit_time_ = m.emit_time_nanos;
    trace_id_ = m.trace_id;
    span_ = span;
    xor_out_ = 0;
  }
  uint64_t End() const { return xor_out_; }

 protected:
  uint64_t root_ = 0;
  uint64_t emit_time_ = 0;
  uint64_t trace_id_ = 0;
  uint64_t span_ = 0;
  uint64_t xor_out_ = 0;
};

/// Where a hop's ack lands — the only part of a delivery that differs per
/// caller: the acker staging (queued), the producer's edge XOR (fused), or
/// the replayer's synchronous ledger. A hop that threw, crashed or lost its
/// ack lands nothing: its own edge id stays in the root's ledger, so the
/// root fails.
class AckSink {
 public:
  virtual ~AckSink() = default;
  /// The hop succeeded: XOR `value` (its edge id ^ its children's ids)
  /// into the root's ledger.
  virtual void Ack(uint64_t root, uint64_t value) = 0;
};

enum class StageOutcome {
  kOk,       ///< Execute completed and the ack (or its loss) was drawn
  kFailed,   ///< Execute threw (injected or real): the tuple fails
  kCrashed,  ///< Execute completed, then the task "process" died
};

/// The per-run state the live engine and the replayer share: task and
/// fault-site construction, edge resolution and the fusion plan, routing,
/// the per-target delivery step (transport draws, edge ids), the stage
/// runner and the finish pass. Both executors drive the same code, so a
/// replay reproduces a live run draw for draw and edge id for edge id by
/// construction: a fused hop is an ordinary delivery that runs inline.
class StageGraph {
 public:
  /// `config` must outlive the graph. `live` = false (the replayer) builds
  /// no spout instances and trace rings and never sleeps on a drawn delay
  /// or stall: replay reproduces decisions, not wall-clock.
  StageGraph(const EngineConfig& config, Clock* clock, bool live);
  ~StageGraph();

  /// Builds one task per (component, instance) in global-index order:
  /// `new_task` allocates it (the caller owns it), Build fills the shared
  /// fields, registers its metrics, and makes its fault sites. Then
  /// resolves subscription edges, runs the fusion pass, and links each
  /// fused producer task to its consumer (`fused_next`).
  void Build(const Topology& topology, MetricsRegistry* metrics,
             const std::function<StageTask*()>& new_task);

  const std::vector<StageEdge>& outgoing(size_t component) const {
    return outgoing_[component];
  }
  /// Distinct producer tasks feeding `component` (the SPSC test).
  uint64_t producer_tasks(size_t component) const {
    return producer_tasks_[component];
  }
  const TopologyPlan* plan() const { return plan_.get(); }
  FaultPlan* fault_plan() const { return fault_plan_.get(); }
  uint64_t NowNanos() const;

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
  uint64_t NextEdgeId(StageTask* from) {
    return Mix64(++from->edge_seq * tasks_.size() + from->global_index);
  }

  /// Appends the tasks one emission of `from` goes to, across all of its
  /// outgoing edges (a fused producer's one edge: its `fused_next`). `rng`
  /// draws shuffle targets.
  void Route(const StageTask* from, const Tuple& tuple, Rng& rng,
             std::vector<StageTask*>* out) const;

  /// Draws `producer`'s transport faults for one delivery in their fixed
  /// order — delay, drop, then duplicate unless dropped — and returns how
  /// many copies arrive (0, 1 or 2). A live delay sleeps here.
  int DrawTransport(StageTask* producer) {
    FaultSite* faults = producer->transport_faults.get();
    if (faults == nullptr) return 1;
    Sleep(faults->DeliveryDelayMicros());
    if (faults->FireDropTuple()) return 0;
    return faults->FireDuplicateTuple() ? 2 : 1;
  }

  /// Routes one emission of `from` — `message` carries the tuple and the
  /// producer's stamps (root, latency, trace) — and sends a copy to each
  /// routed target through SendTo. Returns the XOR of what SendTo returned.
  template <typename Wire>
  uint64_t Send(StageTask* from, Message&& message, Wire* wire);

  /// One delivery from `from` to `target`, the per-target step routed
  /// edges take and a fused producer takes directly with its one consumer:
  /// transport draws, then per arriving copy a fresh edge id when the root
  /// is tracked and `wire->Deliver(StageTask* target, Message&&)` — the
  /// engine's staging or inline run, or the replayer's FIFO. Returns the
  /// XOR of every edge id created (a dropped copy still creates one) and of
  /// every value Deliver returned (a fused consumer's ack).
  template <typename Wire>
  uint64_t SendTo(StageTask* from, StageTask* target, Message&& message,
                  Wire* wire);

  /// The stage runner: every tuple delivered to a bolt — queued, released
  /// from an alignment hold, fused inline, or replayed — executes here,
  /// drawing on the consuming thread in one fixed order: stall, throw,
  /// Execute, crash if nothing threw, acker loss if the tuple is tracked
  /// and nothing crashed. Records the hop's trace span and latency. The
  /// caller counts `executed` (anything but kFailed) and restarts the
  /// bolt on kCrashed.
  StageOutcome Run(StageTask* task, const Message& m, StageCollector* out,
                   AckSink* acks);

  // The runner's draw steps, shared with the batch path (which keeps one
  // ExecuteBatch dispatch but draws per message, in the runner's order).
  /// Stall (a live stall sleeps), then the throw decision.
  bool StallThenDrawThrow(StageTask* task) {
    if (task->stall_faults != nullptr) {
      Sleep(task->stall_faults->QueueStallMicros());
    }
    return task->executor_faults != nullptr &&
           task->executor_faults->FireBoltThrow();
  }
  /// What becomes of a hop whose Execute completed.
  enum class Fate { kAck, kAckLost, kCrash };
  /// Crash, then acker loss if the hop is `tracked` and nothing crashed.
  Fate DrawFate(StageTask* task, bool tracked) {
    FaultSite* faults = task->executor_faults.get();
    if (faults == nullptr) return Fate::kAck;
    if (faults->FireTaskCrash()) return Fate::kCrash;
    return tracked && faults->FireAckerLoss() ? Fate::kAckLost : Fate::kAck;
  }

  /// Rebuilds `task`'s bolt from its factory and re-runs Prepare, as a
  /// restarted worker would.
  void RestartBolt(StageTask* task);

  /// The post-drain Finish() pass: in topological order each bolt
  /// finishes, and its emissions execute synchronously downstream.
  void RunFinishPass();

 private:
  class FinishCollector;

  /// Sleeps a drawn delay or stall on a live run; replay never sleeps.
  void Sleep(uint32_t micros) const;

  const EngineConfig& config_;
  Clock* clock_;
  const bool live_;
  const Topology* topology_ = nullptr;
  std::unique_ptr<FaultPlan> fault_plan_;
  std::unique_ptr<TopologyPlan> plan_;
  std::vector<StageTask*> tasks_;  // Owned by the executor.
  std::vector<std::vector<StageEdge>> outgoing_;  // Per component index.
  std::vector<uint64_t> producer_tasks_;          // Per component index.
  std::atomic<uint64_t> next_span_id_{1};
};

// Send, SendTo and the runner are defined here so every caller inlines
// them (and its Deliver): they run on every hop of the hot path, fused hops
// included.
template <typename Wire>
uint64_t StageGraph::Send(StageTask* from, Message&& message, Wire* wire) {
  std::vector<StageTask*>& targets = from->route_scratch;
  targets.clear();
  Route(from, message.tuple, from->rng, &targets);
  if (targets.empty()) return 0;
  uint64_t edge_xor = 0;
  for (size_t i = 0; i + 1 < targets.size(); i++) {
    edge_xor ^= SendTo(from, targets[i], Message(message), wire);
  }
  return edge_xor ^ SendTo(from, targets.back(), std::move(message), wire);
}

template <typename Wire>
uint64_t StageGraph::SendTo(StageTask* from, StageTask* target,
                            Message&& message, Wire* wire) {
  const bool tracked = message.root_id != 0;
  const int copies = DrawTransport(from);
  // Transport loss: the edge id is anchored but the message never arrives —
  // like a packet dropped after send. The ledger holds a bit no execution
  // will clear, so under at-least-once the root times out and the spout's
  // OnFail replays it.
  if (copies == 0) return tracked ? NextEdgeId(from) : 0;
  message.producer_task = static_cast<uint32_t>(from->global_index);
  // Traced path only: timestamp the enqueue (queue-wait = dequeue - enqueue
  // at the consumer).
  if (message.trace_id != 0) message.trace_enqueue_nanos = NowNanos();
  // A duplicate is a redelivery with its own ledger entry, so the XOR
  // accounting stays balanced while downstream genuinely sees the tuple
  // twice — the duplication at-least-once permits and DedupLedger exists
  // to suppress. It goes first, then the original moves on.
  uint64_t edge_xor = 0;
  if (copies == 2) {
    Message duplicate = message;
    duplicate.edge_id = tracked ? NextEdgeId(from) : 0;
    edge_xor = duplicate.edge_id;
    edge_xor ^= wire->Deliver(target, std::move(duplicate));
  }
  message.edge_id = tracked ? NextEdgeId(from) : 0;
  edge_xor ^= message.edge_id;
  return edge_xor ^ wire->Deliver(target, std::move(message));
}

inline StageOutcome StageGraph::Run(StageTask* task, const Message& m,
                                    StageCollector* out, AckSink* acks) {
  const bool throw_now = StallThenDrawThrow(task);
  // Tracing costs exactly this one branch on untraced tuples; traced hops
  // pay the span allocation and two clock reads.
  uint64_t span = 0;
  uint64_t execute_start = 0;
  if (m.trace_id != 0) {
    span = NextSpanId();
    execute_start = NowNanos();
  }
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
  if (!ok) return StageOutcome::kFailed;
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
  const Fate fate = DrawFate(task, m.root_id != 0);
  if (m.root_id != 0 && fate == Fate::kAck) {
    acks->Ack(m.root_id, m.edge_id ^ xor_out);
  }
  return fate == Fate::kCrash ? StageOutcome::kCrashed : StageOutcome::kOk;
}

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_STAGE_H_
