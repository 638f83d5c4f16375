#ifndef STREAMLIB_PLATFORM_TOPOLOGY_H_
#define STREAMLIB_PLATFORM_TOPOLOGY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "platform/tuple.h"

namespace streamlib::platform {

/// How tuples emitted by a source component are routed among the
/// parallel tasks of a consuming bolt — the Storm grouping model.
enum class GroupingKind {
  kShuffle,    ///< uniform random task
  kFields,     ///< hash of one tuple field -> task (stateful partitioning)
  kGlobal,     ///< everything to task 0
  kBroadcast,  ///< every task receives a copy
};

/// Short stable identifier ("shuffle", "fields", ...) — plan dumps, bench
/// JSON keys, and fusion-veto messages.
const char* GroupingKindName(GroupingKind kind);

/// Hash seed the engine's fields-grouping router uses (HashOfValue with
/// this seed, mod target parallelism). Key-grouped rescalable state
/// (KeyGroupedSketchBolt) must hash with the same seed so its key-group
/// assignment stays consistent with routing.
inline constexpr uint64_t kFieldsGroupingHashSeed = 77;

/// A grouping specification on a subscription edge.
struct Grouping {
  GroupingKind kind = GroupingKind::kShuffle;
  size_t field_index = 0;  ///< used by kFields

  static Grouping Shuffle() { return Grouping{GroupingKind::kShuffle, 0}; }
  static Grouping Fields(size_t field_index) {
    return Grouping{GroupingKind::kFields, field_index};
  }
  static Grouping Global() { return Grouping{GroupingKind::kGlobal, 0}; }
  static Grouping Broadcast() {
    return Grouping{GroupingKind::kBroadcast, 0};
  }
};

/// Sink for tuples produced by a spout or bolt task. Implemented by the
/// engine; handles routing, anchoring and backpressure.
class OutputCollector {
 public:
  virtual ~OutputCollector() = default;

  /// Emits a tuple to all subscribed downstream components.
  virtual void Emit(Tuple tuple) = 0;

  /// At-least-once, spout side: the root id assigned to the most recent
  /// Emit from this collector (0 when untracked). Spouts use it to
  /// associate OnAck/OnFail callbacks with their own replay bookkeeping.
  virtual uint64_t LastRootId() const { return 0; }
};

/// A data source (Storm spout). One instance exists per task.
class Spout {
 public:
  virtual ~Spout() = default;

  /// Called once before the stream starts.
  virtual void Open(uint32_t task_index, uint32_t num_tasks) {
    (void)task_index;
    (void)num_tasks;
  }

  /// Produces the next tuple(s) through `collector`. Return false when the
  /// source is exhausted (the engine then begins shutdown once in-flight
  /// tuples drain). May emit zero tuples and return true (idle poll).
  virtual bool NextTuple(OutputCollector* collector) = 0;

  /// At-least-once callbacks: the tuple tree rooted at the spout emission
  /// with this id fully processed / failed (timeout or explicit failure).
  /// Called from the acker thread, serialized per spout instance.
  virtual void OnAck(uint64_t root_id) { (void)root_id; }
  virtual void OnFail(uint64_t root_id) { (void)root_id; }

  /// Epoch-barrier checkpoint hooks (DESIGN.md §12). SnapshotEpoch runs on
  /// the spout thread at the instant barrier `epoch` is injected: return a
  /// blob capturing every payload this spout still owes the stream (the
  /// unemitted cursor plus all in-flight unacked payloads), or nullopt for
  /// sources with nothing to persist. Payloads acked *before* the barrier
  /// are guaranteed to be inside the downstream epoch-`epoch` bolt frames,
  /// so the unacked set is exactly the right re-emission set on restore —
  /// downstream DedupLedgers (restored from the same epoch) absorb the
  /// overlap. OnAck/OnFail run concurrently on the acker thread, so
  /// implementations guard shared state with their own mutex.
  virtual std::optional<std::vector<uint8_t>> SnapshotEpoch(uint64_t epoch) {
    (void)epoch;
    return std::nullopt;
  }
  /// Rehydrates a SnapshotEpoch blob when the engine resumes from `epoch`.
  /// Called once after Open, before the first NextTuple.
  virtual Status RestoreEpoch(uint64_t epoch,
                              const std::vector<uint8_t>& state) {
    (void)epoch;
    (void)state;
    return Status::Unimplemented("spout has no epoch restore");
  }
};

/// A processing node (Storm bolt). One instance exists per task.
class Bolt {
 public:
  virtual ~Bolt() = default;

  /// Called once before the first Execute.
  virtual void Prepare(uint32_t task_index, uint32_t num_tasks) {
    (void)task_index;
    (void)num_tasks;
  }

  /// Processes one input tuple; emissions are anchored to it automatically.
  virtual void Execute(const Tuple& input, OutputCollector* collector) = 0;

  /// Opt-in for the engine's fused batch path: when true, the engine may
  /// deliver whole transport batches through ExecuteBatch instead of
  /// per-tuple Execute. Contract: a batch-capable bolt must NOT emit from
  /// Execute/ExecuteBatch (pure accumulators such as SketchBolt) — the
  /// engine CHECKs this, because batched delivery acks the inputs without
  /// per-tuple anchoring.
  virtual bool BatchCapable() const { return false; }

  /// Batched execution hook. Default: the per-tuple loop, so overriding
  /// BatchCapable alone already yields dispatch-fused semantics; batch-aware
  /// bolts override this to feed one UpdateBatch-style call.
  virtual void ExecuteBatch(std::span<const Tuple* const> inputs,
                            OutputCollector* collector) {
    for (const Tuple* input : inputs) Execute(*input, collector);
  }

  /// End-of-stream hook: called once after all input has been processed
  /// (single-threaded, in topological order) — the place aggregating bolts
  /// emit their final results.
  virtual void Finish(OutputCollector* collector) { (void)collector; }

  /// Debugger hook: a self-describing snapshot of this bolt's state (for
  /// sketch bolts, the SketchBlob envelope), or nullopt for stateless /
  /// non-inspectable bolts. Called only while the bolt is not executing
  /// (the replay debugger pauses between tuples); must not mutate state.
  virtual std::optional<std::vector<uint8_t>> StateBlob() const {
    return std::nullopt;
  }

  /// Epoch-barrier checkpoint hooks (DESIGN.md §12): called by the engine
  /// on the executor thread the moment this task aligned on barrier
  /// `epoch` — the state at that instant contains exactly the effects of
  /// epochs <= epoch. Return nullopt to skip the frame (stateless bolts);
  /// opting in means RestoreEpoch must round-trip the blob, because both
  /// crash-restarts and resumed runs restore through it. Bolts holding a
  /// DedupLedger serialize it inside the blob — that is what makes
  /// restored state exactly-once under at-least-once replays.
  virtual std::optional<std::vector<uint8_t>> SnapshotEpoch(uint64_t epoch) {
    (void)epoch;
    return std::nullopt;
  }
  virtual Status RestoreEpoch(uint64_t epoch,
                              const std::vector<uint8_t>& state) {
    (void)epoch;
    (void)state;
    return Status::Unimplemented("bolt has no epoch restore");
  }
};

using SpoutFactory = std::function<std::unique_ptr<Spout>()>;
using BoltFactory = std::function<std::unique_ptr<Bolt>()>;

/// One subscription edge: bolt consumes `source` with `grouping`.
struct Subscription {
  std::string source;
  Grouping grouping;
};

/// Declarative description of one component.
struct ComponentSpec {
  std::string name;
  bool is_spout = false;
  uint32_t parallelism = 1;
  SpoutFactory spout_factory;
  BoltFactory bolt_factory;
  std::vector<Subscription> inputs;  // Empty for spouts.
};

/// An immutable, validated topology: a DAG of spouts and bolts.
class Topology {
 public:
  const std::vector<ComponentSpec>& components() const { return components_; }

  /// Index of a component by name; CHECK-fails if absent.
  size_t IndexOf(const std::string& name) const;

  /// Makes every spout task build from `factory`. The shape, and so every
  /// global task index, stays as it was: a replay swaps in spouts that run
  /// no user code.
  void ReplaceSpouts(const SpoutFactory& factory);

 private:
  friend class TopologyBuilder;
  std::vector<ComponentSpec> components_;  // Topologically ordered.
};

/// Fluent builder mirroring Storm's TopologyBuilder.
class TopologyBuilder {
 public:
  /// Declares a spout with `parallelism` tasks.
  TopologyBuilder& AddSpout(const std::string& name, SpoutFactory factory,
                            uint32_t parallelism = 1);

  /// Declares a bolt subscribed to one or more upstream components.
  TopologyBuilder& AddBolt(const std::string& name, BoltFactory factory,
                           uint32_t parallelism,
                           std::vector<Subscription> inputs);

  /// Validates (unique names, known sources, acyclic) and produces the
  /// topology with components in topological order.
  Result<Topology> Build();

 private:
  std::vector<ComponentSpec> components_;
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_TOPOLOGY_H_
