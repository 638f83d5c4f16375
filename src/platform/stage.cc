#include "platform/stage.h"

#include <chrono>
#include <thread>

#include "platform/engine.h"

namespace streamlib::platform {

namespace {

/// Per-task trace event buffer size. Bounds tracing memory regardless of
/// run length; overflow overwrites oldest events (counted, and affected
/// trees are marked incomplete rather than silently miswired).
constexpr size_t kTraceRingCapacity = 4096;

}  // namespace

StageGraph::StageGraph(const EngineConfig& config) : config_(config) {}

void StageGraph::Sleep(uint32_t micros) {
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

void StageGraph::Build(const Topology& topology, MetricsRegistry* metrics) {
  topology_ = &topology;
  const auto& components = topology.components();
  if (config_.faults.Enabled()) {
    fault_plan_ = std::make_unique<FaultPlan>(config_.faults);
  }
  std::vector<std::vector<Task*>> tasks_by_component(components.size());
  for (size_t ci = 0; ci < components.size(); ci++) {
    const ComponentSpec& spec = components[ci];
    for (uint32_t ti = 0; ti < spec.parallelism; ti++) {
      Task* task = tasks_.emplace_back(std::make_unique<Task>()).get();
      task->global_index = tasks_.size() - 1;
      task->component_index = ci;
      task->task_index = ti;
      // Pre-register this task's metrics: the registry freezes before any
      // worker thread starts, so the run phase never mutates it.
      task->metrics = &metrics->RegisterTask(spec.name, ti);
      if (config_.trace_sample_every > 0) {
        task->trace_ring = std::make_unique<TraceRing>(kTraceRingCapacity);
      }
      if (spec.is_spout) {
        task->spout = spec.spout_factory();
      } else {
        task->bolt = spec.bolt_factory();
      }
      task->rng.Seed(config_.seed ^
                     (0x9e3779b97f4a7c15ULL * (task->global_index + 1)));
      if (fault_plan_ != nullptr) {
        // Site ids derive from the global task index, which is itself a
        // pure function of the topology (component order × parallelism) —
        // so a given (topology, seed) always yields the same per-site
        // streams, live or replayed. One id-space slot per role.
        const uint64_t base = task->global_index * 4;
        task->transport_faults = fault_plan_->MakeSite(base + 0, task->metrics);
        task->executor_faults = fault_plan_->MakeSite(base + 1, task->metrics);
        if (!spec.is_spout && config_.faults.queue_stall_prob > 0) {
          task->stall_faults = fault_plan_->MakeSite(base + 2, task->metrics);
        }
        if (config_.epoch_interval_tuples > 0) {
          task->barrier_faults = fault_plan_->MakeSite(base + 3, task->metrics);
        }
      }
      tasks_by_component[ci].push_back(task);
    }
  }

  // Resolve subscription edges into per-source outgoing lists, counting
  // each consumer's distinct producer tasks on the way.
  outgoing_.assign(components.size(), {});
  producer_tasks_.assign(components.size(), 0);
  std::vector<std::vector<bool>> counted(
      components.size(), std::vector<bool>(components.size(), false));
  for (size_t ci = 0; ci < components.size(); ci++) {
    for (const Subscription& sub : components[ci].inputs) {
      const size_t source = topology.IndexOf(sub.source);
      StageEdge edge;
      edge.grouping = sub.grouping;
      edge.targets = tasks_by_component[ci];
      outgoing_[source].push_back(std::move(edge));
      if (!counted[ci][source]) {
        counted[ci][source] = true;
        producer_tasks_[ci] += components[source].parallelism;
      }
    }
  }

  // Fused-operator compilation (DESIGN.md §13): lower the topology into the
  // dataflow IR and run the fusion pass. A recording carries enable_fusion,
  // so the replayer builds the live plan too.
  plan_ = std::make_unique<TopologyPlan>(TopologyPlan::FromTopology(topology));
  FusionOptions fusion_options;
  fusion_options.enable_fusion = config_.enable_fusion;
  fusion_options.dedicated_mode = config_.mode == ExecutionMode::kDedicated;
  plan_->RunFusionPass(fusion_options);
  for (const std::vector<size_t>& chain : plan_->chains()) {
    for (size_t i = 0; i + 1 < chain.size(); i++) {
      // Rule 7: a fused producer has exactly one outgoing edge; rule 5
      // pairs its task i with the consumer's task i.
      for (Task* producer : tasks_by_component[chain[i]]) {
        producer->fused_next =
            tasks_by_component[chain[i + 1]][producer->task_index];
      }
    }
  }
}

void StageGraph::Route(const Task* from, const Tuple& tuple, Rng& rng,
                       std::vector<Task*>* out) const {
  if (from->fused_next != nullptr) {
    out->push_back(from->fused_next);
    return;
  }
  for (const StageEdge& edge : outgoing_[from->component_index]) {
    switch (edge.grouping.kind) {
      case GroupingKind::kBroadcast:
        out->insert(out->end(), edge.targets.begin(), edge.targets.end());
        break;
      case GroupingKind::kShuffle:
        out->push_back(edge.targets[rng.NextBounded(edge.targets.size())]);
        break;
      case GroupingKind::kFields: {
        const uint64_t h = HashOfValue(tuple.field(edge.grouping.field_index),
                                       kFieldsGroupingHashSeed);
        out->push_back(edge.targets[h % edge.targets.size()]);
        break;
      }
      case GroupingKind::kGlobal:
        out->push_back(edge.targets[0]);
        break;
    }
  }
}

void StageGraph::RestartBolt(Task* task) {
  const ComponentSpec& spec = topology_->components()[task->component_index];
  task->bolt = spec.bolt_factory();
  task->bolt->Prepare(task->task_index, spec.parallelism);
}

/// Synchronous collector of the Finish() pass: emissions route like live
/// traffic but invoke downstream Execute directly. Every downstream
/// collector is seeded from its parent's stream, so the pass's shuffle
/// routing is a pure function of the config seed.
class StageGraph::FinishCollector : public OutputCollector {
 public:
  FinishCollector(StageGraph* graph, Task* task, uint64_t seed)
      : graph_(graph), task_(task), rng_(seed) {}

  void Emit(Tuple tuple) override {
    task_->metrics->IncEmitted();
    std::vector<Task*> targets;
    graph_->Route(task_, tuple, rng_, &targets);
    for (Task* target : targets) {
      FinishCollector downstream(graph_, target, rng_.Next());
      target->bolt->Execute(tuple, &downstream);
      target->metrics->IncExecuted();
    }
  }

 private:
  StageGraph* graph_;
  Task* task_;
  Rng rng_;
};

void StageGraph::RunFinishPass() {
  // Components are topologically ordered; finish each bolt task so
  // aggregates emitted here flow to (not-yet-finished) downstream bolts.
  for (const auto& task : tasks_) {
    if (task->bolt == nullptr) continue;
    FinishCollector collector(this, task.get(),
                              config_.seed ^ task->global_index);
    task->bolt->Finish(&collector);
  }
}

}  // namespace streamlib::platform
