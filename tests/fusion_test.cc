// Fused-operator topology compilation (DESIGN.md §13): the dataflow IR's
// shape, every fusion-legality veto (and that recording and epochs veto
// nothing), engine execution through fused chains (counts and results
// identical to the queued baseline), the default config's fusion of the
// Figure-1 job's spout -> parse edge, the fused-vs-queued fault-schedule
// equality contract, one fault blast radius whatever the batching, and
// the injectable-Clock alignment-timeout determinism fix.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "platform/checkpoint.h"
#include "platform/clock.h"
#include "platform/components.h"
#include "platform/engine.h"
#include "platform/fault.h"
#include "platform/plan.h"
#include "platform/recorder.h"
#include "platform/topology.h"

namespace streamlib::platform {
namespace {

// --------------------------------------------------------------- helpers

std::unique_ptr<Spout> MakeCountingSpout(int64_t n) {
  return std::make_unique<GeneratorSpout>(
      [n, i = int64_t{0}]() mutable -> std::optional<Tuple> {
        if (i >= n) return std::nullopt;
        const int64_t v = i++;
        std::string key = "k";
        key += std::to_string(v % 17);
        return Tuple::Of(std::move(key), v);
      });
}

std::unique_ptr<Bolt> MakePassThroughBolt() {
  return std::make_unique<FunctionBolt>(
      [](const Tuple& input, OutputCollector* collector) {
        collector->Emit(Tuple(input));
      });
}

/// spout -> map -> sink, shuffle edges, every component `parallelism`
/// tasks (each spout task emitting `tuples`) — the canonical fully fusible
/// 3-stage chain.
Topology ThreeStageChain(TupleSink* sink, int64_t tuples,
                         uint32_t parallelism = 1) {
  TopologyBuilder builder;
  builder.AddSpout(
      "src", [tuples] { return MakeCountingSpout(tuples); }, parallelism);
  builder.AddBolt(
      "map", [] { return MakePassThroughBolt(); }, parallelism,
      {{"src", Grouping::Shuffle()}});
  builder.AddBolt(
      "sink",
      [sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(sink);
      },
      parallelism, {{"map", Grouping::Shuffle()}});
  return builder.Build().value();
}

TopologyPlan PlanFor(const Topology& topology, const FusionOptions& options) {
  TopologyPlan plan = TopologyPlan::FromTopology(topology);
  plan.RunFusionPass(options);
  return plan;
}

FusionOptions FusionOn() {
  FusionOptions options;
  options.enable_fusion = true;
  return options;
}

const PlanEdge& EdgeBetween(const TopologyPlan& plan, const std::string& from,
                            const std::string& to) {
  for (const PlanEdge& edge : plan.edges()) {
    if (plan.nodes()[edge.from].name == from &&
        plan.nodes()[edge.to].name == to) {
      return edge;
    }
  }
  ADD_FAILURE() << "no edge " << from << " -> " << to;
  static PlanEdge missing;
  return missing;
}

// ------------------------------------------------------------ IR + pass

TEST(TopologyPlanTest, IrMirrorsTopologyShape) {
  TupleSink sink;
  Topology topology = ThreeStageChain(&sink, 1);
  TopologyPlan plan = TopologyPlan::FromTopology(topology);

  ASSERT_EQ(plan.nodes().size(), 3u);
  ASSERT_EQ(plan.edges().size(), 2u);
  EXPECT_TRUE(plan.nodes()[0].is_spout);
  EXPECT_EQ(plan.nodes()[0].name, "src");
  for (size_t i = 0; i < plan.nodes().size(); i++) {
    EXPECT_EQ(plan.nodes()[i].component_index, i);
  }
  const PlanEdge& first = EdgeBetween(plan, "src", "map");
  EXPECT_EQ(first.grouping.kind, GroupingKind::kShuffle);
  EXPECT_EQ(first.shards, 1u);
  EXPECT_EQ(first.channel, EdgeChannel::kQueued);  // Pass not run yet.
  EXPECT_TRUE(plan.chains().empty());
}

TEST(TopologyPlanTest, FusesThreeStageShuffleChain) {
  TupleSink sink;
  TopologyPlan plan = PlanFor(ThreeStageChain(&sink, 1), FusionOn());

  EXPECT_EQ(plan.fused_edge_count(), 2u);
  ASSERT_EQ(plan.chains().size(), 1u);
  EXPECT_EQ(plan.chains()[0], (std::vector<size_t>{0, 1, 2}));
  for (const PlanEdge& edge : plan.edges()) {
    EXPECT_EQ(edge.channel, EdgeChannel::kFused);
    EXPECT_TRUE(edge.veto.empty());
  }
  EXPECT_NE(plan.ToString().find("FUSED"), std::string::npos);
}

TEST(TopologyPlanTest, DisabledByDefault) {
  TupleSink sink;
  TopologyPlan plan = PlanFor(ThreeStageChain(&sink, 1), FusionOptions{});
  EXPECT_EQ(plan.fused_edge_count(), 0u);
  EXPECT_TRUE(plan.chains().empty());
  for (const PlanEdge& edge : plan.edges()) {
    EXPECT_EQ(edge.veto, "fusion disabled");
  }
}

// Each legality rule refuses with a typed Status and a stamped veto.

TEST(FusionLegalityTest, FieldsGroupedEdgeRefuses) {
  TupleSink sink;
  TopologyBuilder builder;
  builder.AddSpout("src", [] { return MakeCountingSpout(1); });
  builder.AddBolt(
      "agg",
      [&sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(&sink);
      },
      1, {{"src", Grouping::Fields(0)}});
  TopologyPlan plan = PlanFor(builder.Build().value(), FusionOn());

  EXPECT_EQ(plan.fused_edge_count(), 0u);
  const PlanEdge& edge = EdgeBetween(plan, "src", "agg");
  EXPECT_NE(edge.veto.find("fields"), std::string::npos);
  const Status status = TopologyPlan::FusionLegality(
      plan.nodes()[edge.from], plan.nodes()[edge.to], edge, FusionOn());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(FusionLegalityTest, BroadcastEdgeRefuses) {
  TupleSink sink;
  TopologyBuilder builder;
  builder.AddSpout("src", [] { return MakeCountingSpout(1); });
  builder.AddBolt(
      "fan",
      [&sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(&sink);
      },
      1, {{"src", Grouping::Broadcast()}});
  TopologyPlan plan = PlanFor(builder.Build().value(), FusionOn());
  EXPECT_EQ(plan.fused_edge_count(), 0u);
  EXPECT_NE(EdgeBetween(plan, "src", "fan").veto.find("broadcast"),
            std::string::npos);
}

TEST(FusionLegalityTest, MixedParallelismRefuses) {
  TupleSink sink;
  TopologyBuilder builder;
  builder.AddSpout("src", [] { return MakeCountingSpout(1); });
  builder.AddBolt(
      "wide",
      [&sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(&sink);
      },
      4, {{"src", Grouping::Shuffle()}});
  TopologyPlan plan = PlanFor(builder.Build().value(), FusionOn());

  EXPECT_EQ(plan.fused_edge_count(), 0u);
  const PlanEdge& edge = EdgeBetween(plan, "src", "wide");
  EXPECT_NE(edge.veto.find("mismatched parallelism"), std::string::npos);
  const Status status = TopologyPlan::FusionLegality(
      plan.nodes()[edge.from], plan.nodes()[edge.to], edge, FusionOn());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(FusionLegalityTest, GlobalGroupingFusesOnlyAtParallelismOne) {
  TupleSink sink;
  TopologyBuilder builder;
  builder.AddSpout("src", [] { return MakeCountingSpout(1); }, 2);
  builder.AddBolt(
      "gather",
      [&sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(&sink);
      },
      1, {{"src", Grouping::Global()}});
  TopologyPlan plan = PlanFor(builder.Build().value(), FusionOn());
  EXPECT_EQ(plan.fused_edge_count(), 0u);
  EXPECT_NE(EdgeBetween(plan, "src", "gather").veto.find("parallelism 1"),
            std::string::npos);
}

TEST(FusionLegalityTest, FanInAndFanOutRefuse) {
  TupleSink sink;
  TopologyBuilder builder;
  builder.AddSpout("srcA", [] { return MakeCountingSpout(1); });
  builder.AddSpout("srcB", [] { return MakeCountingSpout(1); });
  builder.AddBolt(
      "merge", [] { return MakePassThroughBolt(); }, 1,
      {{"srcA", Grouping::Shuffle()}, {"srcB", Grouping::Shuffle()}});
  builder.AddBolt(
      "left",
      [&sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(&sink);
      },
      1, {{"merge", Grouping::Shuffle()}});
  builder.AddBolt(
      "right",
      [&sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(&sink);
      },
      1, {{"merge", Grouping::Shuffle()}});
  TopologyPlan plan = PlanFor(builder.Build().value(), FusionOn());

  EXPECT_EQ(plan.fused_edge_count(), 0u);
  EXPECT_NE(EdgeBetween(plan, "srcA", "merge").veto.find("fan-in"),
            std::string::npos);
  EXPECT_NE(EdgeBetween(plan, "merge", "left").veto.find("fan-out"),
            std::string::npos);
}

TEST(FusionLegalityTest, MultiplexedModeRefuses) {
  TupleSink sink;
  FusionOptions options = FusionOn();
  options.dedicated_mode = false;
  TopologyPlan plan = PlanFor(ThreeStageChain(&sink, 1), options);
  EXPECT_EQ(plan.fused_edge_count(), 0u);
  EXPECT_NE(EdgeBetween(plan, "src", "map").veto.find("multiplexed"),
            std::string::npos);
}

// Neither a flight recorder nor epoch checkpointing vetoes fusion: a
// recording carries enable_fusion, so its replay routes a fused shuffle
// task i -> task i like the live run, and a barrier crosses a fused edge
// into a consumer that cuts the epoch inline. A parallelism-2 shuffle chain
// fuses end to end under each, run separately here (exactly_once_test
// records runs with both).
TEST(FusionLegalityTest, RecordingAndEpochsVetoNothing) {
  constexpr int64_t kTuples = 500;
  auto run = [](EngineConfig config) {
    TupleSink sink;
    config.enable_fusion = true;
    config.telemetry_sample_interval_ms = 0;
    TopologyEngine engine(ThreeStageChain(&sink, kTuples, 2), config);
    engine.Run();
    EXPECT_EQ(engine.fused_edges(), 2u);
    for (const PlanEdge& edge : engine.plan()->edges()) {
      EXPECT_TRUE(edge.veto.empty()) << edge.veto;
    }
    EXPECT_EQ(sink.Size(), 2u * kTuples);
    return engine.epochs_completed();
  };

  const std::string path = ::testing::TempDir() + "fusion_test_" +
                           std::to_string(::getpid()) + ".slfr";
  TupleSink unused;
  Result<std::unique_ptr<RunRecorder>> recorder = RunRecorder::Create(
      path, EngineConfig{}, ThreeStageChain(&unused, kTuples, 2));
  ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
  EngineConfig recording;
  recording.recorder = recorder.value().get();
  run(recording);
  EXPECT_TRUE(recorder.value()->Finalize().ok());
  std::remove(path.c_str());

  KvCheckpointStore store;
  EngineConfig epochs;
  epochs.checkpoint_store = &store;
  epochs.epoch_interval_tuples = 100;
  EXPECT_EQ(run(epochs), kTuples / 100);
}

// ------------------------------------------------------ engine execution

struct RunOutcome {
  size_t sink_tuples = 0;
  uint64_t completed_roots = 0;
  uint64_t failed_roots = 0;
  size_t fused_edges = 0;
  std::map<std::string, uint64_t> emitted;   // Per component.
  std::map<std::string, uint64_t> executed;  // Per component.
  std::map<uint64_t, FaultSiteStats> site_stats;
  std::array<uint64_t, kNumFaultKinds> injected{};
};

RunOutcome RunChain(int64_t tuples, bool fuse, DeliverySemantics semantics,
                    FaultSpec faults = FaultSpec{}) {
  TupleSink sink;
  EngineConfig config;
  config.semantics = semantics;
  config.enable_fusion = fuse;
  config.seed = 0xfeed;
  config.ack_timeout_seconds = 0.5;  // Fault-hit roots fail fast.
  config.telemetry_sample_interval_ms = 0;
  config.faults = faults;
  TopologyEngine engine(ThreeStageChain(&sink, tuples), config);
  engine.Run();

  RunOutcome outcome;
  outcome.sink_tuples = sink.Size();
  outcome.completed_roots = engine.completed_roots();
  outcome.failed_roots = engine.failed_roots();
  outcome.fused_edges = engine.fused_edges();
  for (size_t i = 0; i < engine.metrics().task_count(); i++) {
    const TaskMetrics& m = engine.metrics().task(i);
    outcome.emitted[m.component()] += m.emitted();
    outcome.executed[m.component()] += m.executed();
  }
  if (engine.fault_plan() != nullptr) {
    outcome.site_stats = engine.fault_plan()->SiteStatsSnapshot();
    outcome.injected = engine.fault_plan()->Snapshot();
  }
  return outcome;
}

TEST(FusedEngineTest, FusedCountsMatchQueuedAtMostOnce) {
  const RunOutcome queued =
      RunChain(5000, /*fuse=*/false, DeliverySemantics::kAtMostOnce);
  const RunOutcome fused =
      RunChain(5000, /*fuse=*/true, DeliverySemantics::kAtMostOnce);

  EXPECT_EQ(queued.fused_edges, 0u);
  EXPECT_EQ(fused.fused_edges, 2u);
  EXPECT_EQ(queued.sink_tuples, 5000u);
  EXPECT_EQ(fused.sink_tuples, 5000u);
  EXPECT_EQ(fused.emitted, queued.emitted);
  EXPECT_EQ(fused.executed, queued.executed);
}

TEST(FusedEngineTest, FusedCountsMatchQueuedAtLeastOnce) {
  const RunOutcome queued =
      RunChain(3000, /*fuse=*/false, DeliverySemantics::kAtLeastOnce);
  const RunOutcome fused =
      RunChain(3000, /*fuse=*/true, DeliverySemantics::kAtLeastOnce);

  EXPECT_EQ(fused.fused_edges, 2u);
  EXPECT_EQ(queued.sink_tuples, 3000u);
  EXPECT_EQ(fused.sink_tuples, 3000u);
  EXPECT_EQ(queued.completed_roots, 3000u);
  EXPECT_EQ(fused.completed_roots, 3000u);
  EXPECT_EQ(queued.failed_roots, 0u);
  EXPECT_EQ(fused.failed_roots, 0u);
  EXPECT_EQ(fused.emitted, queued.emitted);
  EXPECT_EQ(fused.executed, queued.executed);
}

TEST(FusedEngineTest, FieldsTopologyFallsBackCleanly) {
  // enable_fusion on an ineligible topology must be a clean no-op, not an
  // error: the fields tail stays queued and results are untouched.
  TupleSink sink;
  TopologyBuilder builder;
  builder.AddSpout("src", [] { return MakeCountingSpout(2000); });
  builder.AddBolt(
      "map", [] { return MakePassThroughBolt(); }, 1,
      {{"src", Grouping::Shuffle()}});
  builder.AddBolt(
      "shard",
      [&sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(&sink);
      },
      4, {{"map", Grouping::Fields(0)}});
  EngineConfig config;
  config.enable_fusion = true;
  config.telemetry_sample_interval_ms = 0;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  // src->map fuses (partial chain); map->shard stays queued for routing.
  EXPECT_EQ(engine.fused_edges(), 1u);
  ASSERT_NE(engine.plan(), nullptr);
  EXPECT_NE(EdgeBetween(*engine.plan(), "map", "shard").veto.find("fields"),
            std::string::npos);
  EXPECT_EQ(sink.Size(), 2000u);
}

// The Figure-1 job's shape (e2ebench): events x1 -> parse x1 (shuffle),
// then parse -> trend x2 (fields) and parse -> sink x1 (global). The
// default config fuses exactly events -> parse: the fields edge needs hash
// routing, and parse's two subscriptions are a fan-out.
TEST(FusedEngineTest, DefaultConfigFusesOnlySpoutToParse) {
  constexpr int64_t kRecords = 3000;
  TupleSink trend_sink;
  TupleSink lambda_sink;
  TopologyBuilder builder;
  builder.AddSpout("events", [] { return MakeCountingSpout(kRecords); });
  builder.AddBolt(
      "parse", [] { return MakePassThroughBolt(); }, 1,
      {{"events", Grouping::Shuffle()}});
  builder.AddBolt(
      "trend",
      [&trend_sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(&trend_sink);
      },
      2, {{"parse", Grouping::Fields(0)}});
  builder.AddBolt(
      "sink",
      [&lambda_sink]() -> std::unique_ptr<Bolt> {
        return std::make_unique<SinkBolt>(&lambda_sink);
      },
      1, {{"parse", Grouping::Global()}});
  EngineConfig config;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  EXPECT_EQ(engine.fused_edges(), 1u);
  ASSERT_NE(engine.plan(), nullptr);
  const TopologyPlan& plan = *engine.plan();
  EXPECT_EQ(EdgeBetween(plan, "events", "parse").channel, EdgeChannel::kFused);
  EXPECT_NE(EdgeBetween(plan, "parse", "trend").veto.find("fields grouping"),
            std::string::npos);
  EXPECT_NE(EdgeBetween(plan, "parse", "sink").veto.find("fan-out"),
            std::string::npos);
  EXPECT_EQ(engine.completed_roots(), static_cast<uint64_t>(kRecords));
  EXPECT_EQ(engine.failed_roots(), 0u);
  EXPECT_EQ(trend_sink.Size(), static_cast<size_t>(kRecords));
  EXPECT_EQ(lambda_sink.Size(), static_cast<size_t>(kRecords));
}

// -------------------------------------------- fault-schedule equality

TEST(FusedFaultScheduleTest, FusedChainDrawsIdenticalScheduleToQueued) {
  // The same-seed => same-schedule contract, extended across compilation
  // modes: with the same seed, every fault site must consult its PRNG the
  // same number of times and fire the same draws whether the chain runs
  // fused or queued.
  FaultSpec faults;
  faults.seed = 0xabcde;
  faults.drop_tuple_prob = 0.05;
  faults.duplicate_tuple_prob = 0.05;
  faults.delay_delivery_prob = 0.02;
  faults.delay_max_micros = 1;
  faults.bolt_throw_prob = 0.03;

  const RunOutcome queued =
      RunChain(1500, /*fuse=*/false, DeliverySemantics::kAtLeastOnce, faults);
  const RunOutcome fused =
      RunChain(1500, /*fuse=*/true, DeliverySemantics::kAtLeastOnce, faults);

  ASSERT_FALSE(queued.site_stats.empty());
  EXPECT_EQ(fused.site_stats, queued.site_stats);
  EXPECT_EQ(fused.injected, queued.injected);
  // Identical schedules resolve identical root fates.
  EXPECT_EQ(fused.completed_roots, queued.completed_roots);
  EXPECT_EQ(fused.failed_roots, queued.failed_roots);

  // Second mix: acker loss and queue stalls too. A fused hop runs through
  // the same stage runner as a queued delivery, so it draws both exactly
  // where the queued consumer does.
  FaultSpec more = faults;
  more.acker_loss_prob = 0.03;
  more.queue_stall_prob = 0.03;
  more.queue_stall_micros = 1;
  const RunOutcome queued_more =
      RunChain(1500, /*fuse=*/false, DeliverySemantics::kAtLeastOnce, more);
  const RunOutcome fused_more =
      RunChain(1500, /*fuse=*/true, DeliverySemantics::kAtLeastOnce, more);
  EXPECT_EQ(fused_more.fused_edges, 2u);
  for (FaultKind kind : {FaultKind::kAckerEventLoss, FaultKind::kQueueStall}) {
    EXPECT_GT(queued_more.injected[static_cast<size_t>(kind)], 0u)
        << FaultKindName(kind);
  }
  EXPECT_EQ(fused_more.site_stats, queued_more.site_stats);
  EXPECT_EQ(fused_more.injected, queued_more.injected);
  EXPECT_EQ(fused_more.completed_roots, queued_more.completed_roots);
  EXPECT_EQ(fused_more.failed_roots, queued_more.failed_roots);

  // Third mix: task crashes too. A crash loses only its own message's ack
  // and restarts the bolt for the next message, whether that comes later
  // in a popped batch or over a fused edge, and each task spends its own
  // crash budget, so the consumer sites draw alike.
  FaultSpec crashes = more;
  crashes.task_crash_prob = 0.01;
  const RunOutcome queued_crash =
      RunChain(1500, /*fuse=*/false, DeliverySemantics::kAtLeastOnce, crashes);
  const RunOutcome fused_crash =
      RunChain(1500, /*fuse=*/true, DeliverySemantics::kAtLeastOnce, crashes);
  EXPECT_GT(queued_crash.injected[static_cast<size_t>(FaultKind::kTaskCrash)],
            0u);
  EXPECT_EQ(fused_crash.site_stats, queued_crash.site_stats);
  EXPECT_EQ(fused_crash.injected, queued_crash.injected);
  EXPECT_EQ(fused_crash.completed_roots, queued_crash.completed_roots);
  EXPECT_EQ(fused_crash.failed_roots, queued_crash.failed_roots);
}

// ------------------------------------ one blast radius, any batching

/// Pure accumulator that opts into the batched execute path. It spins
/// about 2 us per tuple, so its producer keeps the queue full and pops
/// return full batches, and it folds every value it executed into a sum
/// shared across crash restarts.
class BatchAccumBolt : public Bolt {
 public:
  explicit BatchAccumBolt(std::shared_ptr<std::atomic<int64_t>> sum)
      : sum_(std::move(sum)) {}
  void Execute(const Tuple& input, OutputCollector*) override {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(2);
    while (std::chrono::steady_clock::now() < until) {
    }
    sum_->fetch_add(input.Int(1), std::memory_order_relaxed);
  }
  bool BatchCapable() const override { return true; }

 private:
  std::shared_ptr<std::atomic<int64_t>> sum_;
};

TEST(FusedFaultScheduleTest, BatchedExecuteDrawsPerMessageLikeScalar) {
  // A fault takes only its own message, whatever batch it was popped in:
  // under every executor fault, a queued consumer draws and accumulates
  // the same at execute_batch_size 1 and at the default, with the batch
  // path on and off.
  struct Outcome {
    std::map<uint64_t, FaultSiteStats> site_stats;
    std::array<uint64_t, kNumFaultKinds> injected{};
    int64_t sum = 0;
  };
  auto run = [](size_t execute_batch_size, bool batched) {
    auto sum = std::make_shared<std::atomic<int64_t>>(0);
    TopologyBuilder builder;
    builder.AddSpout("src", [] { return MakeCountingSpout(4000); });
    builder.AddBolt(
        "accum", [sum]() -> std::unique_ptr<Bolt> {
          return std::make_unique<BatchAccumBolt>(sum);
        },
        1, {{"src", Grouping::Shuffle()}});
    EngineConfig config;
    config.semantics = DeliverySemantics::kAtLeastOnce;
    config.enable_fusion = false;  // Batches come from queue pops.
    config.execute_batch_size = execute_batch_size;
    config.enable_bolt_batch = batched;
    config.ack_timeout_seconds = 0.2;  // Fault-hit roots fail fast.
    config.telemetry_sample_interval_ms = 0;
    config.faults.seed = 0x77;
    config.faults.bolt_throw_prob = 0.02;
    config.faults.task_crash_prob = 0.02;
    // Many crashes, so that many land mid-batch; about 80 draws hit, so
    // the budget still binds.
    config.faults.max_task_crashes = 16;
    config.faults.acker_loss_prob = 0.02;
    config.faults.queue_stall_prob = 0.02;
    config.faults.queue_stall_micros = 1;
    TopologyEngine engine(builder.Build().value(), config);
    engine.Run();
    return Outcome{engine.fault_plan()->SiteStatsSnapshot(),
                   engine.fault_plan()->Snapshot(), sum->load()};
  };

  const Outcome scalar = run(1, /*batched=*/false);
  for (const FaultKind kind :
       {FaultKind::kBoltThrow, FaultKind::kTaskCrash,
        FaultKind::kAckerEventLoss, FaultKind::kQueueStall}) {
    EXPECT_GT(scalar.injected[static_cast<size_t>(kind)], 0u)
        << FaultKindName(kind);
  }
  for (const size_t size : {size_t{1}, EngineConfig{}.execute_batch_size}) {
    for (const bool batched : {false, true}) {
      SCOPED_TRACE("execute_batch_size " + std::to_string(size) +
                   (batched ? ", batch path on" : ", batch path off"));
      const Outcome outcome = run(size, batched);
      EXPECT_EQ(outcome.site_stats, scalar.site_stats);
      EXPECT_EQ(outcome.injected, scalar.injected);
      EXPECT_EQ(outcome.sum, scalar.sum);
    }
  }
}

// ------------------------------------------- deterministic clock timeout

TEST(ManualClockTest, AdvancesOnlyWhenDriven) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowNanos(), 100u);
  clock.AdvanceNanos(50);
  EXPECT_EQ(clock.NowNanos(), 150u);
  EXPECT_EQ(clock.PeekNanos(), 150u);

  ManualClock auto_clock(0, 10);
  EXPECT_EQ(auto_clock.NowNanos(), 10u);
  EXPECT_EQ(auto_clock.NowNanos(), 20u);
  EXPECT_EQ(auto_clock.PeekNanos(), 20u);
}

TEST(ManualClockTest, AlignmentTimeoutFiresDeterministically) {
  // The epoch-alignment timeout used to depend on raw wall time: a loaded
  // host could starve or spuriously trip it. With an injected ManualClock
  // the whole scenario is virtual-time-deterministic: srcB emits nothing,
  // so the sink's alignment on srcA's barriers can never complete and
  // MUST force-advance — every run, with zero real-time sleeps. Each
  // engine-internal deadline check costs 50 virtual ms, so the 2 s
  // timeout trips after ~40 checks no matter how slow the host is.
  ManualClock clock(uint64_t{1} << 30, /*advance_per_read_nanos=*/50'000'000);
  const uint64_t start = clock.PeekNanos();

  auto delivered = std::make_shared<std::atomic<uint64_t>>(0);
  TopologyBuilder builder;
  builder.AddSpout("srcA", [] { return MakeCountingSpout(200); });
  builder.AddSpout("srcB", [] {
    return std::make_unique<GeneratorSpout>(
        []() -> std::optional<Tuple> { return std::nullopt; });
  });
  builder.AddBolt(
      "sink",
      [delivered]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [delivered](const Tuple&, OutputCollector*) {
              delivered->fetch_add(1, std::memory_order_relaxed);
            });
      },
      1, {{"srcA", Grouping::Global()}, {"srcB", Grouping::Global()}});

  KvCheckpointStore store;
  EngineConfig config;
  config.checkpoint_store = &store;
  config.epoch_interval_tuples = 50;
  config.epoch_align_timeout_seconds = 2.0;
  config.clock = &clock;
  config.latency_sample_every = 0;  // No latency stamps off virtual time.
  config.telemetry_sample_interval_ms = 0;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  EXPECT_EQ(delivered->load(), 200u) << "force-advance lost data";
  EXPECT_GT(engine.epoch_timeouts(), 0u) << "virtual clock never tripped";
  // srcB never barriers, so no epoch can ever complete.
  EXPECT_EQ(engine.epochs_completed(), 0u);
  EXPECT_GT(clock.PeekNanos(), start) << "engine never read the clock";
}

}  // namespace
}  // namespace streamlib::platform
