// Chaos verification suite for the deterministic fault injector: seeded
// replay of fault schedules, at-least-once delivery under drops/dups/
// throws/crashes, exactly-once *state* via checkpoint-then-ack across an
// injected crash-restart, checkpoint restore-path edge cases, and the
// fault counters' telemetry surface.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaos_util.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/state.h"
#include "core/frequency/count_min_sketch.h"
#include "platform/checkpoint.h"
#include "platform/clock.h"
#include "platform/components.h"
#include "platform/engine.h"
#include "platform/epoch.h"
#include "platform/fault.h"
#include "platform/stream_operators.h"
#include "platform/topology.h"
#include "test_seed.h"

namespace streamlib::platform {
namespace {

// ------------------------------------------------------ config validation

TEST(EngineConfigValidationTest, RejectsNonPositiveAckTimeout) {
  // The timeout knob must be sane under *both* semantics — a bad value
  // must not hide behind at-most-once mode.
  for (const DeliverySemantics semantics :
       {DeliverySemantics::kAtMostOnce, DeliverySemantics::kAtLeastOnce}) {
    EngineConfig config;
    config.semantics = semantics;
    config.ack_timeout_seconds = 0.0;
    EXPECT_FALSE(config.Validate().ok());
    config.ack_timeout_seconds = -1.5;
    EXPECT_FALSE(config.Validate().ok());
    config.ack_timeout_seconds = std::nan("");
    EXPECT_FALSE(config.Validate().ok());
    // Finite, but its nanosecond count overflows a uint64_t.
    config.ack_timeout_seconds = 1e11;
    EXPECT_FALSE(config.Validate().ok());
    config.ack_timeout_seconds = 5.0;
    EXPECT_TRUE(config.Validate().ok());
  }
}

// Both batch sizes are allocations (staging buffers and pop batches
// reserve them), so a size past the cap must fail validation rather than
// the run.
TEST(EngineConfigValidationTest, RejectsBatchSizesAboveTheCap) {
  const std::pair<size_t EngineConfig::*, size_t> fields[] = {
      {&EngineConfig::emit_batch_size, size_t{1} << 16},
      {&EngineConfig::execute_batch_size, size_t{1} << 16},
      {&EngineConfig::queue_capacity, size_t{1} << 20},
  };
  for (const auto& [field, cap] : fields) {
    EngineConfig config;
    config.*field = size_t{1} << 62;
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
    config.*field = SIZE_MAX;
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
    config.*field = cap + 1;
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
    config.*field = cap;
    EXPECT_TRUE(config.Validate().ok());
  }
}

TEST(EngineConfigValidationDeathTest, RunAbortsOnNonPositiveAckTimeout) {
  TopologyBuilder builder;
  builder.AddSpout("src", []() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        []() -> std::optional<Tuple> { return std::nullopt; });
  });
  EngineConfig config;
  config.ack_timeout_seconds = 0.0;
  TopologyEngine engine(builder.Build().value(), config);
  EXPECT_DEATH(engine.Run(), "ack_timeout_seconds");
}

TEST(FaultSpecValidationTest, RejectsOutOfRangeProbabilities) {
  FaultSpec spec;
  EXPECT_TRUE(spec.Validate().ok());
  EXPECT_FALSE(spec.Enabled());  // All-zero default: injection off.

  spec.drop_tuple_prob = 1.5;
  EXPECT_FALSE(spec.Validate().ok());
  spec.drop_tuple_prob = -0.1;
  EXPECT_FALSE(spec.Validate().ok());
  spec.drop_tuple_prob = std::nan("");
  EXPECT_FALSE(spec.Validate().ok());
  spec.drop_tuple_prob = 0.5;
  EXPECT_TRUE(spec.Validate().ok());
  EXPECT_TRUE(spec.Enabled());
}

// --------------------------------------------------- deterministic replay

struct ChaosRunResult {
  std::array<uint64_t, kNumFaultKinds> injected{};
  uint64_t total_injected = 0;
  uint64_t sink_count = 0;
};

/// One at-most-once chain run (src -> relay -> sink, parallelism 1) under
/// `spec`, fused end to end unless `enable_fusion` is false. With one task
/// per component every injection site is consulted a deterministic number
/// of times — no acker, no replays, no timeout races — so two runs with the
/// same spec must produce identical fault schedules.
ChaosRunResult RunAtMostOnceChain(const FaultSpec& spec, uint64_t n,
                                  ExecutionMode mode,
                                  bool enable_fusion = true) {
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  auto sunk = std::make_shared<std::atomic<uint64_t>>(0);
  TopologyBuilder builder;
  builder.AddSpout("src", [counter, n]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter, n]() -> std::optional<Tuple> {
          const uint64_t i = counter->fetch_add(1);
          if (i >= n) return std::nullopt;
          return Tuple::Of(static_cast<int64_t>(i));
        });
  });
  builder.AddBolt(
      "relay",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& t, OutputCollector* out) { out->Emit(t); });
      },
      1, {{"src", Grouping::Shuffle()}});
  builder.AddBolt(
      "sink",
      [sunk]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [sunk](const Tuple&, OutputCollector*) {
              sunk->fetch_add(1, std::memory_order_relaxed);
            });
      },
      1, {{"relay", Grouping::Global()}});

  EngineConfig config;
  config.mode = mode;
  config.semantics = DeliverySemantics::kAtMostOnce;
  config.enable_fusion = enable_fusion;
  config.faults = spec;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  ChaosRunResult result;
  result.injected = engine.fault_plan()->Snapshot();
  result.total_injected = engine.fault_plan()->total_injected();
  result.sink_count = sunk->load();
  return result;
}

TEST(FaultDeterminismTest, SeededReplayProducesIdenticalFaultSchedule) {
  FaultSpec spec;
  spec.seed = TestSeed() ^ 0xfa17;
  spec.drop_tuple_prob = 0.02;
  spec.duplicate_tuple_prob = 0.02;
  spec.delay_delivery_prob = 0.005;
  spec.delay_max_micros = 30;
  spec.bolt_throw_prob = 0.01;
  spec.queue_stall_prob = 0.01;
  spec.queue_stall_micros = 30;
  // A crash takes only its own message's ack, and each task spends its
  // own crash budget, so crash draws are schedule-free too.
  spec.task_crash_prob = 0.005;

  // Fused end to end, and queued, where the consumers pop timing-dependent
  // batches.
  for (const bool fused : {true, false}) {
    SCOPED_TRACE(fused ? "fused" : "queued");
    const ChaosRunResult a =
        RunAtMostOnceChain(spec, 4000, ExecutionMode::kDedicated, fused);
    const ChaosRunResult b =
        RunAtMostOnceChain(spec, 4000, ExecutionMode::kDedicated, fused);

    EXPECT_GT(a.total_injected, 0u);
    for (const FaultKind kind :
         {FaultKind::kDropTuple, FaultKind::kDuplicateTuple,
          FaultKind::kBoltThrow, FaultKind::kQueueStall,
          FaultKind::kTaskCrash}) {
      EXPECT_GT(a.injected[static_cast<size_t>(kind)], 0u)
          << FaultKindName(kind);
    }
    for (size_t k = 0; k < kNumFaultKinds; k++) {
      EXPECT_EQ(a.injected[k], b.injected[k])
          << FaultKindName(static_cast<FaultKind>(k));
    }
    EXPECT_EQ(a.sink_count, b.sink_count);
    // And a different seed must produce a different schedule
    // (astronomically unlikely to collide across five active sites).
    FaultSpec other = spec;
    other.seed = spec.seed + 1;
    const ChaosRunResult c =
        RunAtMostOnceChain(other, 4000, ExecutionMode::kDedicated, fused);
    EXPECT_NE(a.injected, c.injected);
  }
}

/// One at-least-once src -> map -> sink run (parallelism 1, shuffle edges)
/// under `spec`: the resolved root counts, the sink's deliveries, and every
/// site's draw statistics.
struct TrackedChainResult {
  uint64_t completed_roots = 0;
  uint64_t failed_roots = 0;
  uint64_t sink_count = 0;
  std::map<uint64_t, FaultSiteStats> site_stats;
};

TrackedChainResult RunAtLeastOnceChain(const FaultSpec& spec, int64_t n) {
  auto sunk = std::make_shared<std::atomic<uint64_t>>(0);
  TopologyBuilder builder;
  builder.AddSpout("src", [n]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [n, i = int64_t{0}]() mutable -> std::optional<Tuple> {
          if (i >= n) return std::nullopt;
          return Tuple::Of(i++);
        });
  });
  builder.AddBolt(
      "map",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& t, OutputCollector* out) { out->Emit(t); });
      },
      1, {{"src", Grouping::Shuffle()}});
  builder.AddBolt(
      "sink",
      [sunk]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [sunk](const Tuple&, OutputCollector*) {
              sunk->fetch_add(1, std::memory_order_relaxed);
            });
      },
      1, {{"map", Grouping::Shuffle()}});

  EngineConfig config;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  config.ack_timeout_seconds = 0.5;  // Fault-hit roots fail fast.
  config.telemetry_sample_interval_ms = 0;
  config.faults = spec;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  TrackedChainResult result;
  result.completed_roots = engine.completed_roots();
  result.failed_roots = engine.failed_roots();
  result.sink_count = sunk->load();
  result.site_stats = engine.fault_plan()->SiteStatsSnapshot();
  return result;
}

TEST(FaultDeterminismTest, SameSeedAtLeastOnceRunsResolveIdenticalRoots) {
  // Every site draws the same schedule in every same-seed run, so every
  // root keeps the same set of uncleared edge ids and must resolve the same
  // way. With small sequential edge ids, three uncleared ids could XOR to
  // zero (1 ^ 2 ^ 3 == 0) and ack a root that lost a tuple — which ids a
  // root got depended on thread interleaving, so the counts wandered.
  FaultSpec spec;
  spec.seed = TestSeed() ^ 0x1d5;
  spec.drop_tuple_prob = 0.05;
  spec.duplicate_tuple_prob = 0.05;
  spec.delay_delivery_prob = 0.02;
  spec.delay_max_micros = 1;
  spec.bolt_throw_prob = 0.03;
  spec.acker_loss_prob = 0.03;
  spec.queue_stall_prob = 0.03;
  spec.queue_stall_micros = 1;

  const TrackedChainResult first = RunAtLeastOnceChain(spec, 1500);
  EXPECT_GT(first.completed_roots, 0u);
  EXPECT_GT(first.failed_roots, 0u);
  EXPECT_EQ(first.completed_roots + first.failed_roots, 1500u);
  for (int run = 1; run < 10; run++) {
    SCOPED_TRACE("run " + std::to_string(run));
    const TrackedChainResult again = RunAtLeastOnceChain(spec, 1500);
    EXPECT_EQ(again.site_stats, first.site_stats);
    EXPECT_EQ(again.completed_roots, first.completed_roots);
    EXPECT_EQ(again.failed_roots, first.failed_roots);
    EXPECT_EQ(again.sink_count, first.sink_count);
  }
}

// ------------------------------------------- at-least-once under chaos mix

/// The acceptance mix: drops, duplicates, bolt throws, acker losses, and a
/// one-crash budget, against a replaying spout. Returns the per-payload
/// delivery counts observed by the (dedup-free) sink.
void RunAtLeastOnceChaos(ExecutionMode mode, uint64_t seed_salt) {
  constexpr int64_t kN = 250;
  auto state = std::make_shared<ReplayState>(kN);
  auto delivered = std::make_shared<std::atomic<uint64_t>>(0);

  TopologyBuilder builder;
  builder.AddSpout("src", [state]() -> std::unique_ptr<Spout> {
    return std::make_unique<ReplaySpout>(state);
  });
  builder.AddBolt(
      "relay",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& t, OutputCollector* out) { out->Emit(t); });
      },
      2, {{"src", Grouping::Shuffle()}});
  builder.AddBolt(
      "sink",
      [delivered]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [delivered](const Tuple&, OutputCollector*) {
              delivered->fetch_add(1, std::memory_order_relaxed);
            });
      },
      2, {{"relay", Grouping::Fields(0)}});

  EngineConfig config;
  config.mode = mode;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  config.ack_timeout_seconds = 0.15;  // Fast replay rounds.
  config.faults.seed = TestSeed() ^ seed_salt;
  config.faults.drop_tuple_prob = 0.01;
  config.faults.duplicate_tuple_prob = 0.01;
  config.faults.bolt_throw_prob = 0.005;
  config.faults.task_crash_prob = 0.02;
  config.faults.max_task_crashes = 1;
  config.faults.acker_loss_prob = 0.005;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  // Termination alone proves no root was lost forever (the spout only ends
  // the stream once every payload is acked); now check the books.
  EXPECT_EQ(state->acked, static_cast<uint64_t>(kN));
  EXPECT_TRUE(state->pending.empty());
  EXPECT_TRUE(state->inflight.empty());
  EXPECT_EQ(engine.completed_roots(), state->acked);
  EXPECT_EQ(engine.failed_roots(), state->failed);
  // Every payload reached the sink at least once; with injected drops and
  // replays the total can exceed kN but can never fall short.
  EXPECT_GE(delivered->load(), static_cast<uint64_t>(kN));
  EXPECT_GT(engine.fault_plan()->total_injected(), 0u);
}

TEST(ChaosMixTest, AtLeastOnceNeverLosesRootsDedicated) {
  RunAtLeastOnceChaos(ExecutionMode::kDedicated, 0xa110);
}

TEST(ChaosMixTest, AtLeastOnceNeverLosesRootsMultiplexed) {
  RunAtLeastOnceChaos(ExecutionMode::kMultiplexed, 0xa111);
}

TEST(ChaosMixTest, AtMostOnceChaosTerminatesAndNeverDoubleCounts) {
  // At-most-once under a no-duplication mix: faults may lose tuples but
  // the engine must drain cleanly and the sink must never see a tuple
  // twice (count bounded above by emissions, below by emissions minus
  // everything droppable).
  FaultSpec spec;
  spec.seed = TestSeed() ^ 0xa105;
  spec.drop_tuple_prob = 0.05;
  spec.bolt_throw_prob = 0.02;
  spec.queue_stall_prob = 0.01;
  spec.queue_stall_micros = 50;
  spec.task_crash_prob = 0.01;
  spec.max_task_crashes = 2;
  for (const ExecutionMode mode :
       {ExecutionMode::kDedicated, ExecutionMode::kMultiplexed}) {
    const ChaosRunResult r = RunAtMostOnceChain(spec, 4000, mode);
    EXPECT_LE(r.sink_count, 4000u);
    EXPECT_GT(r.total_injected, 0u);
  }
}

// ----------------------------------- exactly-once state across a crash

TEST(CrashRestoreTest, CheckpointRestoreReproducesExactOperatorState) {
  // src -> count(1 task, checkpoint-then-ack + dedup). The injected crash
  // fires between an Execute (state already checkpointed) and its ack —
  // the torn window — so the root replays into restored state and the
  // ledger must absorb the redelivery. Ground truth: every payload counted
  // exactly once, crash or no crash, duplicates or not.
  constexpr int64_t kN = 200;
  auto state = std::make_shared<ReplayState>(kN);
  KvCheckpointStore store;

  TopologyBuilder builder;
  builder.AddSpout("src", [state]() -> std::unique_ptr<Spout> {
    return std::make_unique<ReplaySpout>(state);
  });
  builder.AddBolt(
      "count",
      [&store]() -> std::unique_ptr<Bolt> {
        return std::make_unique<CheckpointedCountBolt>(&store, "count");
      },
      1, {{"src", Grouping::Global()}});

  EngineConfig config;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  config.ack_timeout_seconds = 0.15;
  config.faults.seed = TestSeed() ^ 0xc4a5;
  config.faults.duplicate_tuple_prob = 0.02;
  config.faults.task_crash_prob = 0.1;
  config.faults.max_task_crashes = 1;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  // The crash all but surely fired (p_miss = 0.9^200 ~ 7e-10); assert so
  // the test can't silently pass without exercising restore.
  ASSERT_EQ(engine.fault_plan()->injected(FaultKind::kTaskCrash), 1u);
  EXPECT_EQ(state->acked, static_cast<uint64_t>(kN));

  // The store's final checkpoint *is* the operator state an independent
  // restore would see; decode it and compare against ground truth.
  Result<std::vector<uint8_t>> bytes = store.Fetch("count:0");
  ASSERT_TRUE(bytes.ok());
  const auto counts = CheckpointedCountBolt::DecodeCounts(bytes.value());
  ASSERT_EQ(counts.size(), static_cast<size_t>(kN));
  for (int64_t i = 0; i < kN; i++) {
    auto it = counts.find(i);
    ASSERT_NE(it, counts.end()) << "payload " << i << " lost";
    EXPECT_EQ(it->second, 1u) << "payload " << i << " double-counted";
  }
}

// ------------------------------- sketch checkpoints across a crash

TEST(CrashRestoreTest, SketchCheckpointRestoresAcrossCrashUnderChaos) {
  // src -> SketchBolt<CountMinSketch> carrying a batched update fn and a
  // small-cadence SketchCheckpoint. The checkpoint threshold is evaluated
  // only after an update call fully applies, so every blob the store sees
  // is a whole sketch. Under chaos every message takes the stage runner,
  // and the injected crash must restore from such a blob and finish the
  // stream; duplicates and drops run alongside to interleave replays with
  // the snapshot cadence. Fault-free, the bolt takes whole transport
  // batches through one ExecuteBatch call, and its last checkpoint holds
  // every payload exactly once.
  constexpr int64_t kN = 400;
  for (const bool chaos : {true, false}) {
    SCOPED_TRACE(chaos ? "chaos" : "fault-free, batched");
    auto state = std::make_shared<ReplayState>(kN);
    KvCheckpointStore store;

    TopologyBuilder builder;
    builder.AddSpout("src", [state]() -> std::unique_ptr<Spout> {
      return std::make_unique<ReplaySpout>(state);
    });
    builder.AddBolt(
        "cms",
        [&store]() -> std::unique_ptr<Bolt> {
          SketchCheckpoint checkpoint;
          checkpoint.store = &store;
          checkpoint.key_prefix = "cms";
          checkpoint.every = 32;  // Many snapshots interleaved with batches.
          return std::make_unique<SketchBolt<CountMinSketch>>(
              CountMinSketch(512, 4),
              [](CountMinSketch& sketch, const Tuple& t) {
                sketch.Add(static_cast<uint64_t>(t.Int(0)));
              },
              FieldKeyBatchUpdate<CountMinSketch>(0), checkpoint);
        },
        1, {{"src", Grouping::Global()}});

    EngineConfig config;
    config.semantics = DeliverySemantics::kAtLeastOnce;
    config.enable_bolt_batch = true;
    if (chaos) {
      config.ack_timeout_seconds = 0.15;
      config.faults.seed = TestSeed() ^ 0xbeef;
      config.faults.drop_tuple_prob = 0.01;
      config.faults.duplicate_tuple_prob = 0.02;
      // One crash draw per delivered message: the crash fires within the
      // first few deliveries.
      config.faults.task_crash_prob = 0.5;
      config.faults.max_task_crashes = 1;
    }
    TopologyEngine engine(builder.Build().value(), config);
    engine.Run();

    // At-least-once: every payload eventually acked, crash or not.
    EXPECT_EQ(state->acked, static_cast<uint64_t>(kN));

    // The final checkpoint must be a decodable v2 SketchBlob — the exact
    // bytes an independent restart would restore.
    Result<std::vector<uint8_t>> bytes = store.Fetch("cms:0");
    ASSERT_TRUE(bytes.ok());
    Result<CountMinSketch> restored =
        state::FromBlob<CountMinSketch>(bytes.value());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    const uint64_t total = restored.value().total_count();
    if (!chaos) {
      EXPECT_EQ(engine.fault_plan(), nullptr);
      EXPECT_EQ(total, static_cast<uint64_t>(kN));
      continue;
    }
    // The crash all but surely fired; without it the restore path goes
    // untested.
    ASSERT_EQ(engine.fault_plan()->injected(FaultKind::kTaskCrash), 1u);
    // Sketch-checkpoint semantics: updates between the last Put and the
    // crash are lost, replays may double-add — the count is approximate
    // but must stay within the only-bounded-staleness envelope: nonzero,
    // and no more than one full delivery per payload plus injected
    // duplicates.
    EXPECT_GT(total, 0u);
    EXPECT_LE(total, static_cast<uint64_t>(kN) + state->emitted);
  }
}

// -------------------------------------------- ack-timeout replay (no dup)

TEST(AckTimeoutReplayTest, DroppedTupleFailsThenReplaysToFullAck) {
  // Drops only: a root whose delivery was dropped can resolve only via
  // ack-timeout -> OnFail -> spout re-emission. Termination requires that
  // whole path to work.
  //
  // The engine runs on a ManualClock, and the test advances it past the
  // ack timeout only while every in-flight root is a dropped one — so no
  // healthy root can ever time out and double-deliver, however slow the
  // host.
  constexpr int64_t kN = 100;
  auto state = std::make_shared<ReplayState>(kN);
  auto delivered = std::make_shared<std::atomic<uint64_t>>(0);

  TopologyBuilder builder;
  builder.AddSpout("src", [state]() -> std::unique_ptr<Spout> {
    return std::make_unique<ReplaySpout>(state);
  });
  builder.AddBolt(
      "sink",
      [delivered]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [delivered](const Tuple&, OutputCollector*) {
              delivered->fetch_add(1, std::memory_order_relaxed);
            });
      },
      1, {{"src", Grouping::Global()}});

  ManualClock clock(uint64_t{1} << 30);
  EngineConfig config;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  config.ack_timeout_seconds = 0.1;
  config.clock = &clock;
  config.faults.seed = TestSeed() ^ 0xd409;
  config.faults.drop_tuple_prob = 0.05;
  TopologyEngine engine(builder.Build().value(), config);
  std::atomic<bool> finished{false};
  std::thread runner([&] {
    engine.Run();
    finished.store(true, std::memory_order_release);
  });

  while (!finished.load(std::memory_order_acquire)) {
    bool only_dropped_in_flight = false;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      // Every payload is accounted for (none is between the spout's pop
      // and its in-flight insert), nothing waits to be emitted, and the
      // in-flight roots are exactly the stranded ones: each root has one
      // delivery, each drop strands one root, and each failure resolved
      // one. The first emission orders this read of the fault plan after
      // the engine built it.
      if (state->emitted > 0 && state->pending.empty() &&
          state->inflight.size() + state->acked == static_cast<size_t>(kN)) {
        const uint64_t drops =
            engine.fault_plan()->injected(FaultKind::kDropTuple);
        only_dropped_in_flight =
            !state->inflight.empty() &&
            state->inflight.size() == drops - state->failed;
      }
    }
    if (only_dropped_in_flight) clock.AdvanceNanos(200'000'000);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runner.join();

  const uint64_t drops =
      engine.fault_plan()->injected(FaultKind::kDropTuple);
  EXPECT_GT(drops, 0u);          // The fault actually fired...
  EXPECT_GT(state->failed, 0u);  // ...and OnFail replay was exercised.
  EXPECT_EQ(state->acked, static_cast<uint64_t>(kN));
  EXPECT_EQ(delivered->load(), static_cast<uint64_t>(kN));
  EXPECT_EQ(engine.failed_roots(), state->failed);
}

// ----------------------------------------- checkpoint restore edge cases

TEST(CheckpointRestoreEdgeTest, EmptyStoreRoundTripsThroughFile) {
  const std::string path = ::testing::TempDir() + "empty_ckpt.bin";
  KvCheckpointStore empty;
  ASSERT_TRUE(empty.SaveToFile(path).ok());
  KvCheckpointStore restored;
  restored.Put("stale", {1, 2, 3});  // Load must replace, not merge.
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  EXPECT_EQ(restored.NumKeys(), 0u);
  std::remove(path.c_str());
}

TEST(CheckpointRestoreEdgeTest, PopulatedStoreRoundTripsThroughFile) {
  const std::string path = ::testing::TempDir() + "full_ckpt.bin";
  KvCheckpointStore store;
  store.Put("a", {1, 2, 3});
  store.Put("a", {4, 5});  // Version 2 — versions must survive the trip.
  store.Put("b", {});      // Empty state is valid state.
  ASSERT_TRUE(store.SaveToFile(path).ok());

  KvCheckpointStore restored;
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  EXPECT_EQ(restored.NumKeys(), 2u);
  EXPECT_EQ(restored.Get("a").value(), (std::vector<uint8_t>{4, 5}));
  EXPECT_EQ(restored.VersionOf("a"), 2u);
  EXPECT_EQ(restored.Get("b").value(), std::vector<uint8_t>{});
  std::remove(path.c_str());
}

TEST(CheckpointRestoreEdgeTest, TornFileIsRejectedAndStoreUntouched) {
  const std::string path = ::testing::TempDir() + "torn_ckpt.bin";
  KvCheckpointStore store;
  std::vector<uint8_t> blob(64);
  for (size_t i = 0; i < blob.size(); i++) {
    blob[i] = static_cast<uint8_t>(i);
  }
  store.Put("state", blob);
  ASSERT_TRUE(store.SaveToFile(path).ok());

  // Truncate at every prefix length; no prefix except the full file may
  // load, and a failed load must leave existing contents intact.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<uint8_t> full;
  uint8_t buf[512];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    full.insert(full.end(), buf, buf + n);
  }
  std::fclose(f);

  const std::string torn = ::testing::TempDir() + "torn_ckpt_cut.bin";
  for (size_t cut = 0; cut < full.size(); cut += 7) {
    std::FILE* out = std::fopen(torn.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fwrite(full.data(), 1, cut, out);
    std::fclose(out);
    KvCheckpointStore victim;
    victim.Put("keep", {9});
    EXPECT_FALSE(victim.LoadFromFile(torn).ok()) << "cut=" << cut;
    EXPECT_EQ(victim.Get("keep").value(), std::vector<uint8_t>{9})
        << "failed load must not clobber the store (cut=" << cut << ")";
  }
  std::remove(torn.c_str());
  std::remove(path.c_str());
}

TEST(CheckpointRestoreEdgeTest, GarbageAndMissingFiles) {
  KvCheckpointStore store;
  EXPECT_EQ(store.LoadFromFile("/nonexistent/dir/ckpt.bin").code(),
            StatusCode::kNotFound);

  const std::string path = ::testing::TempDir() + "garbage_ckpt.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "this is not a checkpoint file at all";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_FALSE(store.LoadFromFile(path).ok());
  std::remove(path.c_str());
}

// An entry count the file's bytes cannot hold is Corruption, not an
// attempt to size a table for 2^40 entries.
TEST(CheckpointRestoreEdgeTest, HugeEntryCountIsCorruption) {
  ByteWriter w;
  w.PutU32(0x534c434bu);  // "SLCK"
  w.PutU32(1);
  w.PutVarint(uint64_t{1} << 40);
  const std::string path = ::testing::TempDir() + "huge_count_ckpt.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(w.bytes().data(), 1, w.bytes().size(), f);
  std::fclose(f);
  KvCheckpointStore store;
  store.Put("keep", {9});
  EXPECT_EQ(store.LoadFromFile(path).code(), StatusCode::kCorruption);
  EXPECT_EQ(store.Get("keep").value(), std::vector<uint8_t>{9});
  std::remove(path.c_str());
}

// A file that names a key twice is Corruption, not a store in which the
// later copy silently wins: a splice could otherwise slip a second entry
// under a key that one save wrote once.
TEST(CheckpointRestoreEdgeTest, RepeatedKeyIsCorruption) {
  ByteWriter w;
  w.PutU32(0x534c434bu);  // "SLCK"
  w.PutU32(1);
  w.PutVarint(2);
  for (uint8_t state : {1, 2}) {
    w.PutString("a");
    w.PutU64(1);
    w.PutVarint(1);
    w.PutU8(state);
  }
  const std::string path = ::testing::TempDir() + "repeated_key_ckpt.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(w.bytes().data(), 1, w.bytes().size(), f);
  std::fclose(f);
  KvCheckpointStore store;
  store.Put("keep", {9});
  EXPECT_EQ(store.LoadFromFile(path).code(), StatusCode::kCorruption);
  EXPECT_EQ(store.NumKeys(), 1u);
  EXPECT_EQ(store.Get("keep").value(), std::vector<uint8_t>{9});
  std::remove(path.c_str());
}

TEST(CheckpointRestoreEdgeTest, RenamedComponentRestoreIsCleanError) {
  // A bolt renamed between checkpoint and restore must get a diagnosable
  // NotFound (and start empty), never someone else's state or UB.
  KvCheckpointStore store;
  store.Put("old_name:0", {1, 2, 3});
  const Result<std::vector<uint8_t>> result = store.Fetch("new_name:0");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().ToString().find("new_name:0"),
            std::string::npos);  // The message names the missing key.

  // The bolt-level behaviour: restore under the wrong name starts empty.
  CheckpointedCountBolt bolt(&store, "new_name");
  bolt.Prepare(0, 1);
  EXPECT_TRUE(bolt.counts().empty());
}

/// Hand-built ledger bytes: the format-version byte, then varints.
std::vector<uint8_t> LedgerBytes(uint8_t version,
                                 std::initializer_list<uint64_t> varints) {
  ByteWriter w;
  w.PutU8(version);
  for (uint64_t v : varints) w.PutVarint(v);
  return w.TakeBytes();
}

TEST(CheckpointRestoreEdgeTest, TruncatedDedupLedgerBytesAreRejected) {
  DedupLedger ledger;
  for (uint64_t seq : {5u, 7u, 9u}) {
    ASSERT_TRUE(ledger.CheckAndRecord(1, seq));
  }
  const std::vector<uint8_t> good = ledger.Serialize();
  ASSERT_EQ(good, LedgerBytes(1, {1, 1, 0, 3, 5, 2, 2}));
  for (size_t cut = 0; cut < good.size(); cut++) {
    const std::vector<uint8_t> torn(good.begin(), good.begin() + cut);
    const Result<DedupLedger> decoded = DedupLedger::Deserialize(torn);
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << "cut=" << cut;
  }
  EXPECT_TRUE(DedupLedger::Deserialize(good).ok());

  // Each input below is something Serialize never writes, so accepting it
  // would give one ledger state two encodings — or, as a repeated producer
  // once did, silently restore a ledger missing ids.
  const uint64_t kMax = UINT64_MAX;
  const std::vector<std::pair<const char*, std::vector<uint8_t>>> bad = {
      {"duplicate producer", LedgerBytes(1, {2, 1, 0, 1, 5, 1, 0, 1, 9})},
      {"descending producer", LedgerBytes(1, {2, 4, 1, 0, 1, 1, 0})},
      {"zero gap", LedgerBytes(1, {1, 1, 0, 2, 5, 0})},
      {"zero first gap", LedgerBytes(1, {1, 1, 3, 1, 0})},
      {"gap wraps uint64", LedgerBytes(1, {1, 1, 10, 1, kMax - 5})},
      {"gap reaches 2^64-1", LedgerBytes(1, {1, 1, 10, 1, kMax - 10})},
      {"count exceeds bytes", LedgerBytes(1, {1, 1, 0, 3, 1, 1})},
      {"huge count", LedgerBytes(1, {1, 1, 0, uint64_t{1} << 61, 1})},
      {"empty producer record", LedgerBytes(1, {1, 1, 0, 0})},
      {"unknown format byte", LedgerBytes(2, {1, 1, 0, 1, 5})},
      {"format byte zero", LedgerBytes(0, {0})},
      {"trailing bytes", LedgerBytes(1, {1, 1, 0, 1, 5, 0})},
      {"overlong varint", {1, 0x81, 0x00, 1, 0, 1, 5}},
      {"varint past 64 bits",
       {1, 1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02,
        0}},
  };
  for (const auto& [what, bytes] : bad) {
    const Result<DedupLedger> decoded = DedupLedger::Deserialize(bytes);
    ASSERT_FALSE(decoded.ok()) << what;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << what;
  }
}

/// Seeded mutation sweep over valid ledger encodings (bit flips, cuts,
/// splices of two encodings): every mutant is either rejected with a typed
/// Corruption or decodes to a ledger that re-encodes to the mutant's exact
/// bytes — the decoder accepts canonical encodings and nothing else.
TEST(CheckpointRestoreEdgeTest, DedupLedgerMutantsAreRejectedOrCanonical) {
  Rng rng(TestSeed() ^ 0x1ed9);
  std::vector<std::vector<uint8_t>> corpus;
  corpus.push_back(DedupLedger().Serialize());
  for (int shape = 0; shape < 6; shape++) {
    DedupLedger ledger;
    const uint64_t producers = 1 + rng.NextBounded(3);
    const uint64_t stride = shape % 2 == 0 ? 1 : 64;
    for (uint64_t i = 0; i < 200; i++) {
      const uint64_t producer = rng.NextBounded(producers) * 1000;
      if (rng.NextBool(0.7)) ledger.CheckAndRecord(producer, i * stride);
    }
    ledger.CheckAndRecord(7, UINT64_MAX - 1 - rng.NextBounded(1000));
    corpus.push_back(ledger.Serialize());
  }

  size_t accepted = 0;
  for (int i = 0; i < 20000; i++) {
    std::vector<uint8_t> m = corpus[rng.NextBounded(corpus.size())];
    switch (rng.NextBounded(3)) {
      case 0:  // Flip one bit.
        m[rng.NextBounded(m.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBounded(8));
        break;
      case 1:  // Truncate.
        m.resize(rng.NextBounded(m.size()));
        break;
      default: {  // Splice a prefix of this onto a suffix of another.
        const std::vector<uint8_t>& other =
            corpus[rng.NextBounded(corpus.size())];
        m.resize(rng.NextBounded(m.size() + 1));
        m.insert(m.end(), other.begin() + rng.NextBounded(other.size() + 1),
                 other.end());
      }
    }
    const Result<DedupLedger> decoded = DedupLedger::Deserialize(m);
    if (!decoded.ok()) {
      ASSERT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << "mutant " << i << ": " << decoded.status().ToString();
      continue;
    }
    accepted++;
    ASSERT_EQ(decoded.value().Serialize(), m) << "mutant " << i;
  }
  // Some mutants (a flipped gap bit, a splice at a record boundary) are
  // valid encodings of other ledgers; the sweep must have met a few.
  EXPECT_GT(accepted, 0u);
}

// ------------------------------------------------------ telemetry surface

TEST(FaultTelemetryTest, InjectedCountersSurfaceInReportAndJson) {
  FaultSpec spec;
  spec.seed = TestSeed() ^ 0x7e1e;
  spec.drop_tuple_prob = 0.05;
  spec.duplicate_tuple_prob = 0.05;
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  TopologyBuilder builder;
  builder.AddSpout("src", [counter]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter]() -> std::optional<Tuple> {
          const uint64_t i = counter->fetch_add(1);
          if (i >= 2000) return std::nullopt;
          return Tuple::Of(static_cast<int64_t>(i));
        });
  });
  builder.AddBolt(
      "sink",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple&, OutputCollector*) {});
      },
      1, {{"src", Grouping::Global()}});

  EngineConfig config;
  config.faults = spec;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  const FaultPlan* plan = engine.fault_plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->total_injected(), 0u);

  const TelemetryReport report = engine.telemetry().BuildReport();
  EXPECT_TRUE(report.faults.enabled);
  EXPECT_EQ(report.faults.seed, spec.seed);
  EXPECT_EQ(report.faults.total_injected, plan->total_injected());
  EXPECT_EQ(report.faults.by_kind, plan->Snapshot());
  // Per-task counters roll up to the engine-wide total: every injected
  // fault is attributed to exactly one task.
  uint64_t per_task_sum = 0;
  for (const TelemetryReport::TaskRow& row : report.tasks) {
    per_task_sum += row.faults_injected;
  }
  EXPECT_EQ(per_task_sum, plan->total_injected());

  std::ostringstream json;
  report.WriteJson(json);
  const std::string doc = json.str();
  EXPECT_NE(doc.find("\"fault_injection\""), std::string::npos);
  EXPECT_NE(doc.find("\"drop_tuple\""), std::string::npos);
  EXPECT_NE(doc.find("\"faults_injected\""), std::string::npos);
}

TEST(FaultTelemetryTest, DisabledInjectionReportsDisabled) {
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  TopologyBuilder builder;
  builder.AddSpout("src", [counter]() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        [counter]() -> std::optional<Tuple> {
          if (counter->fetch_add(1) >= 100) return std::nullopt;
          return Tuple::Of(int64_t{1});
        });
  });
  TopologyEngine engine(builder.Build().value(), EngineConfig{});
  engine.Run();
  EXPECT_EQ(engine.fault_plan(), nullptr);
  const TelemetryReport report = engine.telemetry().BuildReport();
  EXPECT_FALSE(report.faults.enabled);
  EXPECT_EQ(report.faults.total_injected, 0u);
}

// --------------------------------------- barrier faults (epoch protocol)

TEST(BarrierFaultTest, DroppedAndDelayedBarriersNeverWedgeDelivery) {
  // Barriers themselves are a fault target: a dropped marker starves one
  // consumer's alignment until the epoch_align_timeout force-advance kicks
  // in, a delayed one jitters alignment order. Neither may wedge the data
  // plane or corrupt at-least-once delivery — epochs that lose a barrier
  // simply never complete and checkpointing retries at the next epoch.
  constexpr int64_t kN = 240;
  auto state = std::make_shared<ReplayState>(kN);
  auto delivered = std::make_shared<std::atomic<uint64_t>>(0);

  TopologyBuilder builder;
  builder.AddSpout("src", [state]() -> std::unique_ptr<Spout> {
    return std::make_unique<ReplaySpout>(state);
  });
  builder.AddBolt(
      "relay",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& t, OutputCollector* out) { out->Emit(t); });
      },
      2, {{"src", Grouping::Shuffle()}});
  builder.AddBolt(
      "sink",
      [delivered]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [delivered](const Tuple&, OutputCollector*) {
              delivered->fetch_add(1, std::memory_order_relaxed);
            });
      },
      1, {{"relay", Grouping::Global()}});

  KvCheckpointStore store;
  EngineConfig config;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  config.checkpoint_store = &store;
  config.epoch_interval_tuples = 16;
  config.ack_timeout_seconds = 0.15;
  config.epoch_align_timeout_seconds = 0.1;  // Fast force-advance rounds.
  config.faults.seed = TestSeed() ^ 0xbab1;
  config.faults.barrier_drop_prob = 0.25;
  config.faults.barrier_delay_prob = 0.2;
  config.faults.barrier_delay_max_micros = 100;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  // Termination + full ack: barrier chaos never blocked or lost payloads.
  EXPECT_EQ(state->acked, static_cast<uint64_t>(kN));
  EXPECT_TRUE(state->pending.empty());
  EXPECT_TRUE(state->inflight.empty());
  EXPECT_GE(delivered->load(), static_cast<uint64_t>(kN));

  // Both barrier fault kinds actually fired (0.25/0.2 over ~15 epochs x 3
  // barrier deliveries makes either vanishingly unlikely to stay at zero).
  const std::array<uint64_t, kNumFaultKinds> injected =
      engine.fault_plan()->Snapshot();
  EXPECT_GT(injected[static_cast<size_t>(FaultKind::kBarrierDrop)], 0u);
  EXPECT_GT(injected[static_cast<size_t>(FaultKind::kBarrierDelay)], 0u);

  // The durable pointer agrees with the coordinator's view, and any epoch
  // it names has a complete manifest.
  EXPECT_EQ(LastCompleteEpoch(store), engine.last_complete_epoch());
  if (engine.last_complete_epoch() > 0) {
    EXPECT_TRUE(
        store.Get(EpochCompleteKey(engine.last_complete_epoch())).has_value());
  }
}

TEST(BarrierFaultTest, AlignmentTimesOutOnSkewThenRetriesToCompletion) {
  // A deterministic alignment stall, no randomness. srcA paces steadily
  // (~0.5ms/tuple => a barrier every ~8ms); srcB sleeps 3ms per tuple for
  // its first 16 tuples (~48ms), then free-runs. The sink holds srcA's
  // post-barrier data from ~8ms on, so its 30ms hold clock must expire
  // before srcB's first barrier (~48ms): force-advance => epoch_timeouts
  // > 0, and the skipped epochs never complete. Then srcB overtakes the
  // still-pacing srcA and alignment succeeds again for later epochs —
  // the protocol retries rather than wedging, and no data is lost.
  static constexpr int64_t kPerSpout = 400;
  auto delivered = std::make_shared<std::atomic<uint64_t>>(0);
  auto MakeCountdownSpout = [](bool slow_start) {
    auto remaining = std::make_shared<std::atomic<int64_t>>(kPerSpout);
    return [remaining, slow_start]() -> std::unique_ptr<Spout> {
      return std::make_unique<GeneratorSpout>(
          [remaining, slow_start]() -> std::optional<Tuple> {
            const int64_t left = remaining->fetch_sub(1);
            if (left <= 0) return std::nullopt;
            if (slow_start) {
              if (left > kPerSpout - 16) {
                std::this_thread::sleep_for(std::chrono::milliseconds(3));
              }
            } else {
              std::this_thread::sleep_for(std::chrono::microseconds(500));
            }
            return Tuple::Of(int64_t{kPerSpout - left});
          });
    };
  };

  TopologyBuilder builder;
  builder.AddSpout("srcA", MakeCountdownSpout(false));
  builder.AddSpout("srcB", MakeCountdownSpout(true));
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
  config.epoch_interval_tuples = 16;
  config.epoch_align_timeout_seconds = 0.03;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  EXPECT_EQ(delivered->load(), static_cast<uint64_t>(2 * kPerSpout));
  EXPECT_GT(engine.epoch_timeouts(), 0u) << "skew never tripped the hold";
  EXPECT_GT(engine.epochs_completed(), 0u) << "alignment never recovered";
  EXPECT_EQ(LastCompleteEpoch(store), engine.last_complete_epoch());
}

}  // namespace
}  // namespace streamlib::platform
