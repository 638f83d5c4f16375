// Exactly-once acceptance suite for epoch-aligned barrier checkpoints
// (DESIGN.md §12): config validation, the EpochAligner / coordinator /
// grouped-state units, key-group rescaling, and the chaos matrix — crash a
// run mid-epoch under every fault kind, restore from the last complete
// epoch, and prove zero loss AND zero duplication. Plus barrier-position
// exactness, a 50-seed frame-bit-identity torture run, the N->2N
// rescale-equivalence property, and record -> replay of exactly-once runs
// (fresh and resumed) with their epoch cuts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "common/state.h"
#include "core/frequency/count_min_sketch.h"
#include "platform/checkpoint.h"
#include "platform/components.h"
#include "platform/engine.h"
#include "platform/epoch.h"
#include "platform/fault.h"
#include "platform/recorder.h"
#include "platform/replay.h"
#include "platform/stream_operators.h"
#include "platform/telemetry.h"
#include "platform/topology.h"
#include "recording_util.h"
#include "test_seed.h"

namespace streamlib::platform {
namespace {

// ------------------------------------------------------ config validation

TEST(ExactlyOnceConfigTest, ExactlyOnceRequiresStoreAndInterval) {
  KvCheckpointStore store;
  EngineConfig config;
  config.semantics = DeliverySemantics::kExactlyOnce;

  // Neither the store nor the interval: rejected with a typed status.
  Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("exactly-once"), std::string::npos);

  // A store alone is not enough — barriers must actually flow.
  config.checkpoint_store = &store;
  EXPECT_FALSE(config.Validate().ok());

  // An interval alone is not enough — frames need somewhere to live.
  config.checkpoint_store = nullptr;
  config.epoch_interval_tuples = 32;
  EXPECT_FALSE(config.Validate().ok());

  config.checkpoint_store = &store;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ExactlyOnceConfigTest, EpochKnobsRequireStoreUnderAnySemantics) {
  KvCheckpointStore store;
  EngineConfig config;  // kAtMostOnce — barriers are semantics-independent.
  config.epoch_interval_tuples = 16;
  Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("checkpoint_store"), std::string::npos);

  config.epoch_interval_tuples = 0;
  config.resume_from_epoch = 3;  // Resuming also needs frames to read.
  EXPECT_FALSE(config.Validate().ok());

  config.checkpoint_store = &store;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ExactlyOnceConfigTest, AlignTimeoutMustBePositiveAndFinite) {
  KvCheckpointStore store;
  EngineConfig config;
  config.semantics = DeliverySemantics::kExactlyOnce;
  config.checkpoint_store = &store;
  config.epoch_interval_tuples = 32;
  ASSERT_TRUE(config.Validate().ok());

  // 1e11 s is finite, but its nanosecond count overflows a uint64_t.
  for (const double bad : {0.0, -0.5, std::nan(""), 1e11}) {
    config.epoch_align_timeout_seconds = bad;
    Status status = config.Validate();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("epoch_align_timeout_seconds"),
              std::string::npos);
  }
  config.epoch_align_timeout_seconds = 0.2;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ExactlyOnceConfigDeathTest, RunAbortsOnExactlyOnceWithoutStore) {
  TopologyBuilder builder;
  builder.AddSpout("src", []() -> std::unique_ptr<Spout> {
    return std::make_unique<GeneratorSpout>(
        []() -> std::optional<Tuple> { return std::nullopt; });
  });
  EngineConfig config;
  config.semantics = DeliverySemantics::kExactlyOnce;
  TopologyEngine engine(builder.Build().value(), config);
  EXPECT_DEATH(engine.Run(), "exactly-once");
}

// ---------------------------------------------------------- EpochAligner

TEST(EpochAlignerTest, SingleProducerAlignsInstantly) {
  EpochAligner aligner(1, /*timeout_nanos=*/1'000'000, /*base_epoch=*/0);
  EXPECT_EQ(aligner.OnBarrier(7, 1, 100), 1u);
  EXPECT_FALSE(aligner.ShouldHold(7));  // Nothing ever outruns alignment.
  EXPECT_EQ(aligner.OnBarrier(7, 2, 200), 2u);
  EXPECT_EQ(aligner.aligned_epoch(), 2u);
}

TEST(EpochAlignerTest, AlignsOnMinimumWatermarkAndHoldsFastProducers) {
  EpochAligner aligner(2, 1'000'000, 0);
  // Producer 0's barrier arrives first: its post-barrier data must be held
  // (tagged epoch 2) until producer 1 catches up.
  EXPECT_EQ(aligner.OnBarrier(0, 1, 100), 0u);
  EXPECT_TRUE(aligner.ShouldHold(0));
  EXPECT_EQ(aligner.HoldTag(0), 2u);
  EXPECT_FALSE(aligner.ShouldHold(1));
  // Producer 1's barrier completes the alignment and releases the hold.
  EXPECT_EQ(aligner.OnBarrier(1, 1, 200), 1u);
  EXPECT_FALSE(aligner.ShouldHold(0));
  EXPECT_EQ(aligner.aligned_epoch(), 1u);
}

TEST(EpochAlignerTest, SkippedEpochsAlignAtMinimumWatermark) {
  EpochAligner aligner(2, 1'000'000, 0);
  // Barriers 1 and 2 toward producer 0 were lost; its next marker is 3.
  EXPECT_EQ(aligner.OnBarrier(0, 3, 100), 0u);
  EXPECT_EQ(aligner.OnBarrier(1, 2, 200), 2u);  // min(3, 2): epoch 1 skipped.
  EXPECT_TRUE(aligner.ShouldHold(0));           // 0 is still one ahead.
  EXPECT_EQ(aligner.OnBarrier(1, 3, 300), 3u);
  EXPECT_FALSE(aligner.ShouldHold(0));
}

TEST(EpochAlignerTest, StaleBarrierNeverRewindsAlignment) {
  EpochAligner aligner(2, 1'000'000, 0);
  EXPECT_EQ(aligner.OnBarrier(0, 3, 100), 0u);
  EXPECT_EQ(aligner.OnBarrier(1, 3, 200), 3u);
  // A late marker for an already-aligned epoch is a no-op.
  EXPECT_EQ(aligner.OnBarrier(0, 1, 300), 0u);
  EXPECT_EQ(aligner.aligned_epoch(), 3u);
}

TEST(EpochAlignerTest, TimeoutForceAdvancesToMaxWatermarkWithoutSnapshot) {
  EpochAligner aligner(2, /*timeout_nanos=*/1'000, 0);
  EXPECT_EQ(aligner.OnBarrier(0, 2, 100), 0u);  // Producer 1 never shows.
  EXPECT_FALSE(aligner.TimedOut(900));          // 800ns held: under budget.
  EXPECT_TRUE(aligner.TimedOut(1'200));         // 1100ns: over.
  EXPECT_EQ(aligner.ForceAdvance(), 2u);
  EXPECT_EQ(aligner.epochs_timed_out(), 1u);
  EXPECT_FALSE(aligner.TimedOut(10'000));  // Clock disarmed after recovery.
  EXPECT_FALSE(aligner.ShouldHold(0));
  // Alignment retries naturally at the next epoch once both producers talk.
  EXPECT_EQ(aligner.OnBarrier(1, 3, 10'100), 0u);  // min(2, 3) == aligned.
  EXPECT_EQ(aligner.OnBarrier(0, 3, 10'200), 3u);
}

TEST(EpochAlignerTest, BaseEpochResumesNumbering) {
  EpochAligner aligner(2, 1'000'000, /*base_epoch=*/5);
  EXPECT_EQ(aligner.OnBarrier(0, 5, 100), 0u);  // At or below base: stale.
  EXPECT_EQ(aligner.OnBarrier(1, 6, 200), 0u);
  EXPECT_EQ(aligner.OnBarrier(0, 6, 300), 6u);
}

// -------------------------------------------------- CheckpointCoordinator

TEST(CheckpointCoordinatorTest, EpochCompletesOnlyWhenEveryTaskAcks) {
  KvCheckpointStore store;
  CheckpointCoordinator coordinator(&store, /*participants=*/3,
                                    /*base_epoch=*/0);
  EXPECT_FALSE(coordinator.AckEpoch(1, 0));
  EXPECT_FALSE(coordinator.AckEpoch(1, 1));
  EXPECT_FALSE(coordinator.AckEpoch(1, 1));  // Duplicate ack: idempotent.
  EXPECT_EQ(coordinator.last_complete(), 0u);
  EXPECT_FALSE(store.Get(EpochCompleteKey(1)).has_value());

  EXPECT_TRUE(coordinator.AckEpoch(1, 2));
  EXPECT_EQ(coordinator.last_complete(), 1u);
  EXPECT_EQ(coordinator.epochs_completed(), 1u);
  EXPECT_EQ(LastCompleteEpoch(store), 1u);

  // The durable manifest records (epoch, participants).
  std::optional<std::vector<uint8_t>> manifest = store.Get(EpochCompleteKey(1));
  ASSERT_TRUE(manifest.has_value());
  ByteReader r(*manifest);
  uint64_t epoch = 0;
  uint64_t participants = 0;
  ASSERT_TRUE(r.GetVarint(&epoch).ok());
  ASSERT_TRUE(r.GetVarint(&participants).ok());
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(participants, 3u);

  // A completed epoch takes no further acks.
  EXPECT_FALSE(coordinator.AckEpoch(1, 0));
}

TEST(CheckpointCoordinatorTest, PointerAdvancesMonotonicallyAcrossGaps) {
  KvCheckpointStore store;
  CheckpointCoordinator coordinator(&store, 2, 0);
  EXPECT_TRUE((coordinator.AckEpoch(1, 0), coordinator.AckEpoch(1, 1)));
  // Epoch 2 is skipped (say a timeout ate it); epoch 3 still completes and
  // the pointer moves to the highest complete epoch.
  EXPECT_TRUE((coordinator.AckEpoch(3, 0), coordinator.AckEpoch(3, 1)));
  EXPECT_EQ(coordinator.last_complete(), 3u);
  EXPECT_EQ(coordinator.epochs_completed(), 2u);
  EXPECT_EQ(LastCompleteEpoch(store), 3u);
  EXPECT_FALSE(store.Get(EpochCompleteKey(2)).has_value());
}

TEST(CheckpointCoordinatorTest, FenceBlocksEpochsBeyondCrashSnapshot) {
  KvCheckpointStore store;
  CheckpointCoordinator coordinator(&store, 2, 0);
  EXPECT_FALSE(coordinator.AckEpoch(2, 0));  // Gathering.
  coordinator.FenceEpochsAfter(1);           // Crash restored into epoch 1.
  EXPECT_EQ(coordinator.fence(), 1u);
  // The gathered ack was discarded and late acks bounce: epoch 2 may have
  // lost acked effects, it must never be marked complete.
  EXPECT_FALSE(coordinator.AckEpoch(2, 1));
  EXPECT_FALSE(coordinator.AckEpoch(2, 0));
  EXPECT_EQ(coordinator.epochs_completed(), 0u);
  EXPECT_FALSE(store.Get(EpochCompleteKey(2)).has_value());
  // The fence epoch itself is still completable — its frames are whole.
  EXPECT_FALSE(coordinator.AckEpoch(1, 0));
  EXPECT_TRUE(coordinator.AckEpoch(1, 1));
  EXPECT_EQ(coordinator.last_complete(), 1u);
  // A second, earlier crash tightens the fence; it never loosens.
  coordinator.FenceEpochsAfter(3);
  EXPECT_EQ(coordinator.fence(), 1u);
}

TEST(CheckpointCoordinatorTest, BaseEpochTreatsPriorEpochsAsComplete) {
  KvCheckpointStore store;
  CheckpointCoordinator coordinator(&store, 1, /*base_epoch=*/4);
  EXPECT_FALSE(coordinator.AckEpoch(3, 0));  // Below base: moot.
  EXPECT_EQ(coordinator.last_complete(), 4u);
  EXPECT_TRUE(coordinator.AckEpoch(5, 0));
  EXPECT_EQ(coordinator.last_complete(), 5u);
}

// --------------------------------------------------- grouped-state serde

TEST(GroupedStateTest, RoundTrips) {
  std::map<uint32_t, std::vector<uint8_t>> groups;
  groups[3] = {1, 2, 3};
  groups[17] = {};
  groups[63] = {9};
  Result<std::map<uint32_t, std::vector<uint8_t>>> decoded =
      DecodeGroupedState(EncodeGroupedState(groups));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), groups);
}

TEST(GroupedStateTest, RejectsMissingMagic) {
  const std::vector<uint8_t> junk = {'X', 'X', 'X', 'X', 0};
  Result<std::map<uint32_t, std::vector<uint8_t>>> decoded =
      DecodeGroupedState(junk);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(DecodeGroupedState({}).ok());
}

TEST(GroupedStateTest, RejectsTruncatedPayload) {
  ByteWriter w;
  w.PutBytes("EPG1", 4);
  w.PutVarint(1);   // One group...
  w.PutVarint(3);   // ...id 3...
  w.PutVarint(10);  // ...claiming 10 payload bytes...
  w.PutBytes("abc", 3);  // ...but only 3 present.
  Result<std::map<uint32_t, std::vector<uint8_t>>> decoded =
      DecodeGroupedState(w.TakeBytes());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(GroupedStateTest, RejectsOutOfRangeGroupId) {
  ByteWriter w;
  w.PutBytes("EPG1", 4);
  w.PutVarint(1);
  w.PutVarint(kNumKeyGroups);  // One past the last valid id.
  w.PutVarint(0);
  Result<std::map<uint32_t, std::vector<uint8_t>>> decoded =
      DecodeGroupedState(w.TakeBytes());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(GroupedStateTest, RejectsDuplicateGroupId) {
  ByteWriter w;
  w.PutBytes("EPG1", 4);
  w.PutVarint(2);
  for (int i = 0; i < 2; i++) {
    w.PutVarint(5);
    w.PutVarint(1);
    w.PutBytes("x", 1);
  }
  Result<std::map<uint32_t, std::vector<uint8_t>>> decoded =
      DecodeGroupedState(w.TakeBytes());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(decoded.status().ToString().find("duplicate"), std::string::npos);
}

// ----------------------------------------------------- RescaleEpochFrames

/// One shard's grouped frame at parallelism `tasks`: every group it owns,
/// payload = the group id repeated (id + 1) times — distinguishable bytes.
std::vector<uint8_t> MakeShardFrame(uint32_t task, uint32_t tasks) {
  std::map<uint32_t, std::vector<uint8_t>> groups;
  for (uint32_t g = 0; g < kNumKeyGroups; g++) {
    if (g % tasks == task) {
      groups[g] = std::vector<uint8_t>(g + 1, static_cast<uint8_t>(g));
    }
  }
  return EncodeGroupedState(groups);
}

void SeedCompleteEpoch(KvCheckpointStore& store, uint64_t epoch,
                       const std::string& component, uint32_t tasks) {
  for (uint32_t t = 0; t < tasks; t++) {
    store.Put(EpochTaskKey(epoch, component, t), MakeShardFrame(t, tasks));
  }
  ByteWriter manifest;
  manifest.PutVarint(epoch);
  manifest.PutVarint(tasks + 1);
  store.Put(EpochCompleteKey(epoch), manifest.TakeBytes());
}

TEST(RescaleTest, GrowRedistributesEveryKeyGroup) {
  KvCheckpointStore store;
  SeedCompleteEpoch(store, 7, "shard", 2);
  ASSERT_TRUE(RescaleEpochFrames(store, 7, "shard", 2, 4).ok());
  for (uint32_t t = 0; t < 4; t++) {
    std::optional<std::vector<uint8_t>> frame =
        store.Get(EpochTaskKey(7, "shard", t));
    ASSERT_TRUE(frame.has_value()) << "task " << t;
    Result<std::map<uint32_t, std::vector<uint8_t>>> groups =
        DecodeGroupedState(*frame);
    ASSERT_TRUE(groups.ok());
    EXPECT_EQ(groups.value().size(), kNumKeyGroups / 4);
    for (const auto& [g, payload] : groups.value()) {
      EXPECT_EQ(g % 4, t);  // New ownership rule.
      EXPECT_EQ(payload,
                std::vector<uint8_t>(g + 1, static_cast<uint8_t>(g)))
          << "group " << g << " payload mangled in transit";
    }
  }
}

TEST(RescaleTest, ShrinkMergesGroupsAndErasesOrphanFrames) {
  KvCheckpointStore store;
  SeedCompleteEpoch(store, 3, "shard", 4);
  ASSERT_TRUE(RescaleEpochFrames(store, 3, "shard", 4, 2).ok());
  for (uint32_t t = 0; t < 2; t++) {
    Result<std::map<uint32_t, std::vector<uint8_t>>> groups =
        DecodeGroupedState(store.Get(EpochTaskKey(3, "shard", t)).value());
    ASSERT_TRUE(groups.ok());
    EXPECT_EQ(groups.value().size(), kNumKeyGroups / 2);
    for (const auto& [g, payload] : groups.value()) EXPECT_EQ(g % 2, t);
  }
  // Tasks 2 and 3 no longer exist; their frames must be gone.
  EXPECT_FALSE(store.Get(EpochTaskKey(3, "shard", 2)).has_value());
  EXPECT_FALSE(store.Get(EpochTaskKey(3, "shard", 3)).has_value());
}

TEST(RescaleTest, RefusesIncompleteEpoch) {
  KvCheckpointStore store;
  store.Put(EpochTaskKey(5, "shard", 0), MakeShardFrame(0, 1));
  const Status status = RescaleEpochFrames(store, 5, "shard", 1, 2);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(RescaleTest, RejectsParallelismNotDividingKeyGroups) {
  KvCheckpointStore store;
  EXPECT_EQ(RescaleEpochFrames(store, 1, "shard", 2, 3).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RescaleEpochFrames(store, 1, "shard", 0, 2).code(),
            StatusCode::kInvalidArgument);
}

TEST(RescaleTest, MalformedFrameLeavesStoreUntouched) {
  KvCheckpointStore store;
  SeedCompleteEpoch(store, 2, "shard", 2);
  const std::vector<uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef};
  store.Put(EpochTaskKey(2, "shard", 1), garbage);
  const std::vector<uint8_t> intact =
      store.Get(EpochTaskKey(2, "shard", 0)).value();

  ASSERT_FALSE(RescaleEpochFrames(store, 2, "shard", 2, 4).ok());
  EXPECT_EQ(store.Get(EpochTaskKey(2, "shard", 0)).value(), intact);
  EXPECT_EQ(store.Get(EpochTaskKey(2, "shard", 1)).value(), garbage);
  EXPECT_FALSE(store.Get(EpochTaskKey(2, "shard", 2)).has_value());
  EXPECT_FALSE(store.Get(EpochTaskKey(2, "shard", 3)).has_value());
}

TEST(RescaleTest, MisplacedGroupIsCorruption) {
  KvCheckpointStore store;
  // Task 0 of 2 claiming group 3 (owner: 3 % 2 == task 1).
  std::map<uint32_t, std::vector<uint8_t>> wrong;
  wrong[3] = {1};
  store.Put(EpochTaskKey(9, "shard", 0), EncodeGroupedState(wrong));
  store.Put(EpochTaskKey(9, "shard", 1), MakeShardFrame(1, 2));
  ByteWriter manifest;
  manifest.PutVarint(9);
  manifest.PutVarint(3);
  store.Put(EpochCompleteKey(9), manifest.TakeBytes());
  EXPECT_EQ(RescaleEpochFrames(store, 9, "shard", 2, 4).code(),
            StatusCode::kCorruption);
}

// ------------------------------------------------- KeyGroupedSketchBolt

TEST(KeyGroupedSketchBoltTest, SnapshotRestoreRoundTripsMergedEstimates) {
  auto make = [] { return CountMinSketch(128, 4); };
  auto update = [](CountMinSketch& sketch, const Tuple& t) {
    sketch.Add(static_cast<uint64_t>(t.Int(0)));
  };
  KeyGroupedSketchBolt<CountMinSketch> original(make, update, 0);
  original.Prepare(0, 1);  // Owns all 64 groups.
  for (int64_t k = 0; k < 200; k++) {
    original.Execute(Tuple::Of(k % 23), nullptr);
  }
  std::optional<std::vector<uint8_t>> frame = original.SnapshotEpoch(1);
  ASSERT_TRUE(frame.has_value());

  KeyGroupedSketchBolt<CountMinSketch> restored(make, update, 0);
  restored.Prepare(0, 1);
  ASSERT_TRUE(restored.RestoreEpoch(1, *frame).ok());
  EXPECT_EQ(restored.num_groups(), original.num_groups());
  const CountMinSketch a = original.Merged();
  const CountMinSketch b = restored.Merged();
  EXPECT_EQ(a.total_count(), b.total_count());
  for (uint64_t k = 0; k < 23; k++) {
    EXPECT_EQ(a.Estimate(k), b.Estimate(k)) << "key " << k;
  }
}

TEST(KeyGroupedSketchBoltTest, RestoreRejectsForeignGroupsWithoutRescale) {
  auto make = [] { return CountMinSketch(64, 2); };
  auto update = [](CountMinSketch& sketch, const Tuple& t) {
    sketch.Add(static_cast<uint64_t>(t.Int(0)));
  };
  KeyGroupedSketchBolt<CountMinSketch> wide(make, update, 0);
  wide.Prepare(0, 1);
  for (int64_t k = 0; k < 300; k++) wide.Execute(Tuple::Of(k), nullptr);
  std::optional<std::vector<uint8_t>> frame = wide.SnapshotEpoch(1);
  ASSERT_TRUE(frame.has_value());

  // A parallelism-2 shard handed the full-width frame must refuse: the
  // frame was not run through RescaleEpochFrames.
  KeyGroupedSketchBolt<CountMinSketch> narrow(make, update, 0);
  narrow.Prepare(0, 2);
  const Status status = narrow.RestoreEpoch(1, *frame);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("rescaled"), std::string::npos);
}

// --------------------------------------------- chaos-matrix test fixture

/// Per-payload delivery counts merged across count-bolt tasks at Finish.
struct CountHolder {
  std::mutex mu;
  std::map<int64_t, uint64_t> counts;
};

/// The exactly-once reference sink: per-payload counts plus a DedupLedger
/// (payloads double as sequence numbers), with state living ONLY in epoch
/// frames — no per-tuple store writes. Restores rebuild both the counts
/// and the ledger, so replayed deliveries of already-counted payloads are
/// dropped even across a crash/resume boundary.
class EpochCountBolt : public Bolt {
 public:
  EpochCountBolt(std::shared_ptr<CountHolder> holder, bool dedup)
      : holder_(std::move(holder)), dedup_(dedup) {}

  void Execute(const Tuple& input, OutputCollector* collector) override {
    (void)collector;
    const int64_t seq = input.Int(0);
    if (dedup_ &&
        !ledger_.CheckAndRecord(0, static_cast<uint64_t>(seq))) {
      return;
    }
    counts_[seq]++;
  }

  /// Frame bytes are canonical (std::map order + the ledger, whose bytes
  /// depend only on the ids it holds, not their arrival order) — the
  /// determinism torture test compares them bit for bit.
  std::optional<std::vector<uint8_t>> SnapshotEpoch(uint64_t epoch) override {
    (void)epoch;
    ByteWriter w;
    w.PutVarint(counts_.size());
    for (const auto& [seq, count] : counts_) {
      w.PutI64(seq);
      w.PutVarint(count);
    }
    const std::vector<uint8_t> ledger = ledger_.Serialize();
    w.PutVarint(ledger.size());
    w.PutBytes(ledger.data(), ledger.size());
    return w.TakeBytes();
  }

  Status RestoreEpoch(uint64_t epoch,
                      const std::vector<uint8_t>& state) override {
    (void)epoch;
    std::map<int64_t, uint64_t> counts;
    DedupLedger ledger;
    STREAMLIB_RETURN_NOT_OK(Decode(state, &counts, &ledger));
    counts_ = std::move(counts);
    ledger_ = std::move(ledger);
    return Status::OK();
  }

  void Finish(OutputCollector* collector) override {
    (void)collector;
    std::lock_guard<std::mutex> lock(holder_->mu);
    for (const auto& [seq, count] : counts_) holder_->counts[seq] += count;
  }

  static Status Decode(const std::vector<uint8_t>& bytes,
                       std::map<int64_t, uint64_t>* counts,
                       DedupLedger* ledger) {
    ByteReader r(bytes);
    uint64_t n = 0;
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&n));
    for (uint64_t i = 0; i < n; i++) {
      int64_t seq = 0;
      uint64_t count = 0;
      STREAMLIB_RETURN_NOT_OK(r.GetI64(&seq));
      STREAMLIB_RETURN_NOT_OK(r.GetVarint(&count));
      (*counts)[seq] = count;
    }
    uint64_t ledger_len = 0;
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&ledger_len));
    if (ledger_len > r.remaining()) {
      return Status::Corruption("count frame truncated (ledger)");
    }
    std::vector<uint8_t> ledger_bytes(ledger_len);
    STREAMLIB_RETURN_NOT_OK(r.GetBytes(ledger_bytes.data(), ledger_len));
    Result<DedupLedger> decoded = DedupLedger::Deserialize(ledger_bytes);
    STREAMLIB_RETURN_NOT_OK(decoded.status());
    *ledger = std::move(decoded.value());
    return Status::OK();
  }

 private:
  std::shared_ptr<CountHolder> holder_;
  const bool dedup_;
  std::map<int64_t, uint64_t> counts_;  // Ordered: canonical frame bytes.
  DedupLedger ledger_;
};

/// src -> relay x2 (shuffle) -> count x2 (fields): the chaos topology. The
/// shuffle hop forces real multi-producer barrier alignment at each count
/// task; fields grouping keeps every payload on a stable count task so the
/// per-task ledgers see all redeliveries of their own payloads. The `fused`
/// variant runs one relay task, so under enable_fusion src -> relay fuses:
/// relay executes inline on the spout thread and cuts each epoch there.
Topology BuildCountTopology(int64_t limit, int64_t halt,
                            std::shared_ptr<CountHolder> holder,
                            bool fused = false) {
  TopologyBuilder builder;
  builder.AddSpout("src", [limit, halt]() -> std::unique_ptr<Spout> {
    return std::make_unique<ReplayableSequenceSpout>(limit, nullptr, halt);
  });
  builder.AddBolt(
      "relay",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& t, OutputCollector* out) { out->Emit(t); });
      },
      fused ? 1 : 2, {{"src", Grouping::Shuffle()}});
  builder.AddBolt(
      "count",
      [holder]() -> std::unique_ptr<Bolt> {
        return std::make_unique<EpochCountBolt>(holder, /*dedup=*/true);
      },
      2, {{"relay", Grouping::Fields(0)}});
  return builder.Build().value();
}

EngineConfig MakeExactlyOnceConfig(KvCheckpointStore* store, uint64_t resume,
                                   const FaultSpec& faults,
                                   bool fused = false) {
  EngineConfig config;
  config.enable_fusion = fused;
  config.semantics = DeliverySemantics::kExactlyOnce;
  config.checkpoint_store = store;
  config.epoch_interval_tuples = 32;
  config.resume_from_epoch = resume;
  config.ack_timeout_seconds = 0.15;  // Fast replay rounds under faults.
  config.epoch_align_timeout_seconds = 0.25;
  config.faults = faults;
  return config;
}

/// The acceptance property: run phase 1 under `phase1` faults with the
/// source dying mid-epoch at `halt`, then resume a fresh engine from the
/// last complete epoch under `phase2` faults and let it finish the stream.
/// Every payload must be counted exactly once — zero loss (every sequence
/// present) and zero duplication (no count above one), regardless of which
/// fault mix ran. Sets `*injected` to the faults phase 1 injected.
void RunCrashResumeAttempt(bool fused, const FaultSpec& phase1,
                           const FaultSpec& phase2, uint64_t* injected) {
  constexpr int64_t kN = 280;
  constexpr int64_t kHalt = 150;
  KvCheckpointStore store;

  {
    auto torn = std::make_shared<CountHolder>();
    TopologyEngine engine(BuildCountTopology(kN, kHalt, torn, fused),
                          MakeExactlyOnceConfig(&store, 0, phase1, fused));
    engine.Run();
    EXPECT_EQ(engine.fused_edges(), fused ? 1u : 0u);
    *injected =
        phase1.Enabled() ? engine.fault_plan()->total_injected() : 0;
    // The pointer the resumed run will trust matches the coordinator's.
    EXPECT_EQ(LastCompleteEpoch(store), engine.last_complete_epoch());
  }

  const uint64_t resume = LastCompleteEpoch(store);
  auto counts = std::make_shared<CountHolder>();
  TopologyEngine engine(BuildCountTopology(kN, /*halt=*/-1, counts, fused),
                        MakeExactlyOnceConfig(&store, resume, phase2, fused));
  engine.Run();
  EXPECT_GE(engine.last_complete_epoch(), resume);

  std::lock_guard<std::mutex> lock(counts->mu);
  ASSERT_EQ(counts->counts.size(), static_cast<size_t>(kN))
      << "lost " << (kN - counts->counts.size()) << " payloads";
  for (int64_t i = 0; i < kN; i++) {
    auto it = counts->counts.find(i);
    ASSERT_NE(it, counts->counts.end()) << "payload " << i << " lost";
    EXPECT_EQ(it->second, 1u) << "payload " << i << " double-counted";
  }
}

/// The acceptance property on the queued chaos topology or its fused
/// variant, where a faulted phase 1 must also inject a fault. Phase 1
/// consults each armed kind about 300 times (FaultSiteStats::consulted),
/// so at p = 0.01 one attempt injects nothing about 5% of the time: each
/// further attempt derives both phases' seeds anew from TestSeed() and runs
/// every check again, and all eight attempts miss with p < 1e-10.
void RunCrashResumeScenarioOn(bool fused, FaultSpec phase1, FaultSpec phase2) {
  SCOPED_TRACE(fused ? "fused src -> relay" : "queued");
  for (uint64_t attempt = 0; attempt < 8; attempt++) {
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    uint64_t injected = 0;
    RunCrashResumeAttempt(fused, phase1, phase2, &injected);
    if (!phase1.Enabled() || injected > 0) return;
    phase1.seed ^= (attempt + 1) * 0x9e3779b97f4a7c15ULL;
    phase2.seed ^= (attempt + 1) * 0x9e3779b97f4a7c15ULL;
  }
  ADD_FAILURE() << "no attempt's phase 1 injected a fault";
}

void RunCrashResumeScenario(const std::string& name, FaultSpec phase1,
                            FaultSpec phase2) {
  SCOPED_TRACE(name);
  for (const bool fused : {false, true}) {
    RunCrashResumeScenarioOn(fused, phase1, phase2);
  }
}

// -------------------------------------- the chaos matrix (the tentpole)

TEST(ExactlyOnceChaosTest, CleanCrashResume) {
  RunCrashResumeScenario("clean", FaultSpec{}, FaultSpec{});
}

TEST(ExactlyOnceChaosTest, SurvivesTransportDrops) {
  FaultSpec faults;
  faults.seed = TestSeed() ^ 0xe001;
  faults.drop_tuple_prob = 0.02;
  RunCrashResumeScenario("drops", faults, faults);
}

TEST(ExactlyOnceChaosTest, SurvivesTransportDuplicates) {
  FaultSpec faults;
  faults.seed = TestSeed() ^ 0xe002;
  faults.duplicate_tuple_prob = 0.03;
  RunCrashResumeScenario("duplicates", faults, faults);
}

TEST(ExactlyOnceChaosTest, SurvivesDeliveryDelays) {
  FaultSpec faults;
  faults.seed = TestSeed() ^ 0xe003;
  faults.delay_delivery_prob = 0.02;
  faults.delay_max_micros = 150;
  RunCrashResumeScenario("delays", faults, faults);
}

TEST(ExactlyOnceChaosTest, SurvivesBoltThrows) {
  FaultSpec faults;
  faults.seed = TestSeed() ^ 0xe004;
  faults.bolt_throw_prob = 0.01;
  RunCrashResumeScenario("throws", faults, faults);
}

TEST(ExactlyOnceChaosTest, SurvivesTaskCrashMidEpoch) {
  // The hard case: a bolt dies between its snapshot and the next barrier,
  // restores a stale frame, and the coordinator fence must keep every
  // torn epoch from ever completing. Phase 2 runs crash-free (a live
  // crash tears in-memory state by design — recovery happens by resuming
  // from the fenced last-complete epoch, which is exactly phase 2).
  FaultSpec phase1;
  phase1.seed = TestSeed() ^ 0xe005;
  phase1.task_crash_prob = 0.05;
  phase1.max_task_crashes = 1;
  RunCrashResumeScenario("crash", phase1, FaultSpec{});
}

TEST(ExactlyOnceChaosTest, SurvivesQueueStalls) {
  FaultSpec faults;
  faults.seed = TestSeed() ^ 0xe006;
  faults.queue_stall_prob = 0.01;
  faults.queue_stall_micros = 80;
  RunCrashResumeScenario("stalls", faults, faults);
}

TEST(ExactlyOnceChaosTest, SurvivesAckerEventLoss) {
  FaultSpec faults;
  faults.seed = TestSeed() ^ 0xe007;
  faults.acker_loss_prob = 0.01;
  RunCrashResumeScenario("acker_loss", faults, faults);
}

TEST(ExactlyOnceChaosTest, SurvivesEverythingAtOnce) {
  FaultSpec phase1;
  phase1.seed = TestSeed() ^ 0xe008;
  phase1.drop_tuple_prob = 0.01;
  phase1.duplicate_tuple_prob = 0.01;
  phase1.delay_delivery_prob = 0.005;
  phase1.delay_max_micros = 100;
  phase1.bolt_throw_prob = 0.005;
  phase1.task_crash_prob = 0.03;
  phase1.max_task_crashes = 1;
  phase1.queue_stall_prob = 0.005;
  phase1.queue_stall_micros = 60;
  phase1.acker_loss_prob = 0.005;
  phase1.barrier_drop_prob = 0.15;
  phase1.barrier_delay_prob = 0.1;
  phase1.barrier_delay_max_micros = 120;
  FaultSpec phase2 = phase1;
  phase2.seed = TestSeed() ^ 0xe009;  // Different schedule, same mix...
  phase2.task_crash_prob = 0.0;       // ...minus live crashes (see above).
  RunCrashResumeScenario("everything", phase1, phase2);
}

// ------------------------------------------------ barrier exactness

TEST(BarrierExactnessTest, EpochFramesHoldExactEmissionPrefixes) {
  // Single chain, no faults, lazy ack timeout (no spurious replays): the
  // barrier after the e*K-th emission must cut the stream exactly there,
  // so epoch e's count frame is precisely the payloads [0, e*K) and the
  // spout frame's cursor is e*K — through a queued edge, and through a
  // fused one, where the barrier reaches the count task inline and it cuts
  // on the spout thread.
  static constexpr int64_t kN = 100;
  constexpr uint64_t kInterval = 25;
  for (const bool fused : {false, true}) {
    SCOPED_TRACE(fused ? "fused" : "queued");
    KvCheckpointStore store;
    auto holder = std::make_shared<CountHolder>();

    TopologyBuilder builder;
    builder.AddSpout("src", []() -> std::unique_ptr<Spout> {
      return std::make_unique<ReplayableSequenceSpout>(kN);
    });
    builder.AddBolt(
        "count",
        [holder]() -> std::unique_ptr<Bolt> {
          return std::make_unique<EpochCountBolt>(holder, /*dedup=*/true);
        },
        1, {{"src", Grouping::Global()}});

    EngineConfig config;
    config.semantics = DeliverySemantics::kExactlyOnce;
    config.checkpoint_store = &store;
    config.epoch_interval_tuples = kInterval;
    config.enable_fusion = fused;
    TopologyEngine engine(builder.Build().value(), config);
    engine.Run();

    EXPECT_EQ(engine.fused_edges(), fused ? 1u : 0u);
    EXPECT_EQ(engine.last_complete_epoch(), 4u);
    EXPECT_EQ(engine.epochs_completed(), 4u);
    EXPECT_EQ(engine.epoch_timeouts(), 0u);
    EXPECT_EQ(LastCompleteEpoch(store), 4u);

    for (uint64_t e = 1; e <= 4; e++) {
      std::optional<std::vector<uint8_t>> frame =
          store.Get(EpochTaskKey(e, "count", 0));
      ASSERT_TRUE(frame.has_value()) << "epoch " << e;
      std::map<int64_t, uint64_t> counts;
      DedupLedger ledger;
      ASSERT_TRUE(EpochCountBolt::Decode(*frame, &counts, &ledger).ok());
      ASSERT_EQ(counts.size(), e * kInterval) << "epoch " << e;
      for (uint64_t i = 0; i < e * kInterval; i++) {
        EXPECT_EQ(counts[static_cast<int64_t>(i)], 1u)
            << "epoch " << e << " payload " << i;
      }

      std::optional<std::vector<uint8_t>> spout_frame =
          store.Get(EpochTaskKey(e, "src", 0));
      ASSERT_TRUE(spout_frame.has_value()) << "epoch " << e;
      ByteReader r(*spout_frame);
      uint64_t cursor = 0;
      ASSERT_TRUE(r.GetVarint(&cursor).ok());
      EXPECT_EQ(cursor, e * kInterval) << "epoch " << e;
    }

    std::lock_guard<std::mutex> lock(holder->mu);
    EXPECT_EQ(holder->counts.size(), static_cast<size_t>(kN));
  }
}

// ------------------------------------------------- epoch telemetry

TEST(EpochTelemetryTest, CutsSurfaceInTaskRowsAndReadZeroWithoutEpochs) {
  static constexpr int64_t kN = 100;
  constexpr uint64_t kInterval = 25;
  constexpr uint64_t kEpochs = kN / kInterval;
  for (const bool epochs : {true, false}) {
    SCOPED_TRACE(epochs ? "epochs on" : "epochs off");
    KvCheckpointStore store;
    auto holder = std::make_shared<CountHolder>();
    TopologyBuilder builder;
    builder.AddSpout("src", []() -> std::unique_ptr<Spout> {
      return std::make_unique<ReplayableSequenceSpout>(kN);
    });
    builder.AddBolt(
        "count",
        [holder]() -> std::unique_ptr<Bolt> {
          return std::make_unique<EpochCountBolt>(holder, /*dedup=*/true);
        },
        1, {{"src", Grouping::Global()}});
    EngineConfig config;
    config.semantics = epochs ? DeliverySemantics::kExactlyOnce
                              : DeliverySemantics::kAtLeastOnce;
    if (epochs) {
      config.checkpoint_store = &store;
      config.epoch_interval_tuples = kInterval;
    }
    TopologyEngine engine(builder.Build().value(), config);
    engine.Run();

    const TelemetryReport report = engine.telemetry().BuildReport();
    ASSERT_EQ(report.tasks.size(), 2u);
    for (const TelemetryReport::TaskRow& row : report.tasks) {
      SCOPED_TRACE(row.component);
      if (!epochs) {
        EXPECT_EQ(row.epoch_snapshots, 0u);
        EXPECT_EQ(row.epoch_snapshot_us, 0.0);
        EXPECT_EQ(row.epoch_frame_bytes_max, 0u);
        continue;
      }
      EXPECT_EQ(row.epoch_snapshots, kEpochs);
      EXPECT_GT(row.epoch_snapshot_us, 0.0);
      const std::optional<std::vector<uint8_t>> last =
          store.Get(EpochTaskKey(kEpochs, row.component, row.task_index));
      ASSERT_TRUE(last.has_value());
      EXPECT_GE(row.epoch_frame_bytes_max, last->size());
      if (row.component == "count") {
        // The count frame only grows, so its largest is the last one.
        EXPECT_EQ(row.epoch_frame_bytes_max, last->size());
      }
    }

    std::ostringstream json;
    report.WriteJson(json);
    EXPECT_NE(json.str().find("\"epoch_snapshots\": " +
                              std::to_string(epochs ? kEpochs : 0)),
              std::string::npos);
    std::ostringstream table;
    report.WriteTable(table);
    EXPECT_EQ(table.str().find("epoch snapshots") != std::string::npos,
              epochs);
  }
}

// ---------------------------------------- 50-seed determinism torture

struct EpochFingerprint {
  uint64_t last_complete = 0;
  // Frame key -> bytes, plus completion-marker presence per epoch. Missing
  // frames (skipped epochs) are part of the fingerprint too.
  std::map<std::string, std::vector<uint8_t>> frames;

  bool operator==(const EpochFingerprint& other) const {
    return last_complete == other.last_complete && frames == other.frames;
  }
};

/// One at-most-once chain run (src -> relay -> count, width 1 everywhere)
/// under a lossy fault mix including barrier drops. Width 1 keeps every
/// fault site's consultation order schedule-free and the chain hold-free
/// (a single-producer aligner never waits), so the whole epoch history —
/// which epochs completed and every frame's exact bytes — must be a pure
/// function of the seeds.
EpochFingerprint RunDeterminismChain(uint64_t fault_seed) {
  static constexpr int64_t kN = 300;
  constexpr uint64_t kInterval = 32;
  KvCheckpointStore store;
  auto holder = std::make_shared<CountHolder>();

  TopologyBuilder builder;
  builder.AddSpout("src", []() -> std::unique_ptr<Spout> {
    return std::make_unique<ReplayableSequenceSpout>(kN);
  });
  builder.AddBolt(
      "relay",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& t, OutputCollector* out) { out->Emit(t); });
      },
      1, {{"src", Grouping::Global()}});
  builder.AddBolt(
      "count",
      [holder]() -> std::unique_ptr<Bolt> {
        // Dedup on: at-most-once drops leave holes in the payload sequence,
        // so the frames carry non-empty ledgers, and injected duplicates
        // exercise the drop path.
        return std::make_unique<EpochCountBolt>(holder, /*dedup=*/true);
      },
      1, {{"relay", Grouping::Global()}});

  EngineConfig config;
  config.semantics = DeliverySemantics::kAtMostOnce;
  config.checkpoint_store = &store;
  config.epoch_interval_tuples = kInterval;
  config.telemetry_sample_interval_ms = 0;  // 100 runs: shed the sampler.
  config.faults.seed = fault_seed;
  config.faults.drop_tuple_prob = 0.03;
  config.faults.duplicate_tuple_prob = 0.03;
  config.faults.delay_delivery_prob = 0.01;
  config.faults.delay_max_micros = 50;
  config.faults.bolt_throw_prob = 0.01;
  config.faults.queue_stall_prob = 0.01;
  config.faults.queue_stall_micros = 50;
  config.faults.barrier_drop_prob = 0.1;
  config.faults.barrier_delay_prob = 0.1;
  config.faults.barrier_delay_max_micros = 80;
  TopologyEngine engine(builder.Build().value(), config);
  engine.Run();

  EpochFingerprint fp;
  fp.last_complete = LastCompleteEpoch(store);
  for (uint64_t e = 1; e <= kN / kInterval; e++) {
    for (const char* component : {"src", "count"}) {
      const std::string key = EpochTaskKey(e, component, 0);
      std::optional<std::vector<uint8_t>> frame = store.Get(key);
      if (frame.has_value()) fp.frames[key] = std::move(*frame);
    }
    std::optional<std::vector<uint8_t>> marker =
        store.Get(EpochCompleteKey(e));
    if (marker.has_value()) fp.frames[EpochCompleteKey(e)] = *marker;
  }
  return fp;
}

TEST(EpochDeterminismTortureTest, FiftySeedsProduceBitIdenticalFrames) {
  size_t runs_with_complete_epochs = 0;
  size_t frames_with_retained_ids = 0;
  for (uint64_t i = 0; i < 50; i++) {
    const uint64_t seed = TestSeed() ^ (0xde7e'0000ULL + i * 0x9e37ULL);
    const EpochFingerprint a = RunDeterminismChain(seed);
    const EpochFingerprint b = RunDeterminismChain(seed);
    EXPECT_EQ(a.last_complete, b.last_complete) << "seed " << seed;
    EXPECT_TRUE(a.frames == b.frames)
        << "seed " << seed << ": " << a.frames.size() << " vs "
        << b.frames.size() << " frames, or differing bytes";
    ASSERT_FALSE(a.frames.empty()) << "seed " << seed;
    if (a.last_complete > 0) runs_with_complete_epochs++;
    for (const auto& [key, bytes] : a.frames) {
      if (key.find(":task:count:") == std::string::npos) continue;
      std::map<int64_t, uint64_t> counts;
      DedupLedger ledger;
      ASSERT_TRUE(EpochCountBolt::Decode(bytes, &counts, &ledger).ok())
          << key;
      if (ledger.RetainedIds() > 0) frames_with_retained_ids++;
    }
  }
  // With 10% barrier drops most seeds still complete some epoch; if none
  // did, the fingerprints were vacuously equal and the test proved nothing.
  EXPECT_GT(runs_with_complete_epochs, 25u);
  // Likewise the ledger half: drops must have left holes that the compared
  // frames carry as retained ids.
  EXPECT_GT(frames_with_retained_ids, 0u);
}

// ------------------------------------------- rescale equivalence (N->2N)

struct BlobHolder {
  std::mutex mu;
  std::vector<std::string> blobs;
};

/// src (keyed payloads) -> shard xP (fields on key, key-grouped CM sketch,
/// ledger dedup on the sequence field) -> collect (gathers Finish blobs).
Topology BuildShardTopology(uint32_t parallelism, int64_t limit, int64_t halt,
                            std::shared_ptr<BlobHolder> blobs) {
  TopologyBuilder builder;
  builder.AddSpout("src", [limit, halt]() -> std::unique_ptr<Spout> {
    return std::make_unique<ReplayableSequenceSpout>(
        limit,
        [](int64_t seq) { return Tuple::Of(seq % 37, seq); },
        halt);
  });
  builder.AddBolt(
      "shard",
      []() -> std::unique_ptr<Bolt> {
        return std::make_unique<KeyGroupedSketchBolt<CountMinSketch>>(
            [] { return CountMinSketch(256, 4); },
            [](CountMinSketch& sketch, const Tuple& t) {
              sketch.Add(static_cast<uint64_t>(t.Int(0)));
            },
            /*key_field=*/0, /*dedup_seq_field=*/1);
      },
      parallelism, {{"src", Grouping::Fields(0)}});
  builder.AddBolt(
      "collect",
      [blobs]() -> std::unique_ptr<Bolt> {
        return std::make_unique<FunctionBolt>(
            [blobs](const Tuple& t, OutputCollector* out) {
              (void)out;
              std::lock_guard<std::mutex> lock(blobs->mu);
              blobs->blobs.push_back(t.Str(0));
            });
      },
      1, {{"shard", Grouping::Global()}});
  return builder.Build().value();
}

TEST(RescaleEquivalenceTest, GrowUnderLoadMatchesUnshardedBaseline) {
  // Phase 1 runs 2 shards and dies mid-stream; the last complete epoch's
  // shard frames are rescaled 2 -> 4 and phase 2 finishes the stream on 4
  // shards. The merged sketch must equal (bit-for-bit estimates and total
  // count) a single sketch fed every payload exactly once — resharding
  // must neither lose, duplicate, nor misroute any key group.
  static constexpr int64_t kN = 400;
  static constexpr int64_t kHalt = 220;
  KvCheckpointStore store;

  EngineConfig config;
  config.semantics = DeliverySemantics::kExactlyOnce;
  config.checkpoint_store = &store;
  config.epoch_interval_tuples = 40;

  {
    auto ignored = std::make_shared<BlobHolder>();
    TopologyEngine engine(BuildShardTopology(2, kN, kHalt, ignored), config);
    engine.Run();
  }
  const uint64_t resume = LastCompleteEpoch(store);
  ASSERT_GT(resume, 0u) << "no epoch completed before the simulated crash";
  ASSERT_TRUE(RescaleEpochFrames(store, resume, "shard", 2, 4).ok());

  config.resume_from_epoch = resume;
  auto blobs = std::make_shared<BlobHolder>();
  TopologyEngine engine(BuildShardTopology(4, kN, /*halt=*/-1, blobs),
                        config);
  engine.Run();

  std::lock_guard<std::mutex> lock(blobs->mu);
  ASSERT_EQ(blobs->blobs.size(), 4u);
  CountMinSketch merged(256, 4);
  for (const std::string& blob : blobs->blobs) {
    ASSERT_TRUE(
        state::MergeBlob(merged,
                         std::vector<uint8_t>(blob.begin(), blob.end()))
            .ok());
  }

  CountMinSketch baseline(256, 4);
  for (int64_t seq = 0; seq < kN; seq++) {
    baseline.Add(static_cast<uint64_t>(seq % 37));
  }
  EXPECT_EQ(merged.total_count(), baseline.total_count());
  for (uint64_t key = 0; key < 37; key++) {
    EXPECT_EQ(merged.Estimate(key), baseline.Estimate(key)) << "key " << key;
  }
}

// --------------------------------------- recording composes with epochs

/// Records one run of `topology` under `config` to `path` and returns the
/// parsed recording.
RecordedRun RecordEpochRun(const std::string& path, EngineConfig config,
                           Topology topology) {
  Result<std::unique_ptr<RunRecorder>> recorder =
      RunRecorder::Create(path, config, topology);
  STREAMLIB_CHECK_MSG(recorder.ok(), "recorder create failed: %s",
                      recorder.status().ToString().c_str());
  config.recorder = recorder.value().get();
  {
    TopologyEngine engine(std::move(topology), config);
    engine.Run();
  }
  const Status finalized = recorder.value()->Finalize();
  STREAMLIB_CHECK_MSG(finalized.ok(), "finalize failed: %s",
                      finalized.ToString().c_str());
  Result<RecordedRun> run = ReadRecording(path);
  STREAMLIB_CHECK_MSG(run.ok(), "read recording failed: %s",
                      run.status().ToString().c_str());
  std::remove(path.c_str());
  return std::move(run).value();
}

/// The exactly-once config of the chaos matrix, made replayable: an ack
/// timeout long enough that only fault-hit roots fail (replay.h's
/// contract). Every data-plane and barrier fault kind is armed.
EngineConfig RecordableEpochConfig(KvCheckpointStore* store, uint64_t resume,
                                   bool fused, uint64_t seed) {
  FaultSpec faults;
  faults.seed = seed;
  faults.drop_tuple_prob = 0.01;
  faults.duplicate_tuple_prob = 0.01;
  faults.delay_delivery_prob = 0.01;
  faults.delay_max_micros = 5;
  faults.bolt_throw_prob = 0.01;
  faults.task_crash_prob = 0.004;
  faults.queue_stall_prob = 0.01;
  faults.queue_stall_micros = 5;
  faults.acker_loss_prob = 0.01;
  faults.barrier_drop_prob = 0.05;
  faults.barrier_delay_prob = 0.05;
  faults.barrier_delay_max_micros = 5;
  EngineConfig config = MakeExactlyOnceConfig(store, resume, faults, fused);
  config.ack_timeout_seconds = 0.5;
  config.telemetry_sample_interval_ms = 0;
  return config;
}

/// Highest epoch any barrier record of `run` cuts.
uint64_t LastCutEpoch(const RecordedRun& run) {
  uint64_t last = 0;
  for (const RecordedEmission& record : run.emissions) {
    last = std::max(last, record.tuple.barrier_epoch());
  }
  return last;
}

/// Replays `run` (the one-relay count topology, `fused` or queued) with its
/// frames going to `replay_store`, and requires what the live run left in
/// `live_store` above `resume`: the same summary, the same complete
/// epochs, and byte-identical bolt frames in every complete epoch. Returns
/// how many epochs above `resume` completed.
uint64_t ExpectEpochReplayMatches(const RecordedRun& run, bool fused,
                                  uint64_t resume,
                                  const KvCheckpointStore& live_store,
                                  KvCheckpointStore* replay_store) {
  auto counts = std::make_shared<CountHolder>();
  ReplayOptions options;
  options.checkpoint_store = replay_store;
  ReplayEngine replay(BuildCountTopology(0, -1, counts, /*fused=*/true), run,
                      options);
  const Status prepared = replay.Prepare();
  EXPECT_TRUE(prepared.ok()) << prepared.ToString();
  if (!prepared.ok()) return 0;
  EXPECT_EQ(replay.fused_edges(), fused ? 1u : 0u);
  EXPECT_EQ(replay.Run(), ReplayStop::kEnd);
  const Status verdict = replay.CompareWithRecorded();
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();

  uint64_t complete = 0;
  for (uint64_t e = resume + 1; e <= LastCutEpoch(run); e++) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    const bool live_complete = live_store.Get(EpochCompleteKey(e)).has_value();
    EXPECT_EQ(replay_store->Get(EpochCompleteKey(e)).has_value(),
              live_complete);
    if (!live_complete) continue;
    complete++;
    for (const auto& [component, tasks] :
         {std::pair<const char*, uint32_t>{"relay", 1}, {"count", 2}}) {
      for (uint32_t t = 0; t < tasks; t++) {
        const std::string key = EpochTaskKey(e, component, t);
        EXPECT_EQ(replay_store->Get(key), live_store.Get(key)) << key;
      }
    }
  }
  return complete;
}

bool HasTaskCrash(const RecordedRun& run) {
  return run.summary.faults_by_kind[static_cast<size_t>(
             FaultKind::kTaskCrash)] > 0;
}

// A fresh exactly-once run with task crashes, recorded and replayed, on the
// one-producer chain src -> relay x1 -> count x2 (fields) and on its
// fused src -> relay variant: every aligner has one producer, so the
// replay's barrier path cuts, fences and snapshots exactly as live did.
TEST(EpochRecordingTest, FreshRunWithCrashesReplaysFramesExactly) {
  for (const bool fused : {false, true}) {
    SCOPED_TRACE(fused ? "fused src -> relay" : "queued");
    bool covered = false;
    for (uint64_t attempt = 0; attempt < 8 && !covered; attempt++) {
      SCOPED_TRACE("attempt " + std::to_string(attempt));
      KvCheckpointStore live_store;
      const RecordedRun run = RecordEpochRun(
          ::testing::TempDir() + "epoch_fresh.slfr",
          RecordableEpochConfig(&live_store, 0, fused,
                                TestSeed() ^ (0xe0c0 + attempt)),
          BuildCountTopology(280, -1, std::make_shared<CountHolder>(),
                             /*fused=*/true));
      ASSERT_GT(run.emissions.size(), run.EmissionCount()) << "no cuts";
      if (!HasTaskCrash(run)) continue;
      KvCheckpointStore replay_store;
      covered = ExpectEpochReplayMatches(run, fused, 0, live_store,
                                         &replay_store) > 0;
    }
    EXPECT_TRUE(covered) << "no attempt crashed a task and completed an epoch";
  }
}

// A resumed run: phase 1 dies mid-stream, phase 2 resumes from its last
// complete epoch under faults and is recorded. The replay restores from
// the caller's copy of the resume frames and reproduces phase 2. Phase 2's
// faults leave no epoch above the resume point complete in about one
// attempt in four (a crash fences every later epoch; a dropped barrier
// skips one), so each further attempt resumes from the same frames under a
// seed derived anew from TestSeed() and runs every check again; all twenty
// attempts miss with p < 1e-9.
TEST(EpochRecordingTest, ResumedRunReplaysFramesExactly) {
  for (const bool fused : {false, true}) {
    SCOPED_TRACE(fused ? "fused src -> relay" : "queued");
    KvCheckpointStore phase1_store;
    {
      TopologyEngine engine(
          BuildCountTopology(280, 150, std::make_shared<CountHolder>(),
                             /*fused=*/true),
          MakeExactlyOnceConfig(&phase1_store, 0, FaultSpec{}, fused));
      engine.Run();
    }
    const uint64_t resume = LastCompleteEpoch(phase1_store);
    ASSERT_GT(resume, 0u);
    const std::string frames = ::testing::TempDir() + "epoch_resume.ckpt";
    ASSERT_TRUE(phase1_store.SaveToFile(frames).ok());

    bool covered = false;
    for (uint64_t attempt = 0; attempt < 20 && !covered; attempt++) {
      SCOPED_TRACE("attempt " + std::to_string(attempt));
      KvCheckpointStore live_store;
      ASSERT_TRUE(live_store.LoadFromFile(frames).ok());
      const RecordedRun run = RecordEpochRun(
          ::testing::TempDir() + "epoch_resumed.slfr",
          RecordableEpochConfig(&live_store, resume, fused,
                                TestSeed() ^ (0xe0c1 + (attempt << 8))),
          BuildCountTopology(280, -1, std::make_shared<CountHolder>(),
                             /*fused=*/true));
      EXPECT_EQ(run.config.resume_from_epoch, resume);
      KvCheckpointStore replay_store;
      ASSERT_TRUE(replay_store.LoadFromFile(frames).ok());
      covered = ExpectEpochReplayMatches(run, fused, resume, live_store,
                                         &replay_store) > 0;
    }
    std::remove(frames.c_str());
    EXPECT_TRUE(covered) << "no attempt completed an epoch past the resume";
  }
}

// Stepping an epoch recording: a barrier record is one Step() unit, and
// emission counts and indices skip barrier records. Self-bisection needs
// no caller store — the replay writes its frames into one it owns.
TEST(EpochRecordingTest, BarrierRecordsStepButNeverCountAsEmissions) {
  KvCheckpointStore live_store;
  EngineConfig config = MakeExactlyOnceConfig(&live_store, 0, FaultSpec{});
  config.telemetry_sample_interval_ms = 0;
  config.ack_timeout_seconds = 5.0;  // Nothing fails, so nothing re-emits.
  const RecordedRun run = RecordEpochRun(
      ::testing::TempDir() + "epoch_step.slfr", config,
      BuildCountTopology(100, -1, std::make_shared<CountHolder>(),
                         /*fused=*/true));
  const uint64_t emissions = run.EmissionCount();
  const uint64_t cuts = run.emissions.size() - emissions;
  ASSERT_EQ(emissions, 100u);
  ASSERT_EQ(cuts, 100u / 32);

  ReplayEngine replay(BuildCountTopology(0, -1, std::make_shared<CountHolder>(),
                                         /*fused=*/true),
                      run);
  ASSERT_TRUE(replay.Prepare().ok());
  EXPECT_EQ(replay.total_emissions(), emissions);
  uint64_t record_steps = 0;
  uint64_t cut_steps = 0;
  while (!replay.Done()) {
    const bool between_trees = replay.pending_deliveries() == 0;
    const uint64_t before = replay.emissions_processed();
    replay.Step();
    if (!between_trees || replay.Done()) continue;
    record_steps++;
    if (replay.emissions_processed() == before) cut_steps++;
  }
  EXPECT_EQ(record_steps, run.emissions.size());
  EXPECT_EQ(cut_steps, cuts);
  EXPECT_EQ(replay.emissions_processed(), emissions);
  EXPECT_TRUE(replay.CompareWithRecorded().ok());

  ReplayEngine probe(BuildCountTopology(0, -1, std::make_shared<CountHolder>(),
                                        /*fused=*/true),
                     run);
  ASSERT_TRUE(probe.Prepare().ok());
  ASSERT_TRUE(probe.RunToEmission(40).ok());
  EXPECT_EQ(probe.emissions_processed(), 40u);
  EXPECT_EQ(probe.pending_deliveries(), 0u);

  const auto topology = [] {
    return BuildCountTopology(0, -1, std::make_shared<CountHolder>(),
                              /*fused=*/true);
  };
  Result<std::optional<uint64_t>> divergence = FindFirstDivergence(
      ReplayTarget{topology, &run}, ReplayTarget{topology, &run});
  ASSERT_TRUE(divergence.ok()) << divergence.status().ToString();
  EXPECT_FALSE(divergence.value().has_value());
}

// Barrier records that name a bolt task, carry epoch 0, or do not increase
// per task are Corruption on read.
TEST(EpochRecordingTest, MalformedBarrierRecordsAreCorruption) {
  KvCheckpointStore store;
  EngineConfig config = MakeExactlyOnceConfig(&store, 0, FaultSpec{});
  const Topology topology = BuildCountTopology(
      0, -1, std::make_shared<CountHolder>(), /*fused=*/true);
  const std::string path = ::testing::TempDir() + "epoch_corrupt.slfr";
  // Global task indices: src = 0, relay = 1, count = 2..3.
  auto read_code = [&](const std::vector<std::pair<uint32_t, uint64_t>>& cuts) {
    Result<std::unique_ptr<RunRecorder>> recorder =
        RunRecorder::Create(path, config, topology);
    EXPECT_TRUE(recorder.ok());
    recorder.value()->RecordEmission(0, Tuple::Of(int64_t{0}));
    for (const auto& [task, epoch] : cuts) {
      recorder.value()->RecordEmission(task, Tuple::Barrier(epoch));
    }
    EXPECT_TRUE(recorder.value()->Finalize().ok());
    return ReadRecording(path).status().code();
  };
  EXPECT_EQ(read_code({{0, 1}, {0, 2}}), StatusCode::kOk);
  EXPECT_EQ(read_code({{1, 1}}), StatusCode::kCorruption);  // Bolt task.
  EXPECT_EQ(read_code({{0, 2}, {0, 2}}), StatusCode::kCorruption);
  EXPECT_EQ(read_code({{0, 2}, {0, 1}}), StatusCode::kCorruption);

  // Epoch 0 has no Tuple::Barrier; craft its record with a valid CRC.
  ASSERT_EQ(read_code({{0, 1}}), StatusCode::kOk);
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  auto records = [](uint64_t epoch) {
    ByteWriter w;
    w.PutVarint(2);
    w.PutVarint(0);
    w.PutU8(0);  // Emission.
    EncodeTuple(w, Tuple::Of(int64_t{0}));
    w.PutVarint(0);
    w.PutU8(1);  // Epoch cut.
    w.PutVarint(epoch);
    return w.TakeBytes();
  };
  auto code_of = [&](const std::vector<uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.close();
    return ReadRecording(path).status().code();
  };
  EXPECT_EQ(code_of(WithRecordsPayload(file, records(1))), StatusCode::kOk);
  EXPECT_EQ(code_of(WithRecordsPayload(file, records(0))),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace streamlib::platform
