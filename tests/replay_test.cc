// Record→replay verification suite for the flight recorder (recorder.h)
// and the time-travel replayer (replay.h): the SLFR tuple codec and file
// format round-trip, corruption edges resolve to typed Statuses, replay
// reproduces the recorded run bit-for-bit (counters and sketch state)
// across 100 fault-injected seeds — including a chaos crash-and-restore
// mid-recording — and the debugger surface (breakpoints, stepping, state
// inspection, divergence bisection) behaves as documented.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/random.h"
#include "common/serde.h"
#include "common/state.h"
#include "common/status.h"
#include "core/frequency/count_min_sketch.h"
#include "platform/checkpoint.h"
#include "platform/components.h"
#include "platform/engine.h"
#include "platform/fault.h"
#include "platform/recorder.h"
#include "platform/replay.h"
#include "platform/replayable_log.h"
#include "platform/stream_operators.h"
#include "platform/topology.h"
#include "recording_util.h"
#include "test_seed.h"

namespace streamlib::platform {
namespace {

// Paths include the pid: ctest runs each discovered test as its own
// process, possibly in parallel, and they must not share scratch files.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "replay_test_" + std::to_string(::getpid()) +
         "_" + name;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Deterministic (word, sequence) generator; `diverge_at` swaps in a
// sentinel word at one index to plant a known divergence between runs.
class WordGen {
 public:
  WordGen(uint64_t seed, uint64_t n, int64_t diverge_at = -1)
      : rng_(seed), n_(n), diverge_at_(diverge_at) {}

  std::optional<Tuple> Next() {
    if (i_ >= n_) return std::nullopt;
    const int64_t i = static_cast<int64_t>(i_++);
    std::string word = "w" + std::to_string(rng_.NextBounded(50));
    if (i == diverge_at_) word = "DIVERGENT";
    return Tuple::Of(std::move(word), i);
  }

 private:
  Rng rng_;
  uint64_t n_;
  uint64_t i_ = 0;
  int64_t diverge_at_;
};

// Shared side-state of one pipeline build. Factories capture the
// shared_ptrs, so the parts may go out of scope before the topology.
struct PipelineParts {
  std::shared_ptr<KvCheckpointStore> store =
      std::make_shared<KvCheckpointStore>();
  std::shared_ptr<std::vector<uint8_t>> merged =
      std::make_shared<std::vector<uint8_t>>();
  // cm bolts built: one per task, plus one per crash restart.
  std::shared_ptr<std::atomic<uint64_t>> cm_builds =
      std::make_shared<std::atomic<uint64_t>>(0);
};

// Busy-waits `micros` microseconds (none at 0).
void Spin(uint32_t micros) {
  if (micros == 0) return;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(micros);
  while (std::chrono::steady_clock::now() < until) {
  }
}

// The contract-conformant pipeline every test here replays:
//   src x1 -> relay x1 (shuffle) -> cm x`cm_parallelism` (fields, sketch
//   checkpoints) -> merge x1 (global, captures the merged blob).
// Every run-phase bolt has exactly one producer task, as the replay
// determinism contract requires. With `log` set the spout replays the
// log (at-least-once redelivery included); otherwise it generates
// `n` words from `seed`. Each cm update spins `cm_spin_micros`, so a slow
// cm's pops return full batches. With `spout_broadcast` there is no relay:
// the spout broadcasts every word to every cm task.
Topology BuildPipeline(uint64_t seed, uint64_t n, PipelineParts* parts,
                       std::shared_ptr<ReplayableLog> log = nullptr,
                       int64_t diverge_at = -1, uint32_t cm_parallelism = 3,
                       uint64_t checkpoint_every = 48,
                       uint32_t cm_spin_micros = 0,
                       bool spout_broadcast = false) {
  TopologyBuilder builder;
  if (log != nullptr) {
    const uint64_t end = log->Size();
    builder.AddSpout("src", [log, end] {
      return std::make_unique<LogReplaySpout>(log.get(), 0, end);
    });
  } else {
    auto gen = std::make_shared<WordGen>(seed, n, diverge_at);
    builder.AddSpout("src", [gen] {
      return std::make_unique<GeneratorSpout>([gen] { return gen->Next(); });
    });
  }
  if (!spout_broadcast) {
    builder.AddBolt(
        "relay",
        [] {
          return std::make_unique<FunctionBolt>(
              [](const Tuple& input, OutputCollector* out) {
                out->Emit(input);
              });
        },
        1, {{"src", Grouping::Shuffle()}});
  }
  auto store = parts->store;
  auto cm_builds = parts->cm_builds;
  builder.AddBolt(
      "cm",
      [store, cm_builds, checkpoint_every, cm_spin_micros] {
        cm_builds->fetch_add(1, std::memory_order_relaxed);
        return std::make_unique<SketchBolt<CountMinSketch>>(
            CountMinSketch(512, 4),
            [cm_spin_micros](CountMinSketch& sketch, const Tuple& input) {
              Spin(cm_spin_micros);
              sketch.Add(input.Str(0));
            },
            FieldKeyBatchUpdate<CountMinSketch>(0),
            SketchCheckpoint{store.get(), "cm", checkpoint_every});
      },
      cm_parallelism,
      {spout_broadcast ? Subscription{"src", Grouping::Broadcast()}
                       : Subscription{"relay", Grouping::Fields(0)}});
  auto merged = parts->merged;
  builder.AddBolt(
      "merge",
      [merged] {
        return std::make_unique<SketchCombinerBolt<CountMinSketch>>(
            CountMinSketch(512, 4),
            [merged](const CountMinSketch& sketch, OutputCollector*) {
              *merged = state::ToBlob(sketch);
            });
      },
      1, {{"cm", Grouping::Global()}});
  Result<Topology> topology = builder.Build();
  STREAMLIB_CHECK_MSG(topology.ok(), "pipeline build failed: %s",
                      topology.status().ToString().c_str());
  return std::move(topology).value();
}

// Records one live run of the pipeline to `path` and returns the parsed
// recording. The run's side effects (final checkpoints, merged blob)
// land in whatever PipelineParts the topology was built with.
RecordedRun RecordRun(const std::string& path, EngineConfig config,
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
  return std::move(run).value();
}

// ---------------------------------------------------------- tuple codec

TEST(TupleCodecTest, RoundTripsEveryFieldType) {
  const Tuple original(std::vector<Value>{
      Value{}, Value{true}, Value{false}, Value{int64_t{-42}},
      Value{int64_t{INT64_MIN}}, Value{int64_t{INT64_MAX}}, Value{3.25},
      Value{-0.0}, Value{std::string("hello world")}, Value{std::string()}});
  ByteWriter w;
  EncodeTuple(w, original);
  ByteReader r(w.bytes());
  Tuple decoded;
  const Status status = DecodeTuple(r, &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded.values(), original.values());
}

TEST(TupleCodecTest, RoundTripsEmptyTuple) {
  ByteWriter w;
  EncodeTuple(w, Tuple());
  ByteReader r(w.bytes());
  Tuple decoded;
  ASSERT_TRUE(DecodeTuple(r, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(TupleCodecTest, RejectsUnknownFieldTag) {
  ByteWriter w;
  w.PutVarint(1);  // one field
  w.PutU8(9);      // no such tag
  ByteReader r(w.bytes());
  Tuple decoded;
  EXPECT_EQ(DecodeTuple(r, &decoded).code(), StatusCode::kCorruption);
}

TEST(TupleCodecTest, RejectsTruncatedPayload) {
  ByteWriter w;
  EncodeTuple(w, Tuple::Of(std::string("abcdef"), int64_t{7}));
  std::vector<uint8_t> bytes = w.bytes();
  bytes.resize(bytes.size() - 3);
  ByteReader r(bytes);
  Tuple decoded;
  EXPECT_EQ(DecodeTuple(r, &decoded).code(), StatusCode::kCorruption);
}

// ------------------------------------------------------- file round-trip

TEST(RecorderFormatTest, RoundTripsConfigEmissionsAndSummary) {
  const std::string path = TempPath("roundtrip.slfr");
  PipelineParts parts;
  Topology topology = BuildPipeline(1, 4, &parts);

  EngineConfig config;
  config.mode = ExecutionMode::kMultiplexed;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  config.queue_capacity = 77;
  config.seed = 424242;
  config.ack_timeout_seconds = 2.5;
  config.enable_spsc = false;
  config.enable_fusion = true;
  config.faults.seed = 99;
  config.faults.drop_tuple_prob = 0.125;
  config.faults.max_task_crashes = 3;

  Result<std::unique_ptr<RunRecorder>> recorder =
      RunRecorder::Create(path, config, topology);
  ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
  recorder.value()->RecordEmission(0, Tuple::Of(std::string("alpha"),
                                                int64_t{1}));
  recorder.value()->RecordEmission(0, Tuple::Of(std::string("beta"),
                                                int64_t{2}));
  RunSummary summary;
  summary.completed_roots = 2;
  summary.faults_by_kind[static_cast<size_t>(FaultKind::kDropTuple)] = 5;
  summary.tasks.resize(6);
  summary.tasks[0].emitted = 2;
  recorder.value()->SetSummary(summary);
  ASSERT_TRUE(recorder.value()->Finalize().ok());
  EXPECT_EQ(recorder.value()->records_written(), 2u);

  Result<RecordedRun> run = ReadRecording(path);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const RecordedRun& r = run.value();
  EXPECT_EQ(r.config.mode, ExecutionMode::kMultiplexed);
  EXPECT_EQ(r.config.semantics, DeliverySemantics::kAtLeastOnce);
  EXPECT_EQ(r.config.queue_capacity, 77u);
  EXPECT_EQ(r.config.seed, 424242u);
  EXPECT_EQ(r.config.ack_timeout_seconds, 2.5);
  EXPECT_FALSE(r.config.enable_spsc);
  EXPECT_TRUE(r.config.enable_fusion);
  EXPECT_EQ(r.config.faults.seed, 99u);
  EXPECT_EQ(r.config.faults.drop_tuple_prob, 0.125);
  EXPECT_EQ(r.config.faults.max_task_crashes, 3u);
  EXPECT_EQ(r.config.recorder, nullptr);

  ASSERT_EQ(r.emissions.size(), 2u);
  EXPECT_EQ(r.emissions[0].spout_task, 0u);
  EXPECT_EQ(r.emissions[0].tuple.Str(0), "alpha");
  EXPECT_EQ(r.emissions[1].tuple.Int(1), 2);

  ASSERT_TRUE(r.has_summary);
  EXPECT_EQ(r.summary.completed_roots, 2u);
  EXPECT_EQ(
      r.summary.faults_by_kind[static_cast<size_t>(FaultKind::kDropTuple)],
      5u);
  ASSERT_EQ(r.summary.tasks.size(), 6u);
  EXPECT_EQ(r.summary.tasks[0].emitted, 2u);

  EXPECT_TRUE(MatchesTopology(r.fingerprint, topology).ok());
  PipelineParts other_parts;
  const Topology narrower =
      BuildPipeline(1, 4, &other_parts, nullptr, -1, /*cm_parallelism=*/2);
  EXPECT_EQ(MatchesTopology(r.fingerprint, narrower).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(RecorderFormatTest, TargetAppearsOnlyOnFinalize) {
  const std::string path = TempPath("atomic.slfr");
  std::remove(path.c_str());
  PipelineParts parts;
  EngineConfig config;
  Result<std::unique_ptr<RunRecorder>> recorder =
      RunRecorder::Create(path, config, BuildPipeline(1, 4, &parts));
  ASSERT_TRUE(recorder.ok());
  recorder.value()->RecordEmission(0, Tuple::Of(int64_t{1}));
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(FileExists(path + ".tmp"));
  ASSERT_TRUE(recorder.value()->Finalize().ok());
  EXPECT_TRUE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
  EXPECT_TRUE(recorder.value()->Finalize().ok());  // Idempotent.
  std::remove(path.c_str());
}

// ------------------------------------------------------ corruption edges

class RecordingCorruptionTest : public ::testing::Test {
 protected:
  // One pristine recording all mutation cases start from.
  void SetUp() override {
    path_ = TempPath("corrupt.slfr");
    PipelineParts parts;
    EngineConfig config;
    Result<std::unique_ptr<RunRecorder>> recorder =
        RunRecorder::Create(path_, config, BuildPipeline(1, 4, &parts));
    ASSERT_TRUE(recorder.ok());
    recorder.value()->RecordEmission(0, Tuple::Of(std::string("alpha"),
                                                  int64_t{1}));
    recorder.value()->RecordEmission(0, Tuple::Of(std::string("beta"),
                                                  int64_t{2}));
    ASSERT_TRUE(recorder.value()->Finalize().ok());
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), 40u);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  StatusCode ReadCodeAfter(const std::vector<uint8_t>& mutated) {
    WriteFileBytes(path_, mutated);
    return ReadRecording(path_).status().code();
  }

  std::string path_;
  std::vector<uint8_t> bytes_;
};

TEST_F(RecordingCorruptionTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadRecording(TempPath("nonexistent.slfr")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(RecordingCorruptionTest, ZeroLengthFileIsCorruption) {
  EXPECT_EQ(ReadCodeAfter({}), StatusCode::kCorruption);
}

TEST_F(RecordingCorruptionTest, BadMagicIsCorruption) {
  std::vector<uint8_t> mutated = bytes_;
  mutated[0] ^= 0xff;
  EXPECT_EQ(ReadCodeAfter(mutated), StatusCode::kCorruption);
}

// Version 1 predates enable_fusion in the meta segment and version 2 the
// epoch fields and cut records; no reader keeps either.
TEST_F(RecordingCorruptionTest, UnsupportedVersionIsInvalidArgument) {
  ASSERT_EQ(bytes_[4], kRecordingVersion);
  for (const uint8_t version : {uint8_t{1}, uint8_t{2}, uint8_t{99}}) {
    std::vector<uint8_t> mutated = bytes_;
    mutated[4] = version;  // Version field follows the u32 magic.
    EXPECT_EQ(ReadCodeAfter(mutated), StatusCode::kInvalidArgument)
        << "version " << static_cast<int>(version);
  }
}

TEST_F(RecordingCorruptionTest, TruncatedSegmentIsCorruption) {
  // Chop from several depths: mid end-segment, mid records payload, and
  // right after the file header (no meta segment at all).
  for (const size_t keep :
       {bytes_.size() - 5, bytes_.size() / 2, size_t{8}, size_t{9}}) {
    std::vector<uint8_t> mutated(bytes_.begin(),
                                 bytes_.begin() + static_cast<long>(keep));
    EXPECT_EQ(ReadCodeAfter(mutated), StatusCode::kCorruption)
        << "kept " << keep << " of " << bytes_.size() << " bytes";
  }
}

TEST_F(RecordingCorruptionTest, CrcMismatchIsCorruption) {
  // Flip one payload byte in the meta segment (header is 8 bytes, the
  // segment frame is 9, so offset 20 sits inside the meta payload).
  std::vector<uint8_t> mutated = bytes_;
  mutated[20] ^= 0x01;
  EXPECT_EQ(ReadCodeAfter(mutated), StatusCode::kCorruption);
}

// A CRC-valid record naming task 2^32 must not decode as task 0 (the
// spout) by truncation: 32-bit fields are range-checked.
TEST_F(RecordingCorruptionTest, ThirtyTwoBitOverflowIsCorruption) {
  auto records = [](uint64_t first_task) {
    ByteWriter w;
    w.PutVarint(2);
    w.PutVarint(first_task);
    w.PutU8(0);  // An emission record.
    EncodeTuple(w, Tuple::Of(std::string("alpha"), int64_t{1}));
    w.PutVarint(0);
    w.PutU8(0);
    EncodeTuple(w, Tuple::Of(std::string("beta"), int64_t{2}));
    return w.TakeBytes();
  };
  // The crafted segment is sound with a real task index...
  EXPECT_EQ(ReadCodeAfter(WithRecordsPayload(bytes_, records(0))),
            StatusCode::kOk);
  // ...and corrupt with one a uint32_t cannot hold.
  EXPECT_EQ(ReadCodeAfter(WithRecordsPayload(bytes_, records(1ull << 32))),
            StatusCode::kCorruption);
}

TEST_F(RecordingCorruptionTest, TrailingGarbageIsCorruption) {
  std::vector<uint8_t> mutated = bytes_;
  mutated.insert(mutated.end(), {0xde, 0xad, 0xbe, 0xef});
  EXPECT_EQ(ReadCodeAfter(mutated), StatusCode::kCorruption);
}

// ------------------------------------------------- record/replay torture

EngineConfig TortureConfig(uint64_t seed, uint64_t k) {
  EngineConfig config;
  config.seed = seed;
  config.mode = (k % 4 < 2) ? ExecutionMode::kDedicated
                            : ExecutionMode::kMultiplexed;
  config.multiplexed_threads = 2;
  config.semantics = (k % 2 == 0) ? DeliverySemantics::kAtLeastOnce
                                  : DeliverySemantics::kAtMostOnce;
  // Far above the microseconds a 160-tuple tree needs, so only
  // structurally unresolvable (fault-hit) trees time out — the contract's
  // requirement — while failed roots still resolve quickly.
  config.ack_timeout_seconds = 0.1;
  config.telemetry_sample_interval_ms = 0;
  // Armed faults keep every delivery on the stage runner; the flag still
  // round-trips through the recording.
  config.enable_bolt_batch = (k % 2 == 0);
  config.faults.seed = seed ^ 0xfau;
  config.faults.drop_tuple_prob = 0.02;
  config.faults.duplicate_tuple_prob = 0.02;
  config.faults.delay_delivery_prob = 0.01;
  config.faults.delay_max_micros = 20;
  config.faults.bolt_throw_prob = 0.01;
  config.faults.acker_loss_prob = 0.005;
  if (k % 3 == 0) {
    config.faults.queue_stall_prob = 0.02;
    config.faults.queue_stall_micros = 30;
  }
  // Crashes on half the seeds, at the default budget of one per task.
  if (k % 8 < 4) config.faults.task_crash_prob = 0.01;
  return config;
}

// The tentpole acceptance: across 100 seeds spanning both execution
// modes, both delivery semantics, generator and log-replay spouts, the
// relay and spout-broadcast shapes, and a live fault mix
// (drops/dups/delays/throws/stalls/acker losses, crashes on half the
// seeds), replaying the recording reproduces the recorded run exactly —
// every per-task counter, every per-kind fault count, and every sketch's
// state blob, byte for byte.
TEST(RecordReplayTortureTest, HundredSeedsReplayBitIdentical) {
  const uint64_t base = TestSeed();
  const uint64_t n = 160;
  for (uint64_t k = 0; k < 100; k++) {
    SCOPED_TRACE("seed index " + std::to_string(k));
    const uint64_t seed = base ^ (k * 0x9e3779b9u + 1);
    const std::string path = TempPath("torture.slfr");

    // Two runs in ten, one per semantics, replay a prefilled log through
    // LogReplaySpout; at-least-once redelivers its failed roots, and the
    // redeliveries are emissions in the recording.
    std::shared_ptr<ReplayableLog> log;
    if (k % 10 < 2) {
      log = std::make_shared<ReplayableLog>();
      WordGen gen(seed, n);
      while (std::optional<Tuple> tuple = gen.Next()) {
        log->Append(*std::move(tuple));
      }
    }
    // Every third run broadcasts from the spout to every cm task, with
    // both spouts, modes and semantics among those runs.
    const bool broadcast = k % 3 == 1;
    auto pipeline = [&](PipelineParts* parts) {
      return BuildPipeline(seed, n, parts, log, -1, 3, 48, 0, broadcast);
    };

    const EngineConfig config = TortureConfig(seed, k);
    PipelineParts live;
    const RecordedRun run = RecordRun(path, config, pipeline(&live));
    ASSERT_TRUE(run.has_summary);
    ASSERT_FALSE(run.summary.tasks.empty());
    EXPECT_EQ(run.emissions.size(), run.summary.tasks[0].emitted);

    PipelineParts replayed;
    ReplayEngine replay(pipeline(&replayed), run);
    const Status prepared = replay.Prepare();
    ASSERT_TRUE(prepared.ok()) << prepared.ToString();
    EXPECT_EQ(replay.Run(), ReplayStop::kEnd);

    const Status verdict = replay.CompareWithRecorded();
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();

    // Sketch state, not just counters: the merged result and every
    // shard's final blob must match the live run's bytes.
    EXPECT_FALSE(live.merged->empty());
    EXPECT_EQ(*live.merged, *replayed.merged);
    for (uint32_t shard = 0; shard < 3; shard++) {
      Result<std::vector<uint8_t>> blob = replay.BoltStateBlob("cm", shard);
      ASSERT_TRUE(blob.ok()) << blob.status().ToString();
      Result<std::vector<uint8_t>> live_blob =
          live.store->Fetch("cm:" + std::to_string(shard));
      ASSERT_TRUE(live_blob.ok()) << live_blob.status().ToString();
      EXPECT_EQ(blob.value(), live_blob.value());
    }
    std::remove(path.c_str());
  }
}

// Chaos crash-and-restore mid-recording: bolt tasks crash, restart from
// their factory, and restore their sketches from the checkpoint store —
// and the replay, maintaining its own store at the same cadence, walks
// through the identical crashes and restores and still reproduces
// counters and state exactly. Each task may crash once (the default
// budget), and at p = 0.02 over ~130 updates most cm tasks spend that
// budget and then draw crashes it denies, each on its own thread. The run
// keeps the default batch size and batch path, and the cm tasks are slow
// enough that their pops return full batches, so a crash lands
// mid-batch; the replay steps one message at a time. Every recording
// must replay exactly, with the cm tasks restarted as often as live, and
// at least 10 of the 20 must crash more than one cm task.
TEST(RecordReplayChaosTest, CrashAndRestoreMidRecordingReplaysIdentically) {
  const uint64_t n = 400;
  uint64_t multi_cm_crashes = 0;  // Recordings crashing >1 cm task.
  for (uint64_t attempt = 0; attempt < 20; attempt++) {
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    const uint64_t seed = TestSeed() ^ (0xc0ffee + attempt * 1315423911ull);
    const std::string path = TempPath("chaos.slfr");

    EngineConfig config;
    config.seed = seed;
    config.semantics = DeliverySemantics::kAtLeastOnce;
    config.ack_timeout_seconds = 0.15;
    config.telemetry_sample_interval_ms = 0;
    config.faults.seed = seed ^ 0x5eedu;
    config.faults.task_crash_prob = 0.02;
    config.faults.bolt_throw_prob = 0.005;
    config.faults.drop_tuple_prob = 0.01;
    config.faults.acker_loss_prob = 0.005;

    PipelineParts live;
    const RecordedRun run =
        RecordRun(path, config,
                  BuildPipeline(seed, n, &live, nullptr, -1, 3,
                                /*checkpoint_every=*/32,
                                /*cm_spin_micros=*/10));
    std::remove(path.c_str());
    ASSERT_TRUE(run.has_summary);
    const uint64_t cm_crashes = live.cm_builds->load() - 3;
    if (cm_crashes > 1) multi_cm_crashes++;

    PipelineParts replayed;
    ReplayEngine replay(
        BuildPipeline(seed, n, &replayed, nullptr, -1, 3, 32), run);
    ASSERT_TRUE(replay.Prepare().ok());
    EXPECT_EQ(replay.Run(), ReplayStop::kEnd);
    const Status verdict = replay.CompareWithRecorded();
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
    EXPECT_EQ(replayed.cm_builds->load() - 3, cm_crashes);
    EXPECT_EQ(*live.merged, *replayed.merged);
    for (uint32_t shard = 0; shard < 3; shard++) {
      Result<std::vector<uint8_t>> blob = replay.BoltStateBlob("cm", shard);
      ASSERT_TRUE(blob.ok());
      Result<std::vector<uint8_t>> live_blob =
          live.store->Fetch("cm:" + std::to_string(shard));
      ASSERT_TRUE(live_blob.ok());
      EXPECT_EQ(blob.value(), live_blob.value());
    }
  }
  // Each cm task crashes with p ~ 0.93, so a recording crashes fewer than
  // two with p ~ 0.02.
  EXPECT_GE(multi_cm_crashes, 10u);
}

// ------------------------------------------------ fused chains replay

// src -> map -> sink, `parallelism` tasks each, every spout task emitting
// `n` tuples. With `fuse_spout_edge` the spout edge is a shuffle and the
// whole chain is fusible; otherwise it is fields-grouped, stays queued, and
// only map -> sink is (a bolt-headed chain).
Topology FusibleChain(bool fuse_spout_edge, uint32_t parallelism, uint64_t n,
                      std::shared_ptr<std::atomic<uint64_t>> sunk) {
  TopologyBuilder builder;
  builder.AddSpout(
      "src",
      [n] {
        auto gen = std::make_shared<WordGen>(0x5eed, n);
        return std::make_unique<GeneratorSpout>([gen] { return gen->Next(); });
      },
      parallelism);
  builder.AddBolt(
      "map",
      [] {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& input, OutputCollector* out) { out->Emit(input); });
      },
      parallelism,
      {{"src", fuse_spout_edge ? Grouping::Shuffle() : Grouping::Fields(0)}});
  builder.AddBolt(
      "sink",
      [sunk] {
        return std::make_unique<FunctionBolt>(
            [sunk](const Tuple&, OutputCollector*) {
              sunk->fetch_add(1, std::memory_order_relaxed);
            });
      },
      parallelism, {{"map", Grouping::Shuffle()}});
  return builder.Build().value();
}

// Every data-plane fault kind.
EngineConfig FaultyFusionConfig(DeliverySemantics semantics) {
  EngineConfig config;
  config.seed = TestSeed() ^ 0xf05e;
  config.semantics = semantics;
  config.enable_fusion = true;
  config.ack_timeout_seconds = 0.5;
  config.telemetry_sample_interval_ms = 0;
  config.faults.seed = config.seed ^ 0xfau;
  config.faults.drop_tuple_prob = 0.02;
  config.faults.duplicate_tuple_prob = 0.02;
  config.faults.delay_delivery_prob = 0.01;
  config.faults.delay_max_micros = 5;
  config.faults.bolt_throw_prob = 0.02;
  config.faults.acker_loss_prob = 0.02;
  config.faults.queue_stall_prob = 0.02;
  config.faults.queue_stall_micros = 5;
  return config;
}

// Records the chain under `config`, checks the live fused-edge count and
// that each of `fired` fired, then replays it and requires an exact match,
// sink count included. The recording carries enable_fusion, so the
// replay builds the live plan (the same fused-edge count) and runs each
// fused delivery task i -> task i inline, drawing what the live fused hop
// drew.
void ExpectRecordedChainReplaysExactly(EngineConfig config,
                                       bool fuse_spout_edge,
                                       uint32_t parallelism,
                                       size_t want_fused_edges,
                                       const std::vector<FaultKind>& fired) {
  const uint64_t n = 2000 / parallelism;
  const std::string path = TempPath("fused.slfr");
  auto live_sunk = std::make_shared<std::atomic<uint64_t>>(0);
  Topology topology = FusibleChain(fuse_spout_edge, parallelism, n, live_sunk);
  Result<std::unique_ptr<RunRecorder>> recorder =
      RunRecorder::Create(path, config, topology);
  ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
  config.recorder = recorder.value().get();
  {
    TopologyEngine engine(std::move(topology), config);
    engine.Run();
    EXPECT_EQ(engine.fused_edges(), want_fused_edges);
  }
  ASSERT_TRUE(recorder.value()->Finalize().ok());
  Result<RecordedRun> run = ReadRecording(path);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (FaultKind kind : fired) {
    EXPECT_GT(run.value().summary.faults_by_kind[static_cast<size_t>(kind)],
              0u)
        << FaultKindName(kind);
  }

  auto replay_sunk = std::make_shared<std::atomic<uint64_t>>(0);
  ReplayEngine replay(
      FusibleChain(fuse_spout_edge, parallelism, n, replay_sunk), run.value());
  ASSERT_TRUE(replay.Prepare().ok());
  EXPECT_EQ(replay.fused_edges(), want_fused_edges);
  EXPECT_EQ(replay.Run(), ReplayStop::kEnd);
  const Status verdict = replay.CompareWithRecorded();
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(replay_sunk->load(), live_sunk->load());
  std::remove(path.c_str());
}

const std::vector<FaultKind> kEveryTrackedFault = {
    FaultKind::kDropTuple, FaultKind::kDuplicateTuple, FaultKind::kBoltThrow,
    FaultKind::kAckerEventLoss, FaultKind::kQueueStall};

TEST(RecordReplayFusionTest, FullyFusedChainReplaysExactly) {
  ExpectRecordedChainReplaysExactly(
      FaultyFusionConfig(DeliverySemantics::kAtLeastOnce),
      /*fuse_spout_edge=*/true, /*parallelism=*/1, /*want_fused_edges=*/2,
      kEveryTrackedFault);
}

TEST(RecordReplayFusionTest, BoltHeadedFusedChainReplaysExactly) {
  ExpectRecordedChainReplaysExactly(
      FaultyFusionConfig(DeliverySemantics::kAtLeastOnce),
      /*fuse_spout_edge=*/false, /*parallelism=*/1, /*want_fused_edges=*/1,
      kEveryTrackedFault);
}

// At parallelism 2 a fused shuffle feeds task i from task i, live and
// replayed alike, so each map and sink task has exactly one producer task
// (the replay contract) and two concurrent spout threads still
// replay exactly, at-least-once under every tracked fault.
TEST(RecordReplayFusionTest, ParallelismTwoFusedChainReplaysExactly) {
  ExpectRecordedChainReplaysExactly(
      FaultyFusionConfig(DeliverySemantics::kAtLeastOnce),
      /*fuse_spout_edge=*/true, /*parallelism=*/2, /*want_fused_edges=*/2,
      kEveryTrackedFault);
}

// --------------------------------------------- breakpoints and stepping

// A quiet (no faults, at-most-once) recording for the debugger-surface
// tests. Global task indices: src=0, relay=1, cm=2..4, merge=5.
RecordedRun QuietRecording(uint64_t seed, uint64_t n, PipelineParts* live) {
  EngineConfig config;
  config.telemetry_sample_interval_ms = 0;
  config.enable_fusion = false;  // Relay (task 1) stays queued: breakable.
  return RecordRun(TempPath("quiet.slfr"), config,
                   BuildPipeline(seed, n, live));
}

TEST(ReplayBreakpointTest, TaskTuplePausesBeforeTheNthInput) {
  PipelineParts live;
  const RecordedRun run = QuietRecording(TestSeed() ^ 0xb1, 30, &live);
  PipelineParts replayed;
  ReplayEngine replay(BuildPipeline(0, 0, &replayed), run);
  ASSERT_TRUE(replay.Prepare().ok());
  ASSERT_TRUE(replay
                  .AddBreakpoint(Breakpoint{Breakpoint::Kind::kTaskTuple,
                                            /*task=*/1, /*count=*/5})
                  .ok());
  ASSERT_EQ(replay.Run(), ReplayStop::kBreakpoint);
  EXPECT_EQ(replay.inputs_seen(1), 4u);  // Paused *before* input 5.
  EXPECT_FALSE(replay.Done());
  EXPECT_GE(replay.pending_deliveries(), 1u);
  // Resume past the (persistent but now unmatchable) breakpoint.
  EXPECT_EQ(replay.Run(), ReplayStop::kEnd);
  EXPECT_TRUE(replay.Done());
  EXPECT_EQ(replay.inputs_seen(1), 30u);
  EXPECT_TRUE(replay.CompareWithRecorded().ok());
}

// With fusion on (the default), src -> relay fuses, so neither the spout
// (task 0) nor relay (task 1) has an input queue to break on.
TEST(ReplayBreakpointTest, TaskTupleNeedsAQueuedTask) {
  EngineConfig config;
  config.telemetry_sample_interval_ms = 0;
  PipelineParts live;
  const RecordedRun run =
      RecordRun(TempPath("fused_quiet.slfr"), config,
                BuildPipeline(TestSeed() ^ 0xb2, 30, &live));
  ASSERT_TRUE(run.config.enable_fusion);
  PipelineParts replayed;
  ReplayEngine replay(BuildPipeline(0, 0, &replayed), run);
  const auto on_task = [](size_t task) {
    return Breakpoint{Breakpoint::Kind::kTaskTuple, task, /*count=*/2};
  };
  EXPECT_EQ(replay.AddBreakpoint(on_task(2)).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(replay.Prepare().ok());
  ASSERT_EQ(replay.fused_edges(), 1u);
  EXPECT_EQ(replay.AddBreakpoint(on_task(6)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(replay.AddBreakpoint(on_task(0)).code(),
            StatusCode::kInvalidArgument);
  const Status fused = replay.AddBreakpoint(on_task(1));
  EXPECT_EQ(fused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(fused.message().find("task 0 (src[0])"), std::string::npos)
      << fused.ToString();
  // cm[0] is queued: its breakpoint is accepted and fires.
  ASSERT_TRUE(replay.AddBreakpoint(on_task(2)).ok());
  EXPECT_EQ(replay.Run(), ReplayStop::kBreakpoint);
  EXPECT_EQ(replay.inputs_seen(2), 1u);
  EXPECT_EQ(replay.Run(), ReplayStop::kEnd);
  EXPECT_TRUE(replay.CompareWithRecorded().ok());
}

TEST(ReplayBreakpointTest, FirstFaultPausesOnceThenRunsToEnd) {
  const uint64_t seed = TestSeed() ^ 0xf0;
  EngineConfig config;
  config.telemetry_sample_interval_ms = 0;
  config.faults.seed = seed ^ 1;
  config.faults.drop_tuple_prob = 0.25;
  PipelineParts live;
  const RecordedRun run = RecordRun(TempPath("faulty.slfr"), config,
                                    BuildPipeline(seed, 40, &live));

  PipelineParts replayed;
  ReplayEngine replay(BuildPipeline(0, 0, &replayed), run);
  ASSERT_TRUE(replay.Prepare().ok());
  ASSERT_TRUE(
      replay.AddBreakpoint(Breakpoint{Breakpoint::Kind::kFirstFault, 0, 0})
          .ok());
  ASSERT_EQ(replay.Run(), ReplayStop::kBreakpoint);
  ASSERT_NE(replay.fault_plan(), nullptr);
  EXPECT_GE(replay.fault_plan()->total_injected(), 1u);
  EXPECT_FALSE(replay.Done());
  EXPECT_EQ(replay.Run(), ReplayStop::kEnd);  // One-shot: never re-fires.
  EXPECT_TRUE(replay.CompareWithRecorded().ok());
}

TEST(ReplayBreakpointTest, CheckpointPausesAfterKPuts) {
  PipelineParts live;
  const RecordedRun run = QuietRecording(TestSeed() ^ 0xcc, 200, &live);
  PipelineParts replayed;
  ReplayOptions options;
  options.checkpoint_store = replayed.store.get();
  ReplayEngine replay(BuildPipeline(0, 0, &replayed), run, options);
  ASSERT_TRUE(replay.Prepare().ok());
  ASSERT_TRUE(replay
                  .AddBreakpoint(Breakpoint{Breakpoint::Kind::kCheckpoint, 0,
                                            /*count=*/2})
                  .ok());
  ASSERT_EQ(replay.Run(), ReplayStop::kBreakpoint);
  EXPECT_GE(replayed.store->TotalPuts(), 2u);
  EXPECT_FALSE(replay.Done());
  EXPECT_EQ(replay.Run(), ReplayStop::kEnd);
}

TEST(ReplayStepTest, StepsOneUnitAtATimeToTheEnd) {
  PipelineParts live;
  const RecordedRun run = QuietRecording(TestSeed() ^ 0x57e9, 10, &live);
  PipelineParts replayed;
  ReplayEngine replay(BuildPipeline(0, 0, &replayed), run);
  ASSERT_TRUE(replay.Prepare().ok());
  uint64_t steps = 0;
  while (replay.Step() == ReplayStop::kStep) {
    steps++;
    ASSERT_LT(steps, 10000u) << "replay never terminated";
  }
  // At minimum each of the 10 emissions plus each delivery at relay and
  // cm is its own unit.
  EXPECT_GE(steps, 30u);
  EXPECT_TRUE(replay.Done());
  EXPECT_EQ(replay.emissions_processed(), 10u);
  EXPECT_EQ(replay.Step(), ReplayStop::kEnd);  // Idempotent at the end.
  EXPECT_TRUE(replay.CompareWithRecorded().ok());
}

TEST(ReplayStepTest, RunToEmissionHoldsBetweenTreesAndClamps) {
  PipelineParts live;
  const RecordedRun run = QuietRecording(TestSeed() ^ 0xa7, 20, &live);
  PipelineParts replayed;
  ReplayEngine replay(BuildPipeline(0, 0, &replayed), run);
  ASSERT_TRUE(replay.Prepare().ok());
  ASSERT_TRUE(replay.RunToEmission(3).ok());
  EXPECT_EQ(replay.emissions_processed(), 3u);
  EXPECT_EQ(replay.pending_deliveries(), 0u);  // Tree fully drained.
  EXPECT_FALSE(replay.Done());                 // Finish pass not run.
  ASSERT_TRUE(replay.RunToEmission(1u << 30).ok());  // Clamps to length.
  EXPECT_EQ(replay.emissions_processed(), replay.total_emissions());
  EXPECT_FALSE(replay.Done());
  EXPECT_EQ(replay.Run(), ReplayStop::kEnd);
  EXPECT_TRUE(replay.Done());
}

TEST(ReplayInspectionTest, BoltStateBlobReportsTypedErrors) {
  PipelineParts live;
  const RecordedRun run = QuietRecording(TestSeed() ^ 0x1b, 10, &live);
  PipelineParts replayed;
  ReplayEngine replay(BuildPipeline(0, 0, &replayed), run);
  ASSERT_TRUE(replay.Prepare().ok());
  EXPECT_EQ(replay.BoltStateBlob("nosuch", 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(replay.BoltStateBlob("cm", 9).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(replay.BoltStateBlob("src", 0).status().code(),
            StatusCode::kInvalidArgument);
  // FunctionBolt exposes no StateBlob.
  EXPECT_EQ(replay.BoltStateBlob("relay", 0).status().code(),
            StatusCode::kUnimplemented);
  EXPECT_TRUE(replay.BoltStateBlob("cm", 0).ok());
  EXPECT_FALSE(replay.TaskStateBlob(0).has_value());  // Spout.
  EXPECT_TRUE(replay.TaskStateBlob(2).has_value());   // cm shard 0.
}

// A recording whose batch size or queue capacity passes its cap reads
// back, but its replay refuses to build the engine: a live engine built
// from that config would abort on the allocation.
TEST(ReplayInspectionTest, PrepareRejectsBatchSizesAboveTheCap) {
  const std::pair<const char*, size_t EngineConfig::*> fields[] = {
      {"emit_batch_size", &EngineConfig::emit_batch_size},
      {"execute_batch_size", &EngineConfig::execute_batch_size},
      {"queue_capacity", &EngineConfig::queue_capacity},
  };
  for (const auto& [name, field] : fields) {
    SCOPED_TRACE(name);
    const std::string path = TempPath("huge_batch.slfr");
    EngineConfig config;
    config.*field = 1ull << 62;
    PipelineParts parts;
    Result<std::unique_ptr<RunRecorder>> recorder =
        RunRecorder::Create(path, config, BuildPipeline(1, 4, &parts));
    ASSERT_TRUE(recorder.ok());
    recorder.value()->RecordEmission(0,
                                     Tuple::Of(std::string("w"), int64_t{0}));
    ASSERT_TRUE(recorder.value()->Finalize().ok());
    Result<RecordedRun> run = ReadRecording(path);
    std::remove(path.c_str());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ReplayEngine replay(BuildPipeline(0, 0, &parts), run.value());
    EXPECT_EQ(replay.Prepare().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ReplayInspectionTest, PrepareRejectsMismatchedTopology) {
  PipelineParts live;
  const RecordedRun run = QuietRecording(TestSeed() ^ 0x33, 10, &live);
  PipelineParts replayed;
  ReplayEngine replay(
      BuildPipeline(0, 0, &replayed, nullptr, -1, /*cm_parallelism=*/2), run);
  EXPECT_EQ(replay.Prepare().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------- divergence bisection

TEST(DivergenceBisectTest, SelfComparisonFindsNoDivergence) {
  const uint64_t seed = TestSeed() ^ 0xb15ec7;
  PipelineParts live;
  const RecordedRun run = QuietRecording(seed, 60, &live);
  const auto make_topology = [] {
    PipelineParts parts;  // Factories keep the stores alive.
    return BuildPipeline(0, 0, &parts);
  };
  Result<std::optional<uint64_t>> result = FindFirstDivergence(
      ReplayTarget{make_topology, &run}, ReplayTarget{make_topology, &run});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().has_value());
}

TEST(DivergenceBisectTest, FindsThePlantedDivergenceIndex) {
  const uint64_t seed = TestSeed() ^ 0xd1f;
  const uint64_t n = 120;
  const int64_t planted = 37;
  EngineConfig config;
  config.telemetry_sample_interval_ms = 0;

  PipelineParts live_a;
  const RecordedRun run_a = RecordRun(TempPath("bisect_a.slfr"), config,
                                      BuildPipeline(seed, n, &live_a));
  PipelineParts live_b;
  const RecordedRun run_b =
      RecordRun(TempPath("bisect_b.slfr"), config,
                BuildPipeline(seed, n, &live_b, nullptr, planted));
  ASSERT_EQ(run_a.emissions.size(), n);
  ASSERT_EQ(run_b.emissions.size(), n);

  const auto make_topology = [] {
    PipelineParts parts;
    return BuildPipeline(0, 0, &parts);
  };
  Result<std::optional<uint64_t>> result = FindFirstDivergence(
      ReplayTarget{make_topology, &run_a}, ReplayTarget{make_topology, &run_b});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result.value().has_value());
  EXPECT_EQ(*result.value(), static_cast<uint64_t>(planted));
}

TEST(DivergenceBisectTest, StrictPrefixReportsTheCommonLength) {
  const uint64_t seed = TestSeed() ^ 0x9ef;
  EngineConfig config;
  config.telemetry_sample_interval_ms = 0;
  PipelineParts live_short;
  const RecordedRun run_short = RecordRun(
      TempPath("prefix_a.slfr"), config, BuildPipeline(seed, 60, &live_short));
  PipelineParts live_long;
  const RecordedRun run_long = RecordRun(
      TempPath("prefix_b.slfr"), config, BuildPipeline(seed, 100, &live_long));
  const auto make_topology = [] {
    PipelineParts parts;
    return BuildPipeline(0, 0, &parts);
  };
  Result<std::optional<uint64_t>> result =
      FindFirstDivergence(ReplayTarget{make_topology, &run_short},
                          ReplayTarget{make_topology, &run_long});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result.value().has_value());
  EXPECT_EQ(*result.value(), 60u);
}

// ------------------------------------------- log batching and telemetry

TEST(ReplayableLogBatchTest, ReadBatchMatchesScalarReads) {
  ReplayableLog log;
  for (int64_t i = 0; i < 10; i++) log.Append(Tuple::Of(i));

  const std::vector<Tuple> middle = log.ReadBatch(2, 5);
  ASSERT_EQ(middle.size(), 5u);
  for (size_t i = 0; i < middle.size(); i++) {
    EXPECT_EQ(middle[i].values(),
              log.Read(2 + i)->values());
  }
  EXPECT_EQ(log.ReadBatch(7, 100).size(), 3u);  // Clamped at the tail.
  EXPECT_TRUE(log.ReadBatch(10, 4).empty());    // Past the end.
  EXPECT_TRUE(log.ReadBatch(500, 4).empty());
  EXPECT_EQ(log.ReadBatch(0, 0).size(), 0u);
}

TEST(ReplayableLogBatchTest, PrefetchingSpoutDeliversEveryOffsetInOrder) {
  // 300 tuples forces several 64-tuple prefetch refills, including a
  // short final one.
  auto log = std::make_shared<ReplayableLog>();
  for (int64_t i = 0; i < 300; i++) {
    std::string key = "k";  // Built up to dodge a GCC 12 -Wrestrict
    key += std::to_string(i % 7);  // false positive on "k" + to_string().
    log->Append(Tuple::Of(std::move(key), i));
  }
  // At-least-once acks every root; at-most-once tracks none, and the spout
  // must finish without waiting for an ack.
  for (const DeliverySemantics semantics :
       {DeliverySemantics::kAtLeastOnce, DeliverySemantics::kAtMostOnce}) {
    SCOPED_TRACE(TracksTuples(semantics) ? "at-least-once" : "at-most-once");
    auto sink = std::make_shared<TupleSink>();
    TopologyBuilder builder;
    builder.AddSpout("src", [log] {
      return std::make_unique<LogReplaySpout>(log.get(), 0, log->Size());
    });
    builder.AddBolt(
        "sink", [sink] { return std::make_unique<SinkBolt>(sink.get()); }, 1,
        {{"src", Grouping::Global()}});
    Result<Topology> topology = builder.Build();
    ASSERT_TRUE(topology.ok());
    EngineConfig config;
    config.telemetry_sample_interval_ms = 0;
    config.semantics = semantics;
    TopologyEngine engine(std::move(topology).value(), config);
    engine.Run();
    const std::vector<Tuple> seen = sink->Snapshot();
    ASSERT_EQ(seen.size(), 300u);
    for (size_t i = 0; i < seen.size(); i++) {
      EXPECT_EQ(seen[i].values(), log->Read(i)->values());
    }
  }
}

TEST(RecorderTelemetryTest, ReportCarriesTheRecordingSection) {
  const std::string path = TempPath("telemetry.slfr");
  const uint64_t seed = TestSeed() ^ 0x7e1e;
  PipelineParts parts;
  Topology topology = BuildPipeline(seed, 50, &parts);
  EngineConfig config;
  config.telemetry_sample_interval_ms = 0;
  Result<std::unique_ptr<RunRecorder>> recorder =
      RunRecorder::Create(path, config, topology);
  ASSERT_TRUE(recorder.ok());
  config.recorder = recorder.value().get();
  TopologyEngine engine(std::move(topology), config);
  engine.Run();

  const TelemetryReport report = engine.telemetry().BuildReport();
  EXPECT_TRUE(report.recording.enabled);
  EXPECT_EQ(report.recording.path, path);
  EXPECT_EQ(report.recording.records, 50u);
  EXPECT_GT(report.recording.bytes, 0u);
  EXPECT_EQ(report.recording.dropped, 0u);
  std::ostringstream json;
  report.WriteJson(json);
  EXPECT_NE(json.str().find("\"recording\": {\"enabled\": true"),
            std::string::npos);

  ASSERT_TRUE(recorder.value()->Finalize().ok());
  std::remove(path.c_str());
}

TEST(RecorderTelemetryTest, ReportWithoutRecorderIsDisabled) {
  PipelineParts parts;
  EngineConfig config;
  config.telemetry_sample_interval_ms = 0;
  TopologyEngine engine(BuildPipeline(TestSeed() ^ 0x0ff, 20, &parts), config);
  engine.Run();
  const TelemetryReport report = engine.telemetry().BuildReport();
  EXPECT_FALSE(report.recording.enabled);
  std::ostringstream json;
  report.WriteJson(json);
  EXPECT_NE(json.str().find("\"recording\": {\"enabled\": false"),
            std::string::npos);
}

}  // namespace
}  // namespace streamlib::platform
