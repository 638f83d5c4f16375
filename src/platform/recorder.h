#ifndef STREAMLIB_PLATFORM_RECORDER_H_
#define STREAMLIB_PLATFORM_RECORDER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/serde.h"
#include "common/status.h"
#include "platform/engine.h"
#include "platform/fault.h"
#include "platform/topology.h"
#include "platform/tuple.h"

namespace streamlib::platform {

/// \file recorder.h
/// The flight recorder: captures one topology run — every spout emission
/// plus everything nondeterminism derives from (engine config, fault spec,
/// RNG seeds, topology shape) — into a single compact file that fully
/// describes the run. The replayer (replay.h) re-executes a recording
/// deterministically; the debugger CLI (tools/streamlib_debug.cc) steps
/// through it.
///
/// ## SLFR file format (version 3)
///
///   file   := header segment*
///   header := u32 magic 'SLFR' | u32 version
///   segment:= u8 kind | u32 payload_len | u32 crc32(payload) | payload
///   record := varint spout_task | u8 0 | tuple          (an emission)
///           | varint spout_task | u8 1 | varint epoch   (an epoch cut)
///
/// Segment kinds: 1 = meta (exactly one, first), 2 = records (zero or
/// more), 3 = end (exactly one, last). The meta payload serializes the
/// EngineConfig + FaultSpec and a topology fingerprint (component names,
/// spout/bolt, parallelism, subscriptions). Version 2 added enable_fusion,
/// so the replayer builds the live fusion plan; version 3 added the
/// barrier faults, epoch_interval_tuples, epoch_align_timeout_seconds and
/// resume_from_epoch, and the epoch-cut record: each spout task's cut is a
/// record in its own stream, between the emissions it fell between. The
/// records payload is a varint count followed by that many records; the
/// end payload carries the total record count and an optional run summary
/// (root/fault/task counters) so replay results can be verified against
/// the original run from the file alone. Files are written to a `.tmp`
/// sibling and renamed into place on Finalize, mirroring KvCheckpointStore
/// — a crash mid-recording never leaves a torn file at the target path.
/// Every malformed input to the reader yields a typed Status (Corruption /
/// InvalidArgument), never UB, matching the SketchBlob envelope
/// discipline.

inline constexpr uint32_t kRecordingMagic = 0x52464c53u;  // "SLFR"
inline constexpr uint32_t kRecordingVersion = 3;

/// Tuple wire codec shared by the recorder and replayer. One record is
/// varint field-count then per field a u8 type tag (0 = null, 1 = bool,
/// 2 = int64 zigzag varint, 3 = double, 4 = length-prefixed string).
void EncodeTuple(ByteWriter& w, const Tuple& tuple);
Status DecodeTuple(ByteReader& r, Tuple* out);

/// Structural identity of a topology — everything routing depends on,
/// nothing about the user code inside components. A recording embeds the
/// fingerprint of the topology it was captured from; replay refuses a
/// topology whose fingerprint differs (the recording would route tuples
/// differently and silently diverge).
struct TopologyFingerprint {
  struct Input {
    std::string source;
    uint8_t grouping_kind = 0;
    uint64_t field_index = 0;
  };
  struct Component {
    std::string name;
    bool is_spout = false;
    uint32_t parallelism = 1;
    std::vector<Input> inputs;
  };
  std::vector<Component> components;
};

TopologyFingerprint FingerprintOf(const Topology& topology);

/// OK iff `topology` has exactly the recorded structure; otherwise a
/// FailedPrecondition naming the first mismatch.
Status MatchesTopology(const TopologyFingerprint& fingerprint,
                       const Topology& topology);

/// Final counters of the recorded run, embedded in the end segment.
/// Replay reproduces these exactly under the determinism contract
/// (DESIGN.md §11); tests and `streamlib_debug replay` compare against
/// them.
struct RunSummary {
  uint64_t completed_roots = 0;
  uint64_t failed_roots = 0;
  std::array<uint64_t, kNumFaultKinds> faults_by_kind{};
  struct TaskCounters {
    uint64_t emitted = 0;
    uint64_t executed = 0;
    uint64_t acked = 0;
    uint64_t failed = 0;
    uint64_t bolt_exceptions = 0;
  };
  std::vector<TaskCounters> tasks;  // Global task-index order.
};

/// The one RunSummary builder, shared by the engine (attaching a run's
/// final counters to its recording) and the replayer: the root counters,
/// the per-kind fault counts (all 0 when `faults` is null) and every
/// task's counters in global task-index order.
RunSummary SummarizeRun(uint64_t completed_roots, uint64_t failed_roots,
                        const FaultPlan* faults,
                        const MetricsRegistry& metrics);

/// One spout record: which spout task produced it, and either an emitted
/// tuple's field values (routing metadata is reconstructed by replay) or,
/// as a Tuple::Barrier, the task's cut of that epoch.
struct RecordedEmission {
  uint32_t spout_task = 0;  // Global task index.
  Tuple tuple;
};

/// A fully parsed recording.
struct RecordedRun {
  // The `recorder` and `checkpoint_store` pointers are null after read.
  EngineConfig config;
  TopologyFingerprint fingerprint;
  std::vector<RecordedEmission> emissions;  // Every record, in file order.
  bool has_summary = false;
  RunSummary summary;

  /// Records that are emissions, not epoch cuts: what the replay's
  /// emission counts and indices count.
  uint64_t EmissionCount() const;
};

/// Parses an SLFR file. Typed errors: NotFound (missing file), Corruption
/// (bad magic, truncated segment, CRC mismatch, a 32-bit field out of
/// range, a record naming a task that is not a spout task, an epoch cut in
/// a recording without epochs or not above its task's previous cut,
/// record-count mismatch, missing end segment, trailing bytes),
/// InvalidArgument (any version but kRecordingVersion — version 1, which
/// predates enable_fusion, and version 2, which predates epochs,
/// included).
Result<RecordedRun> ReadRecording(const std::string& path);

/// Captures a run to disk. Create() writes the header + meta segment to
/// `<path>.tmp` immediately; RecordEmission() (every spout task calls it)
/// frames records into an in-memory buffer flushed as a records segment
/// every ~256 KiB; Finalize() writes the end segment and atomically
/// renames the file into place.
///
/// Write errors never abort the run being recorded: the recorder latches
/// a failed state, counts subsequent records as dropped, and Finalize()
/// reports the first error (leaving no file at the target path).
class RunRecorder {
 public:
  static Result<std::unique_ptr<RunRecorder>> Create(std::string path,
                                                     const EngineConfig& config,
                                                     const Topology& topology);
  ~RunRecorder();

  RunRecorder(const RunRecorder&) = delete;
  RunRecorder& operator=(const RunRecorder&) = delete;

  /// Appends one spout record: an emission, or for a Tuple::Barrier the
  /// task's epoch cut. Calls for *different* spout tasks may
  /// run concurrently (each task owns a private buffer shard); calls for
  /// the same task must be serialized by the caller, and Finalize() must
  /// not overlap any call. The engine's lifecycle provides both: one
  /// executor thread drives each spout task, and Finalize runs after
  /// Run() has joined them. This single-writer contract is what lets the
  /// emit hot path run without a lock or interlocked op.
  void RecordEmission(uint32_t spout_task, const Tuple& tuple);

  /// Attaches the run's final counters; must precede Finalize() to be
  /// included in the end segment.
  void SetSummary(const RunSummary& summary);

  /// Flushes, writes the end segment, renames into place. Idempotent;
  /// returns the first write error if the recording failed mid-run.
  Status Finalize();

  const std::string& path() const { return path_; }
  /// Total records appended, summed across the per-spout-task shards.
  uint64_t records_written() const;
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  uint64_t dropped_records() const {
    return dropped_records_.load(std::memory_order_relaxed);
  }
  bool failed() const { return failed_.load(std::memory_order_relaxed); }

 private:
  /// Per-spout-task record buffer, written only by the thread driving
  /// that task (see RecordEmission's contract) — a single shared buffer
  /// + counter measurably throttled multi-spout topologies (lock and
  /// counter RMWs at every emission). A shard's records reach the file
  /// in its own append order; *cross*-shard interleaving in the file is
  /// whatever the flush timing produced, which is sound because the live
  /// cross-task interleaving was scheduler-determined nondeterminism to
  /// begin with (replay only needs per-task program order — the
  /// determinism contract, replay.h).
  struct Shard;

  RunRecorder(std::string path, std::FILE* file);

  /// Writes one framed segment directly to the file; latches failure.
  /// Caller holds io_mu_ (or is pre-concurrency, in Create()).
  void WriteSegment(uint8_t kind, const std::vector<uint8_t>& payload);
  /// Frames `count` buffered records as a records segment and writes it
  /// without materializing the payload (the record span is checksummed
  /// and fwritten in place). Caller holds io_mu_.
  void WriteRecordsSegment(const ByteWriter& records, uint64_t count);

  const std::string path_;
  const std::string tmp_path_;
  std::FILE* file_;  // Null once closed.

  /// Background segment writer. Emit threads hand off full shard
  /// buffers (a swap + queue push every ~256 KiB of records) and this
  /// thread does the framing, CRC, and fwrite — running that on the
  /// emit threads measurably cost ~10% end-to-end word-count
  /// throughput, nearly the recorder's entire overhead. Drained buffers
  /// recycle through spares_, so the steady state allocates nothing (a
  /// fresh 256 KiB buffer per segment is an mmap/munmap pair plus a
  /// page fault per rewritten line). Global segment order is the queue
  /// (handoff) order; each shard's handoffs are sequential on its owner
  /// thread, preserving per-shard append order in the file.
  struct PendingSegment {
    ByteWriter records;
    uint64_t count = 0;
  };
  void WriterLoop();
  /// Queues one records segment; blocks if the writer is more than
  /// kMaxPendingSegments behind (slow-filesystem backstop that bounds
  /// memory instead of growing without limit). `refill`, when non-null,
  /// receives a recycled (or freshly reserved) empty buffer.
  void EnqueueSegment(ByteWriter&& records, uint64_t count,
                      ByteWriter* refill);

  /// Lock order: mu_, then queue_mu_, then io_mu_. The emit hot path
  /// takes no lock at all (single-writer shards); a full shard takes
  /// queue_mu_ briefly to hand its buffer off; only the writer thread
  /// and Finalize touch io_mu_.
  std::mutex mu_;  // Guards summary_/has_summary_/finalized_.
  std::vector<std::unique_ptr<Shard>> shards_;  // Indexed by spout task.
  bool has_summary_ = false;
  RunSummary summary_;
  bool finalized_ = false;
  std::mutex io_mu_;    // Guards file_ writes and first_error_.
  Status first_error_;

  std::thread writer_;
  std::mutex queue_mu_;
  std::condition_variable queue_ready_cv_;
  std::condition_variable queue_space_cv_;
  std::deque<PendingSegment> queue_;
  std::vector<ByteWriter> spares_;  // Recycled segment buffers.
  bool writer_stop_ = false;

  /// Set (before any shard is drained) by Finalize(); checked by
  /// RecordEmission before it touches a shard, so a buggy late record is
  /// counted as dropped instead of landing in a drained shard.
  std::atomic<bool> closed_{false};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> dropped_records_{0};
  std::atomic<bool> failed_{false};
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_RECORDER_H_
