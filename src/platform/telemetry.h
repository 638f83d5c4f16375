#ifndef STREAMLIB_PLATFORM_TELEMETRY_H_
#define STREAMLIB_PLATFORM_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "platform/fault.h"
#include "platform/metrics.h"
#include "platform/metrics_sampler.h"
#include "platform/trace.h"

namespace streamlib::platform {

class RunRecorder;

/// Materialized snapshot of everything the observability layer collected:
/// per-task counters, the sampler's time series, and trace summaries.
/// Serializable to JSON (machine consumers — the schema the telemetry
/// ctest validates) and to a human-readable table (examples, bench logs).
struct TelemetryReport {
  struct TaskRow {
    std::string component;
    uint32_t task_index = 0;
    uint64_t emitted = 0;
    uint64_t executed = 0;
    uint64_t acked = 0;
    uint64_t failed = 0;
    uint64_t backpressure_stalls = 0;
    uint64_t faults_injected = 0;
    uint64_t bolt_exceptions = 0;
    uint64_t flushes = 0;
    uint64_t flushed_tuples = 0;
    uint64_t max_queue_depth = 0;
    double avg_flush_size = 0;
    double p50_latency_us = 0;
    double p99_latency_us = 0;
    /// Epoch cuts (all zero when epochs are off): how many, their summed
    /// snapshot-and-store time, and the largest frame written.
    uint64_t epoch_snapshots = 0;
    double epoch_snapshot_us = 0;
    uint64_t epoch_frame_bytes_max = 0;
  };

  /// Chaos-run summary: whether injection was armed, the master seed (so a
  /// failing run's report is enough to replay its fault schedule), and the
  /// engine-wide injected counts per FaultKind.
  struct FaultSummary {
    bool enabled = false;
    uint64_t seed = 0;
    uint64_t total_injected = 0;
    std::array<uint64_t, kNumFaultKinds> by_kind{};
  };

  /// Flight-recorder summary: whether a RunRecorder was attached to the
  /// run, where the recording lands, and its record/byte/drop counters —
  /// a report alone shows whether the run left a replayable artifact.
  struct RecordingSummary {
    bool enabled = false;
    std::string path;
    uint64_t records = 0;
    uint64_t bytes = 0;
    uint64_t dropped = 0;
  };

  /// Per-tenant accounting of one query front-end (the Lambda serving
  /// layer's admission control — DESIGN.md §14).
  struct ServingTenantRow {
    std::string tenant;
    uint64_t served = 0;
    uint64_t rejected_quota = 0;
    uint64_t rejected_queue = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
  };

  /// Serving-layer summary: snapshot-isolated query front-end counters,
  /// filled by lambda::QueryFrontend::FillTelemetry. enabled=false when no
  /// front-end contributed to the report (the platform-only default).
  struct ServingSummary {
    bool enabled = false;
    uint64_t snapshot_version = 0;  ///< serving snapshot at export time
    uint64_t served = 0;
    uint64_t rejected_quota = 0;
    uint64_t rejected_queue = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    std::vector<ServingTenantRow> tenants;  ///< sorted by tenant name
  };

  uint32_t sample_interval_ms = 0;  ///< 0 = sampler was disabled.
  uint32_t trace_sample_every = 0;  ///< 0 = tracing was disabled.
  FaultSummary faults;              ///< enabled=false outside chaos runs.
  RecordingSummary recording;       ///< enabled=false without a recorder.
  ServingSummary serving;           ///< enabled=false without a front-end.
  /// Indexed by engine task id — TaskSampleDelta::task points here.
  std::vector<TaskRow> tasks;
  std::vector<TelemetrySample> time_series;
  std::vector<TraceTree> trace_trees;
  std::vector<TraceStore::HopStats> hop_stats;
  uint64_t trace_events_dropped = 0;
  uint64_t complete_trace_trees = 0;

  /// Serializes the full report as one JSON document ("schema_version": 1).
  /// Span trees are capped at `max_json_trees` to bound file size.
  void WriteJson(std::ostream& out, size_t max_json_trees = 8) const;

  /// Serializes just the serving section as a JSON object (no trailing
  /// newline). Reused by the serving bench, which embeds the same schema
  /// inside BENCH_lambda_serving.json — tools/telemetry_schema_check
  /// validates both placements.
  static void WriteServingJson(std::ostream& out,
                               const ServingSummary& serving,
                               const char* line_indent);

  /// Human-readable tables: per-task counters, interval throughput, hop
  /// percentiles, and one example span tree.
  void WriteTable(std::ostream& out) const;
};

/// The engine's observability facade: live access to the sampler's time
/// series during Run(), and the full report (counters + time series +
/// traces) once Run() returns. Obtained via TopologyEngine::telemetry().
class Telemetry {
 public:
  Telemetry() = default;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Engine wiring (not part of the public surface).
  void Bind(const MetricsRegistry* registry, uint32_t sample_interval_ms,
            uint32_t trace_sample_every) {
    registry_ = registry;
    sample_interval_ms_ = sample_interval_ms;
    trace_sample_every_ = trace_sample_every;
  }
  /// Published with release order: TimeSeries() may already be polling
  /// from another thread when Run() attaches the sampler.
  void AttachSampler(const MetricsSampler* sampler) {
    sampler_.store(sampler, std::memory_order_release);
  }
  /// Null outside chaos runs (injection disabled).
  void BindFaultPlan(const FaultPlan* plan) { fault_plan_ = plan; }
  /// Null when the run is not being recorded (recorder.h).
  void BindRecorder(const RunRecorder* recorder) { recorder_ = recorder; }
  TraceStore& mutable_traces() { return traces_; }

  /// Snapshot of the sampler time series; safe to call from any thread
  /// while the topology is running (empty when the sampler is disabled).
  std::vector<TelemetrySample> TimeSeries() const {
    const MetricsSampler* sampler = sampler_.load(std::memory_order_acquire);
    return sampler ? sampler->Snapshot() : std::vector<TelemetrySample>{};
  }

  /// Trace trees and hop summaries; populated after Run() completes.
  const TraceStore& traces() const { return traces_; }

  /// Builds the full materialized report. Counters reflect their values at
  /// call time, so this is normally called after Run().
  TelemetryReport BuildReport() const;

 private:
  const MetricsRegistry* registry_ = nullptr;
  std::atomic<const MetricsSampler*> sampler_{nullptr};
  const FaultPlan* fault_plan_ = nullptr;
  const RunRecorder* recorder_ = nullptr;
  TraceStore traces_;
  uint32_t sample_interval_ms_ = 0;
  uint32_t trace_sample_every_ = 0;
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_TELEMETRY_H_
