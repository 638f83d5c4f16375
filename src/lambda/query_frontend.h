#ifndef STREAMLIB_LAMBDA_QUERY_FRONTEND_H_
#define STREAMLIB_LAMBDA_QUERY_FRONTEND_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "lambda/serving_layer.h"
#include "platform/clock.h"
#include "platform/queue.h"
#include "platform/telemetry.h"

namespace streamlib::lambda {

/// The three typed queries the Lambda serving layer answers (Figure 1,
/// step 5), as first-class requests a multi-tenant front-end can admit,
/// rate-limit, cache, and account per tenant.
enum class QueryKind : uint8_t { kTotal = 0, kTopK = 1, kDistinctKeys = 2 };

/// "total" / "topk" / "distinct_keys".
const char* QueryKindName(QueryKind kind);

/// Per-tenant admission budget: a token bucket refilled at
/// `queries_per_second` with depth `burst`. queries_per_second == 0 means
/// unlimited (the bucket is bypassed).
struct TenantQuota {
  double queries_per_second = 0;
  double burst = 16;
};

/// Front-end tuning knobs.
struct QueryFrontendConfig {
  size_t workers = 4;        ///< worker threads serving cache misses
  size_t max_pending = 1024; ///< bounded admission queue (never unbounded)
  /// Result-cache entries across all shards; 0 disables caching. Entries
  /// are valid for exactly one serving-snapshot version — every view swap
  /// invalidates them.
  size_t cache_capacity = 4096;
  /// Quota applied to tenants that were never explicitly registered.
  TenantQuota default_quota;
  /// Injectable time source for the token buckets (tests use ManualClock);
  /// nullptr = the process steady clock.
  platform::Clock* clock = nullptr;

  /// Typed validation of every knob (mirrors EngineConfig::Validate).
  Status Validate() const;
};

/// One typed query. `key` is consulted for kTotal, `k` for kTopK.
struct QueryRequest {
  QueryKind kind = QueryKind::kTotal;
  std::string tenant;
  std::string key;
  size_t k = 10;
};

/// A served answer, stamped with the snapshot it was computed from so
/// callers (and the consistency stress test) can check isolation bounds:
/// batch_through_offset <= through_offset always, and two answers with the
/// same snapshot_version came from byte-identical state.
struct QueryResponse {
  QueryKind kind = QueryKind::kTotal;
  double value = 0;  ///< total (kTotal) or distinct estimate (kDistinctKeys)
  std::vector<std::pair<std::string, double>> topk;  ///< kTopK only
  uint64_t snapshot_version = 0;
  uint64_t batch_through_offset = 0;  ///< exact-prefix coverage
  uint64_t through_offset = 0;        ///< total coverage (batch + speed)
  bool cache_hit = false;
};

/// Per-tenant accounting, exported through the telemetry JSON schema.
struct TenantCounters {
  std::string tenant;
  uint64_t served = 0;
  uint64_t rejected_quota = 0;
  uint64_t rejected_queue = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

/// Aggregate + per-tenant front-end counters.
struct FrontendStats {
  uint64_t served = 0;
  uint64_t rejected_quota = 0;
  uint64_t rejected_queue = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t snapshot_version = 0;  ///< serving snapshot at stats time
  std::vector<TenantCounters> tenants;  ///< sorted by tenant name
};

/// Multi-tenant query front-end over the Lambda serving layer (DESIGN.md
/// §14): the subsystem that turns the snapshot-isolated read path into a
/// servable surface for "millions of users".
///
///   * Admission control: per-tenant token buckets (GCRA, lock-free CAS) and
///     a bounded submission queue. Over-quota and queue-full submissions are
///     rejected *synchronously* with a typed kResourceExhausted Status —
///     the front-end never queues unboundedly.
///   * A bounded worker pool executes admitted queries against one immutable
///     ServingSnapshot each; the serving calls themselves acquire no mutex.
///   * A sharded result cache keyed on (tenant, query) per snapshot version;
///     every view swap (speed publication or batch install) invalidates it.
///     Cache hits are answered inline at submission, misses go to the pool.
///   * Per-tenant served / rejected / cache-hit counters, exported through
///     the telemetry JSON schema ("serving" section).
///
/// Thread-safe: any number of threads may Submit/Query concurrently with
/// each other and with ingest into the underlying pipeline.
class QueryFrontend {
 public:
  /// \param serving  the snapshot source queries run against (not owned).
  QueryFrontend(const ServingLayer* serving, const QueryFrontendConfig& config);
  ~QueryFrontend();

  QueryFrontend(const QueryFrontend&) = delete;
  QueryFrontend& operator=(const QueryFrontend&) = delete;

  /// Registers (or re-quotas) a tenant. Unregistered tenants are admitted
  /// under config.default_quota on first use.
  Status RegisterTenant(const std::string& name, const TenantQuota& quota);

  /// Spawns the worker pool. Submissions before Start() are queued (still
  /// bounded) and drain once workers run.
  void Start();

  /// Closes the admission queue, drains every already-admitted query, and
  /// joins the workers. Idempotent; the destructor calls it.
  void Stop();

  /// Admission + dispatch. On success `*result` becomes a future that the
  /// worker pool (or the inline cache-hit path) fulfills. Typed failures:
  ///   * kInvalidArgument     — malformed request (empty tenant, k == 0);
  ///   * kResourceExhausted   — tenant over quota, or admission queue full.
  Status Submit(QueryRequest request, std::future<QueryResponse>* result);

  /// Blocking convenience: Submit + wait.
  Result<QueryResponse> Query(const QueryRequest& request);

  /// Counter snapshot (tenants sorted by name, deterministic).
  FrontendStats Stats() const;

  /// Exports the per-tenant serving section into a TelemetryReport (the
  /// "serving" object of the telemetry JSON schema).
  void FillTelemetry(platform::TelemetryReport* report) const;

 private:
  /// GCRA token bucket + counters for one tenant. The bucket state is one
  /// atomic u64 (the theoretical-arrival-time), advanced by CAS — admission
  /// never takes a lock. RegisterTenant may re-quota a tenant while Submit
  /// admits against it, so the quota fields are relaxed atomics too: a
  /// racing Admit reads each one's old value or its new one.
  struct TenantState {
    std::string name;
    std::atomic<uint64_t> emission_nanos{0};   ///< 1e9 / qps; 0 = unlimited
    std::atomic<uint64_t> tolerance_nanos{0};  ///< (burst - 1) * emission
    std::atomic<uint64_t> tat{0};  ///< GCRA theoretical arrival time
    std::atomic<uint64_t> served{0};
    std::atomic<uint64_t> rejected_quota{0};
    std::atomic<uint64_t> rejected_queue{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_misses{0};

    void SetQuota(const TenantQuota& quota);
    bool Admit(uint64_t now_nanos);
  };

  struct Job {
    QueryRequest request;
    TenantState* tenant = nullptr;
    std::promise<QueryResponse> promise;
  };

  /// One cache shard: entries are valid for exactly one snapshot version;
  /// a probe under any other version clears the shard (the "invalidated by
  /// view swaps" rule, enforced lazily so swaps stay O(1)).
  struct CacheShard {
    std::mutex mu;
    uint64_t version = 0;
    std::unordered_map<std::string, QueryResponse> entries;
  };
  static constexpr size_t kCacheShards = 16;

  TenantState* FindOrCreateTenant(const std::string& name);
  /// Executes `request` against one snapshot (no locks on the serving path).
  QueryResponse Execute(const QueryRequest& request,
                        const ServingSnapshot& snap) const;
  static std::string CacheKey(const QueryRequest& request);
  CacheShard& ShardFor(const std::string& cache_key);
  bool CacheLookup(const std::string& cache_key, uint64_t version,
                   QueryResponse* out);
  void CacheInsert(const std::string& cache_key, uint64_t version,
                   const QueryResponse& response);
  void WorkerLoop();

  const ServingLayer* serving_;
  QueryFrontendConfig config_;
  platform::Clock* clock_;

  mutable std::shared_mutex tenants_mu_;
  std::unordered_map<std::string, std::unique_ptr<TenantState>> tenants_;

  std::array<CacheShard, kCacheShards> cache_;
  size_t shard_capacity_ = 0;  ///< cache_capacity / kCacheShards

  platform::BlockingQueue<Job> queue_;
  std::vector<std::thread> workers_;
  std::mutex lifecycle_mu_;  ///< guards Start/Stop transitions
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace streamlib::lambda

#endif  // STREAMLIB_LAMBDA_QUERY_FRONTEND_H_
