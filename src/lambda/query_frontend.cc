#include "lambda/query_frontend.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/check.h"

namespace streamlib::lambda {

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kTotal: return "total";
    case QueryKind::kTopK: return "topk";
    case QueryKind::kDistinctKeys: return "distinct_keys";
  }
  return "?";
}

Status QueryFrontendConfig::Validate() const {
  if (workers == 0) {
    return Status::InvalidArgument("query front-end needs >= 1 worker");
  }
  if (max_pending == 0) {
    return Status::InvalidArgument(
        "max_pending must be >= 1 (the admission queue is bounded, not "
        "absent)");
  }
  if (!std::isfinite(default_quota.queries_per_second) ||
      default_quota.queries_per_second < 0) {
    return Status::InvalidArgument(
        "default_quota.queries_per_second must be finite and >= 0 (0 = "
        "unlimited)");
  }
  if (!std::isfinite(default_quota.burst) || default_quota.burst < 1) {
    return Status::InvalidArgument("default_quota.burst must be >= 1");
  }
  return Status::OK();
}

void QueryFrontend::TenantState::SetQuota(const TenantQuota& quota) {
  uint64_t emission = 0;  // Unlimited.
  uint64_t tolerance = 0;
  if (quota.queries_per_second > 0) {
    emission = std::max<uint64_t>(
        1, static_cast<uint64_t>(1e9 / quota.queries_per_second));
    tolerance = static_cast<uint64_t>(std::max(0.0, quota.burst - 1.0) *
                                      static_cast<double>(emission));
  }
  emission_nanos.store(emission, std::memory_order_relaxed);
  tolerance_nanos.store(tolerance, std::memory_order_relaxed);
}

bool QueryFrontend::TenantState::Admit(uint64_t now_nanos) {
  const uint64_t emission = emission_nanos.load(std::memory_order_relaxed);
  const uint64_t tolerance = tolerance_nanos.load(std::memory_order_relaxed);
  if (emission == 0) return true;  // Unlimited quota.
  // GCRA (the virtual-scheduling form of the token bucket): the bucket is
  // one u64 — the theoretical arrival time of the next conforming query.
  uint64_t old_tat = tat.load(std::memory_order_relaxed);
  while (true) {
    const uint64_t base = std::max(old_tat, now_nanos);
    if (base - now_nanos > tolerance) return false;  // Bucket empty.
    const uint64_t new_tat = base + emission;
    if (tat.compare_exchange_weak(old_tat, new_tat,
                                  std::memory_order_acq_rel,
                                  std::memory_order_relaxed)) {
      return true;
    }
  }
}

QueryFrontend::QueryFrontend(const ServingLayer* serving,
                             const QueryFrontendConfig& config)
    : serving_(serving),
      config_(config),
      clock_(config.clock != nullptr ? config.clock
                                     : platform::Clock::Steady()),
      queue_(config.max_pending) {
  STREAMLIB_CHECK(serving != nullptr);
  const Status status = config.Validate();
  STREAMLIB_CHECK_MSG(status.ok(), "invalid QueryFrontendConfig: %s",
                      status.ToString().c_str());
  shard_capacity_ = config.cache_capacity / kCacheShards;
  if (config.cache_capacity > 0 && shard_capacity_ == 0) shard_capacity_ = 1;
}

QueryFrontend::~QueryFrontend() { Stop(); }

Status QueryFrontend::RegisterTenant(const std::string& name,
                                     const TenantQuota& quota) {
  if (name.empty()) {
    return Status::InvalidArgument("tenant name must be non-empty");
  }
  if (!std::isfinite(quota.queries_per_second) ||
      quota.queries_per_second < 0) {
    return Status::InvalidArgument(
        "tenant queries_per_second must be finite and >= 0 (0 = unlimited)");
  }
  if (!std::isfinite(quota.burst) || quota.burst < 1) {
    return Status::InvalidArgument("tenant burst must be >= 1");
  }
  std::unique_lock<std::shared_mutex> lock(tenants_mu_);
  auto& slot = tenants_[name];
  if (slot == nullptr) {
    slot = std::make_unique<TenantState>();
    slot->name = name;
  }
  slot->SetQuota(quota);
  return Status::OK();
}

QueryFrontend::TenantState* QueryFrontend::FindOrCreateTenant(
    const std::string& name) {
  {
    std::shared_lock<std::shared_mutex> lock(tenants_mu_);
    auto it = tenants_.find(name);
    if (it != tenants_.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(tenants_mu_);
  auto& slot = tenants_[name];
  if (slot == nullptr) {
    slot = std::make_unique<TenantState>();
    slot->name = name;
    slot->SetQuota(config_.default_quota);
  }
  return slot.get();
}

void QueryFrontend::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_ || stopped_) return;
  started_ = true;
  workers_.reserve(config_.workers);
  for (size_t i = 0; i < config_.workers; i++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void QueryFrontend::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (stopped_) return;
  stopped_ = true;
  // Close admits nothing new; workers drain every already-admitted job
  // before exiting, so no accepted future is ever broken.
  queue_.Close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Never started: fulfill whatever was queued inline so accepted futures
  // resolve instead of throwing broken_promise.
  if (!started_) {
    while (auto job = queue_.Pop()) {
      const auto snap = serving_->Snapshot();
      QueryResponse response = Execute(job->request, *snap);
      job->tenant->served.fetch_add(1, std::memory_order_relaxed);
      job->promise.set_value(std::move(response));
    }
  }
}

std::string QueryFrontend::CacheKey(const QueryRequest& request) {
  std::string key;
  key.reserve(request.tenant.size() + request.key.size() + 8);
  key += request.tenant;
  key += '\0';
  key += static_cast<char>(request.kind);
  key += '\0';
  key += request.key;
  key += '\0';
  key += std::to_string(request.k);
  return key;
}

QueryFrontend::CacheShard& QueryFrontend::ShardFor(
    const std::string& cache_key) {
  return cache_[std::hash<std::string>{}(cache_key) % kCacheShards];
}

bool QueryFrontend::CacheLookup(const std::string& cache_key,
                                uint64_t version, QueryResponse* out) {
  if (shard_capacity_ == 0) return false;
  CacheShard& shard = ShardFor(cache_key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.version != version) {
    // A view swap happened since these entries were computed: every cached
    // answer is for a dead snapshot. Drop them all (lazy invalidation).
    shard.entries.clear();
    shard.version = version;
    return false;
  }
  auto it = shard.entries.find(cache_key);
  if (it == shard.entries.end()) return false;
  *out = it->second;
  out->cache_hit = true;
  return true;
}

void QueryFrontend::CacheInsert(const std::string& cache_key,
                                uint64_t version,
                                const QueryResponse& response) {
  if (shard_capacity_ == 0) return;
  CacheShard& shard = ShardFor(cache_key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.version != version) {
    shard.entries.clear();
    shard.version = version;
  }
  if (shard.entries.size() >= shard_capacity_) {
    // Entries live for one snapshot epoch anyway; mass eviction is the
    // cheap, contention-free way to bound the shard.
    shard.entries.clear();
  }
  shard.entries.emplace(cache_key, response);
}

QueryResponse QueryFrontend::Execute(const QueryRequest& request,
                                     const ServingSnapshot& snap) const {
  QueryResponse response;
  response.kind = request.kind;
  response.snapshot_version = snap.version;
  response.batch_through_offset = snap.batch_through_offset();
  response.through_offset = snap.through_offset();
  switch (request.kind) {
    case QueryKind::kTotal:
      response.value = snap.TotalOf(request.key);
      break;
    case QueryKind::kTopK:
      response.topk = snap.TopK(request.k);
      break;
    case QueryKind::kDistinctKeys:
      response.value = snap.DistinctKeys();
      break;
  }
  return response;
}

Status QueryFrontend::Submit(QueryRequest request,
                             std::future<QueryResponse>* result) {
  if (request.tenant.empty()) {
    return Status::InvalidArgument("query has no tenant");
  }
  if (request.kind == QueryKind::kTopK && request.k == 0) {
    return Status::InvalidArgument("top-k query needs k >= 1");
  }
  TenantState* tenant = FindOrCreateTenant(request.tenant);

  // Admission control, stage 1: the tenant's token bucket.
  if (!tenant->Admit(clock_->NowNanos())) {
    tenant->rejected_quota.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted("tenant '" + request.tenant +
                                     "' is over its query quota");
  }

  // Cache probe (inline): a hit never touches the worker pool.
  const std::string cache_key = CacheKey(request);
  const std::shared_ptr<const ServingSnapshot> snap = serving_->Snapshot();
  QueryResponse cached;
  if (CacheLookup(cache_key, snap->version, &cached)) {
    tenant->cache_hits.fetch_add(1, std::memory_order_relaxed);
    tenant->served.fetch_add(1, std::memory_order_relaxed);
    std::promise<QueryResponse> promise;
    *result = promise.get_future();
    promise.set_value(std::move(cached));
    return Status::OK();
  }
  tenant->cache_misses.fetch_add(1, std::memory_order_relaxed);

  // Admission control, stage 2: the bounded worker queue. A full queue is
  // a typed rejection, never an unbounded backlog.
  Job job;
  job.request = std::move(request);
  job.tenant = tenant;
  *result = job.promise.get_future();
  if (!queue_.TryPush(std::move(job))) {
    tenant->rejected_queue.fetch_add(1, std::memory_order_relaxed);
    *result = {};
    return Status::ResourceExhausted("query admission queue is full");
  }
  return Status::OK();
}

Result<QueryResponse> QueryFrontend::Query(const QueryRequest& request) {
  std::future<QueryResponse> future;
  STREAMLIB_RETURN_NOT_OK(Submit(request, &future));
  return future.get();
}

void QueryFrontend::WorkerLoop() {
  while (auto job = queue_.Pop()) {
    const std::shared_ptr<const ServingSnapshot> snap = serving_->Snapshot();
    const std::string cache_key = CacheKey(job->request);
    QueryResponse response;
    if (!CacheLookup(cache_key, snap->version, &response)) {
      response = Execute(job->request, *snap);
      CacheInsert(cache_key, snap->version, response);
    }
    job->tenant->served.fetch_add(1, std::memory_order_relaxed);
    job->promise.set_value(std::move(response));
  }
}

FrontendStats QueryFrontend::Stats() const {
  FrontendStats stats;
  stats.snapshot_version = serving_->Snapshot()->version;
  std::shared_lock<std::shared_mutex> lock(tenants_mu_);
  stats.tenants.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) {
    TenantCounters row;
    row.tenant = name;
    row.served = tenant->served.load(std::memory_order_relaxed);
    row.rejected_quota =
        tenant->rejected_quota.load(std::memory_order_relaxed);
    row.rejected_queue =
        tenant->rejected_queue.load(std::memory_order_relaxed);
    row.cache_hits = tenant->cache_hits.load(std::memory_order_relaxed);
    row.cache_misses = tenant->cache_misses.load(std::memory_order_relaxed);
    stats.served += row.served;
    stats.rejected_quota += row.rejected_quota;
    stats.rejected_queue += row.rejected_queue;
    stats.cache_hits += row.cache_hits;
    stats.cache_misses += row.cache_misses;
    stats.tenants.push_back(std::move(row));
  }
  std::sort(stats.tenants.begin(), stats.tenants.end(),
            [](const TenantCounters& a, const TenantCounters& b) {
              return a.tenant < b.tenant;
            });
  return stats;
}

void QueryFrontend::FillTelemetry(platform::TelemetryReport* report) const {
  const FrontendStats stats = Stats();
  auto& serving = report->serving;
  serving.enabled = true;
  serving.snapshot_version = stats.snapshot_version;
  serving.served = stats.served;
  serving.rejected_quota = stats.rejected_quota;
  serving.rejected_queue = stats.rejected_queue;
  serving.cache_hits = stats.cache_hits;
  serving.cache_misses = stats.cache_misses;
  serving.tenants.clear();
  serving.tenants.reserve(stats.tenants.size());
  for (const TenantCounters& row : stats.tenants) {
    platform::TelemetryReport::ServingTenantRow out;
    out.tenant = row.tenant;
    out.served = row.served;
    out.rejected_quota = row.rejected_quota;
    out.rejected_queue = row.rejected_queue;
    out.cache_hits = row.cache_hits;
    out.cache_misses = row.cache_misses;
    serving.tenants.push_back(std::move(out));
  }
}

}  // namespace streamlib::lambda
