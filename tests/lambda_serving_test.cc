// Snapshot-isolated query front-end acceptance (DESIGN.md §14): typed
// config validation, GCRA tenant quotas under a ManualClock, bounded-queue
// rejection, result-cache hits and view-swap invalidation, per-tenant
// accounting through the telemetry schema, the snapshot-staleness bound,
// and the concurrent stress surface (readers hammering the front-end while
// ingest and batch hand-offs race) that `ctest -L tsan` runs under
// -fsanitize=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lambda/lambda_pipeline.h"
#include "lambda/master_log.h"
#include "lambda/query_frontend.h"
#include "platform/clock.h"
#include "platform/telemetry.h"

namespace streamlib::lambda {
namespace {

std::string NumberedKey(const char* prefix, int i) {
  std::string key(prefix);
  key += std::to_string(i);
  return key;
}

LambdaConfig SmallConfig() {
  LambdaConfig config;
  config.batch_interval_records = 1000000;  // Manual batches only.
  config.speed_snapshot_interval_records = 1;
  return config;
}

TEST(LambdaConfigValidateTest, RejectsEveryBadKnobWithTypedCode) {
  LambdaConfig config;
  EXPECT_TRUE(config.Validate().ok());

  config.batch_interval_records = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = LambdaConfig();

  config.speed_snapshot_interval_records = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(QueryFrontendConfigValidateTest, RejectsBadKnobsWithTypedCode) {
  QueryFrontendConfig config;
  EXPECT_TRUE(config.Validate().ok());

  config.workers = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = QueryFrontendConfig();

  config.max_pending = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = QueryFrontendConfig();

  config.default_quota.queries_per_second = -1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = QueryFrontendConfig();

  config.default_quota.burst = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(QueryFrontendTest, AnswersAllThreeQueryKinds) {
  LambdaPipeline pipeline(SmallConfig());
  for (int i = 0; i < 300; i++) pipeline.Ingest(i, "gold", 1.0);
  for (int i = 0; i < 100; i++) pipeline.Ingest(i, "silver", 1.0);
  pipeline.RunBatchNow();
  for (int i = 0; i < 50; i++) pipeline.Ingest(i, "gold", 1.0);

  QueryFrontend frontend(&pipeline.serving(), QueryFrontendConfig());
  frontend.Start();

  QueryRequest total;
  total.kind = QueryKind::kTotal;
  total.tenant = "acme";
  total.key = "gold";
  Result<QueryResponse> r = frontend.Query(total);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().value, 350.0, 1.0);
  EXPECT_EQ(r.value().batch_through_offset, 400u);
  EXPECT_EQ(r.value().through_offset, 450u);
  EXPECT_LE(r.value().batch_through_offset, r.value().through_offset);

  QueryRequest topk;
  topk.kind = QueryKind::kTopK;
  topk.tenant = "acme";
  topk.k = 2;
  Result<QueryResponse> t = frontend.Query(topk);
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t.value().topk.size(), 2u);
  EXPECT_EQ(t.value().topk[0].first, "gold");
  EXPECT_EQ(t.value().topk[1].first, "silver");

  QueryRequest distinct;
  distinct.kind = QueryKind::kDistinctKeys;
  distinct.tenant = "acme";
  Result<QueryResponse> d = frontend.Query(distinct);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d.value().value, 2.0, 1.0);
}

TEST(QueryFrontendTest, MalformedRequestsAreInvalidArgument) {
  LambdaPipeline pipeline(SmallConfig());
  QueryFrontend frontend(&pipeline.serving(), QueryFrontendConfig());
  frontend.Start();

  std::future<QueryResponse> future;
  QueryRequest no_tenant;
  EXPECT_EQ(frontend.Submit(no_tenant, &future).code(),
            StatusCode::kInvalidArgument);

  QueryRequest zero_k;
  zero_k.tenant = "acme";
  zero_k.kind = QueryKind::kTopK;
  zero_k.k = 0;
  EXPECT_EQ(frontend.Submit(zero_k, &future).code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryFrontendTest, TokenBucketEnforcesQuotaDeterministically) {
  LambdaPipeline pipeline(SmallConfig());
  platform::ManualClock clock;
  QueryFrontendConfig config;
  config.clock = &clock;
  config.cache_capacity = 0;  // Isolate the quota path from caching.
  QueryFrontend frontend(&pipeline.serving(), config);
  frontend.Start();

  // 10 qps with burst 2: two back-to-back admits, the third rejects.
  ASSERT_TRUE(frontend.RegisterTenant("metered", {10.0, 2.0}).ok());
  QueryRequest request;
  request.tenant = "metered";
  request.key = "k";
  EXPECT_TRUE(frontend.Query(request).ok());
  EXPECT_TRUE(frontend.Query(request).ok());
  Result<QueryResponse> rejected = frontend.Query(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // One emission interval (100ms at 10 qps) refills exactly one token.
  clock.AdvanceNanos(100'000'000ull);
  EXPECT_TRUE(frontend.Query(request).ok());
  EXPECT_EQ(frontend.Query(request).status().code(),
            StatusCode::kResourceExhausted);

  const FrontendStats stats = frontend.Stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].served, 3u);
  EXPECT_EQ(stats.tenants[0].rejected_quota, 2u);
}

TEST(QueryFrontendTest, QuotasAreIsolatedPerTenant) {
  LambdaPipeline pipeline(SmallConfig());
  platform::ManualClock clock;
  QueryFrontendConfig config;
  config.clock = &clock;
  QueryFrontend frontend(&pipeline.serving(), config);
  frontend.Start();
  ASSERT_TRUE(frontend.RegisterTenant("starved", {1.0, 1.0}).ok());

  QueryRequest request;
  request.tenant = "starved";
  request.key = "k";
  EXPECT_TRUE(frontend.Query(request).ok());
  EXPECT_FALSE(frontend.Query(request).ok());

  // An unmetered tenant (default quota: unlimited) is unaffected by the
  // starved tenant's empty bucket.
  request.tenant = "free";
  for (int i = 0; i < 50; i++) EXPECT_TRUE(frontend.Query(request).ok());
}

TEST(QueryFrontendTest, FullQueueRejectsWithTypedStatusNotUnboundedBacklog) {
  LambdaPipeline pipeline(SmallConfig());
  QueryFrontendConfig config;
  config.max_pending = 4;
  config.cache_capacity = 0;  // Every submission must take a queue slot.
  QueryFrontend frontend(&pipeline.serving(), config);
  // Deliberately not started: submissions park in the bounded queue.

  QueryRequest request;
  request.tenant = "acme";
  std::vector<std::future<QueryResponse>> futures(8);
  for (int i = 0; i < 4; i++) {
    request.key = NumberedKey("k", i);
    ASSERT_TRUE(frontend.Submit(request, &futures[i]).ok());
  }
  request.key = "overflow";
  std::future<QueryResponse> overflow;
  const Status full = frontend.Submit(request, &overflow);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);

  // Stop() without Start() drains the four admitted queries inline: every
  // accepted future resolves (no broken promises).
  frontend.Stop();
  for (int i = 0; i < 4; i++) {
    EXPECT_GE(futures[i].get().through_offset, 0u);
  }
  const FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.served, 4u);
  EXPECT_EQ(stats.rejected_queue, 1u);
}

TEST(QueryFrontendTest, CacheHitsAnswerInlineAndViewSwapsInvalidate) {
  LambdaPipeline pipeline(SmallConfig());
  for (int i = 0; i < 100; i++) pipeline.Ingest(i, "k", 1.0);
  QueryFrontend frontend(&pipeline.serving(), QueryFrontendConfig());
  frontend.Start();

  QueryRequest request;
  request.tenant = "acme";
  request.key = "k";
  Result<QueryResponse> miss = frontend.Query(request);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().cache_hit);

  Result<QueryResponse> hit = frontend.Query(request);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);
  EXPECT_DOUBLE_EQ(hit.value().value, miss.value().value);
  EXPECT_EQ(hit.value().snapshot_version, miss.value().snapshot_version);

  // Ingest publishes a new snapshot (interval = 1): the cached answer is
  // for a dead version and must not be served again.
  pipeline.Ingest(0, "k", 1.0);
  Result<QueryResponse> refreshed = frontend.Query(request);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_FALSE(refreshed.value().cache_hit);
  EXPECT_DOUBLE_EQ(refreshed.value().value, miss.value().value + 1.0);
  EXPECT_GT(refreshed.value().snapshot_version,
            miss.value().snapshot_version);

  const FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.served, 3u);
}

TEST(QueryFrontendTest, StatsAggregateAcrossTenantsSorted) {
  LambdaPipeline pipeline(SmallConfig());
  QueryFrontend frontend(&pipeline.serving(), QueryFrontendConfig());
  frontend.Start();

  QueryRequest request;
  request.key = "k";
  request.tenant = "zeta";
  EXPECT_TRUE(frontend.Query(request).ok());
  request.tenant = "alpha";
  EXPECT_TRUE(frontend.Query(request).ok());
  EXPECT_TRUE(frontend.Query(request).ok());

  const FrontendStats stats = frontend.Stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].tenant, "alpha");
  EXPECT_EQ(stats.tenants[0].served, 2u);
  EXPECT_EQ(stats.tenants[1].tenant, "zeta");
  EXPECT_EQ(stats.tenants[1].served, 1u);
  EXPECT_EQ(stats.served, 3u);
}

TEST(QueryFrontendTest, TelemetryExportsServingSection) {
  LambdaPipeline pipeline(SmallConfig());
  QueryFrontend frontend(&pipeline.serving(), QueryFrontendConfig());
  frontend.Start();
  QueryRequest request;
  request.tenant = "acme";
  request.key = "k";
  EXPECT_TRUE(frontend.Query(request).ok());
  EXPECT_TRUE(frontend.Query(request).ok());  // Cache hit.

  platform::TelemetryReport report;
  EXPECT_FALSE(report.serving.enabled);
  frontend.FillTelemetry(&report);
  EXPECT_TRUE(report.serving.enabled);
  EXPECT_EQ(report.serving.served, 2u);
  EXPECT_EQ(report.serving.cache_hits, 1u);
  ASSERT_EQ(report.serving.tenants.size(), 1u);
  EXPECT_EQ(report.serving.tenants[0].tenant, "acme");

  std::ostringstream json;
  report.WriteJson(json);
  EXPECT_NE(json.str().find("\"serving\""), std::string::npos);
  EXPECT_NE(json.str().find("\"acme\""), std::string::npos);
  EXPECT_NE(json.str().find("\"cache_hits\": 1"), std::string::npos);
}

TEST(LambdaPipelineTest, SnapshotStalenessBoundedByPublishInterval) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  config.speed_snapshot_interval_records = 64;
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 1000; i++) {
    pipeline.Ingest(i, "k", 1.0);
    // The serving snapshot may trail the log by at most interval - 1
    // records — the documented staleness bound of the lock-free read path.
    const uint64_t visible = pipeline.serving().Snapshot()->through_offset();
    const uint64_t logged = pipeline.log().size();
    EXPECT_LE(logged - visible, 63u);
  }
  // Forced publication erases the lag entirely.
  pipeline.PublishSpeedSnapshot();
  EXPECT_EQ(pipeline.serving().Snapshot()->through_offset(),
            pipeline.log().size());
  EXPECT_NEAR(pipeline.QueryTotal("k"), 1000.0, 1.0);
}

// 2k candidates per view saturate instead of wrapping: a k at or past 2^63
// asks for every key, through the pipeline and through the front-end,
// which admits any k >= 1.
TEST(LambdaPipelineTest, TopKWithHugeKReturnsEveryKey) {
  LambdaPipeline pipeline(SmallConfig());
  for (int i = 0; i < 5; i++) {
    for (int n = 0; n <= i; n++) pipeline.Ingest(n, NumberedKey("key", i), 1.0);
  }
  pipeline.RunBatchNow();
  for (int i = 0; i < 5; i++) pipeline.Ingest(i, NumberedKey("key", i), 1.0);
  for (size_t k : {size_t{1} << 63, SIZE_MAX / 2 + 1, SIZE_MAX}) {
    EXPECT_EQ(pipeline.QueryTopK(k).size(), 5u) << "k = " << k;
  }

  QueryFrontend frontend(&pipeline.serving(), QueryFrontendConfig{});
  frontend.Start();
  QueryRequest request;
  request.kind = QueryKind::kTopK;
  request.tenant = "huge";
  request.k = size_t{1} << 63;
  Result<QueryResponse> response = frontend.Query(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.value().topk.size(), 5u);
  EXPECT_EQ(response.value().topk[0].first, "key4");
  EXPECT_DOUBLE_EQ(response.value().topk[0].second, 6.0);
}

// One thread ingests across chunk boundaries, with background recomputes,
// while another saves over and over without the writer lock. Every image
// restores to a prefix of what was ingested (run under TSan).
TEST(LambdaPipelineTest, SaveRacesIngest) {
  LambdaConfig config;
  config.batch_interval_records = 20000;
  config.speed_snapshot_interval_records = 64;
  LambdaPipeline pipeline(config);
  constexpr uint64_t kRecords = 2 * MasterLog::kChunkRecords + 100;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t i = 0; i < kRecords; i++) {
      pipeline.Ingest(static_cast<int64_t>(i),
                      NumberedKey("key", static_cast<int>(i % 37)), 1.0);
    }
    done.store(true, std::memory_order_release);
  });

  const std::string path = ::testing::TempDir() + "lambda_save_race.bin";
  uint64_t saves = 0;
  uint64_t last_size = 0;
  for (bool last = false; !last; saves++) {
    last = done.load(std::memory_order_acquire);
    const uint64_t floor = pipeline.log().size();
    ASSERT_TRUE(pipeline.Save(path).ok());
    const uint64_t ceiling = pipeline.log().size();
    LambdaPipeline restored(config);
    ASSERT_TRUE(restored.Restore(path).ok());
    const uint64_t size = restored.log().size();
    ASSERT_GE(size, floor);
    ASSERT_LE(size, ceiling);
    ASSERT_GE(size, last_size);
    last_size = size;
    uint64_t misplaced = 0;
    uint64_t index = 0;
    restored.log().Scan(0, size, [&](const LogRecord& r) {
      misplaced += r.offset != index ||
                   r.timestamp != static_cast<int64_t>(index) ||
                   r.key != NumberedKey("key", static_cast<int>(index % 37)) ||
                   r.value != 1.0;
      index++;
    });
    ASSERT_EQ(misplaced, 0u) << "save " << saves << " of " << size;
    ASSERT_EQ(restored.serving().BatchThroughOffset(), size);
  }
  writer.join();
  EXPECT_EQ(last_size, kRecords);
  EXPECT_GT(saves, 1u);
}

// The TSAN target: readers hammer the front-end while an ingest writer and
// a batch thread race full speed. Asserts the snapshot-isolation contract
// on every answer: batch coverage never exceeds total coverage, offsets
// never run ahead of what was truly ingested, and merged top-k lists are
// never torn (sorted, no duplicate keys).
TEST(QueryFrontendStressTest, ConcurrentReadersIngestAndBatchHandoffs) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;  // Batches come from the thread.
  config.speed_snapshot_interval_records = 32;
  LambdaPipeline pipeline(config);
  QueryFrontendConfig fe_config;
  fe_config.workers = 4;
  fe_config.cache_capacity = 256;
  QueryFrontend frontend(&pipeline.serving(), fe_config);
  frontend.Start();

  constexpr int kRecords = 20000;
  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> ingested{0};

  std::thread writer([&] {
    for (int i = 0; i < kRecords; i++) {
      // Bump BEFORE the append: a snapshot can be published inside
      // Ingest() already covering this record, so the counter must be an
      // upper bound on coverage, not a trailing count.
      ingested.store(i + 1, std::memory_order_release);
      pipeline.Ingest(i, NumberedKey("key", i % 37), 1.0);
    }
    done.store(true, std::memory_order_release);
  });

  std::thread batcher([&] {
    while (!done.load(std::memory_order_acquire)) {
      pipeline.RunBatchNow();
      std::this_thread::yield();
    }
    pipeline.RunBatchNow();
  });

  std::vector<std::thread> readers;
  std::atomic<uint64_t> answers{0};
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      QueryRequest total;
      total.kind = QueryKind::kTotal;
      total.tenant = NumberedKey("tenant", r % 2);
      QueryRequest topk;
      topk.kind = QueryKind::kTopK;
      topk.tenant = total.tenant;
      topk.k = 8;
      while (!done.load(std::memory_order_acquire)) {
        total.key = NumberedKey("key", r);
        Result<QueryResponse> a = frontend.Query(total);
        ASSERT_TRUE(a.ok());
        // Snapshot-isolation contract: the exact batch prefix is always
        // within total coverage, and coverage never exceeds the writer's
        // pre-append upper bound. (Read `ingested` AFTER the answer —
        // it can only have grown since the snapshot was taken.)
        EXPECT_LE(a.value().batch_through_offset, a.value().through_offset);
        EXPECT_LE(a.value().through_offset,
                  ingested.load(std::memory_order_acquire));

        Result<QueryResponse> b = frontend.Query(topk);
        ASSERT_TRUE(b.ok());
        const auto& list = b.value().topk;
        for (size_t i = 1; i < list.size(); i++) {
          EXPECT_LE(list[i].second, list[i - 1].second)
              << "torn top-k: not sorted";
          EXPECT_NE(list[i].first, list[i - 1].first)
              << "torn top-k: duplicate key";
        }
        answers.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }

  writer.join();
  batcher.join();
  for (std::thread& reader : readers) reader.join();
  frontend.Stop();

  EXPECT_GT(answers.load(), 0u);
  // Quiescent end state: the final batch covered the whole log, and the
  // merged totals are exact.
  EXPECT_EQ(pipeline.SpeedSuffixLength(), 0u);
  double sum = 0;
  for (int k = 0; k < 37; k++) {
    sum += pipeline.QueryTotal(NumberedKey("key", k));
  }
  EXPECT_NEAR(sum, static_cast<double>(kRecords), kRecords * 0.01);
}

// Background recomputes race four snapshot readers. Every snapshot, taken
// before, during or after a hand-off, counts each ingested record in
// exactly one of its views: the 37 keys' totals sum to its through offset.
TEST(QueryFrontendStressTest, BackgroundRecomputeCountsEveryRecordOnce) {
  LambdaConfig config;
  config.batch_interval_records = 500;
  config.speed_snapshot_interval_records = 16;
  LambdaPipeline pipeline(config);
  constexpr int kRecords = 60000;
  constexpr int kReaders = 4;
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (int i = 0; i < kRecords; i++) {
      pipeline.Ingest(i, NumberedKey("key", i % 37), 1.0);
    }
    done.store(true, std::memory_order_release);
  });

  std::atomic<uint64_t> snapshots{0};
  std::atomic<uint64_t> mid_handoff{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&] {
      uint64_t last_through = 0;
      uint64_t seen = 0;
      uint64_t sealed = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = pipeline.serving().Snapshot();
        seen++;
        sealed += snap->sealed != nullptr;
        const uint64_t through = snap->through_offset();
        ASSERT_LE(snap->batch_through_offset(), through);
        ASSERT_GE(through, last_through) << "through offset went backward";
        last_through = through;
        ASSERT_EQ(snap->batch_through_offset(),
                  snap->sealed ? snap->sealed->from_offset
                               : snap->speed->from_offset);
        if (snap->sealed) {
          ASSERT_EQ(snap->sealed->through_offset(), snap->speed->from_offset);
        }
        double sum = 0;
        for (int k = 0; k < 37; k++) sum += snap->TotalOf(NumberedKey("key", k));
        ASSERT_EQ(sum, static_cast<double>(through))
            << "snapshot v" << snap->version
            << (snap->sealed ? " (mid-hand-off)" : "");
      }
      snapshots.fetch_add(seen, std::memory_order_relaxed);
      mid_handoff.fetch_add(sealed, std::memory_order_relaxed);
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();
  pipeline.WaitForBatch();
  EXPECT_EQ(pipeline.batch_recomputes(), kRecords / 500u);
  EXPECT_GT(snapshots.load(), 0u);
  // 120 recomputes each leave a sealed view up for a scan of the log.
  EXPECT_GT(mid_handoff.load(), 0u);
}

// Same-version answers must be byte-identical: two queries that report the
// same snapshot_version saw the same frozen (batch, speed) pair.
TEST(QueryFrontendStressTest, SameVersionAnswersAreIdentical) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  config.speed_snapshot_interval_records = 16;
  LambdaPipeline pipeline(config);
  QueryFrontendConfig fe_config;
  fe_config.cache_capacity = 0;  // Force every answer through Execute.
  QueryFrontend frontend(&pipeline.serving(), fe_config);
  frontend.Start();

  // After its last ingest the writer waits until the reader has seen one
  // snapshot version twice: the version stops moving then, so the next
  // query repeats it, however the two threads were scheduled.
  std::atomic<bool> done{false};
  std::atomic<bool> repeated{false};
  std::thread writer([&] {
    for (int i = 0; i < 8000; i++) {
      pipeline.Ingest(i, NumberedKey("key", i % 5), 1.0);
    }
    while (!repeated.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  QueryRequest request;
  request.kind = QueryKind::kTotal;
  request.tenant = "checker";
  request.key = "key3";
  uint64_t last_version = 0;
  double last_value = -1;
  uint64_t repeats = 0;
  while (!done.load(std::memory_order_acquire)) {
    Result<QueryResponse> r = frontend.Query(request);
    if (!r.ok()) {
      ADD_FAILURE() << "query failed: " << r.status().ToString();
      repeated.store(true, std::memory_order_release);  // Release the writer.
      break;
    }
    if (r.value().snapshot_version == last_version) {
      EXPECT_DOUBLE_EQ(r.value().value, last_value)
          << "two answers from snapshot v" << last_version << " differ";
      repeats++;
      repeated.store(true, std::memory_order_release);
    } else {
      EXPECT_GT(r.value().snapshot_version, last_version)
          << "snapshot version went backward";
      last_version = r.value().snapshot_version;
      last_value = r.value().value;
    }
  }
  writer.join();
  EXPECT_GT(repeats, 0u);
}

// RegisterTenant re-quotas a tenant (metered <-> unlimited) while another
// thread submits against it. Each admission applies the old quota or the
// new one, and every attempt is served or rejected for quota (run under
// TSan).
TEST(QueryFrontendStressTest, RequotaRacesSubmit) {
  LambdaPipeline pipeline(SmallConfig());
  pipeline.Ingest(0, "k", 1.0);
  QueryFrontend frontend(&pipeline.serving(), QueryFrontendConfig{});
  frontend.Start();
  const TenantQuota metered{1000.0, 4.0};
  ASSERT_TRUE(frontend.RegisterTenant("t", metered).ok());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> requotas{0};
  std::thread requota([&] {
    for (uint64_t i = 0; !done.load(std::memory_order_acquire); i++) {
      const TenantQuota quota = i % 2 == 0 ? TenantQuota{0.0, 16.0} : metered;
      EXPECT_TRUE(frontend.RegisterTenant("t", quota).ok());
      requotas.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Wait until the re-quotas are under way, so the submissions race them.
  while (requotas.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  QueryRequest request;
  request.tenant = "t";
  request.key = "k";
  // Submit until both threads have done enough work to overlap, however
  // the scheduler runs them.
  uint64_t attempted = 0;
  while (attempted < 5000 || requotas.load(std::memory_order_relaxed) < 100) {
    Result<QueryResponse> response = frontend.Query(request);
    attempted++;
    if (!response.ok()) {
      EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
    }
  }
  done.store(true, std::memory_order_release);
  requota.join();
  frontend.Stop();
  const FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.served + stats.rejected_quota, attempted);
  EXPECT_EQ(stats.rejected_queue, 0u);
}

}  // namespace
}  // namespace streamlib::lambda
