// Site-audience analytics on the Lambda Architecture (Figure 1), served to
// multiple tenants through the snapshot-isolated query front-end
// (DESIGN.md §14).
//
// A click stream (user, page) flows into the pipeline on a writer thread
// while three dashboard tenants query it live:
//   * "dashboard" — unmetered internal dashboards asking for page totals
//     and the top pages;
//   * "partner"   — an external partner on a 2000 qps token-bucket quota;
//   * "audit"     — occasional distinct-visitor audits.
// Every answer comes from one immutable (batch view, speed view) snapshot:
// readers never block ingest, ingest never tears an answer, over-quota
// queries are rejected with a typed status instead of queueing unboundedly.
//
// After the stream drains, the example prints merged answers vs the exact
// ground truth plus the front-end's per-tenant accounting table.
//
//   ./site_audience

#include <atomic>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lambda/lambda_pipeline.h"
#include "lambda/query_frontend.h"
#include "platform/telemetry.h"
#include "workload/zipf.h"

int main() {
  using namespace streamlib;
  using lambda::QueryKind;
  using lambda::QueryRequest;
  using lambda::QueryResponse;

  constexpr uint64_t kClicks = 300000;
  constexpr uint64_t kPages = 2000;
  constexpr uint64_t kUsers = 50000;

  lambda::LambdaConfig config;
  config.batch_interval_records = 50000;  // Batch every 50k clicks.
  lambda::LambdaPipeline pipeline(config);

  lambda::QueryFrontendConfig fe_config;
  fe_config.workers = 2;
  lambda::QueryFrontend frontend(&pipeline.serving(), fe_config);
  // The partner tenant is metered; dashboards and audits are not.
  frontend.RegisterTenant("partner", {2000.0, 32.0});
  frontend.Start();

  workload::ZipfGenerator page_picker(kPages, 1.3, 11);
  workload::ZipfGenerator user_picker(kUsers, 0.8, 13);

  std::map<std::string, double> exact_clicks;
  std::set<uint64_t> exact_users;

  std::printf("ingesting %llu clicks (%llu pages, %llu users), batch every "
              "%llu records, 3 tenants querying live...\n",
              static_cast<unsigned long long>(kClicks),
              static_cast<unsigned long long>(kPages),
              static_cast<unsigned long long>(kUsers),
              static_cast<unsigned long long>(config.batch_interval_records));

  // Writer: the click stream. Ground truth is tracked inline (single
  // writer, so the maps need no locking).
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t i = 0; i < kClicks; i++) {
      const uint64_t page = page_picker.Next();
      const uint64_t user = user_picker.Next();
      const std::string page_key = "page" + std::to_string(page);

      // Two event families share the log: page clicks and user visits.
      pipeline.Ingest(static_cast<int64_t>(i), page_key, 1.0);
      pipeline.Ingest(static_cast<int64_t>(i),
                      "user" + std::to_string(user), 1.0);

      exact_clicks[page_key] += 1.0;
      exact_users.insert(user);
    }
    done.store(true, std::memory_order_release);
  });

  // Tenants: each queries the stream while it runs. All answers are
  // internally consistent snapshots no matter how the writer races.
  std::thread dashboard([&] {
    QueryRequest request;
    request.tenant = "dashboard";
    uint64_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      if (i++ % 4 == 3) {
        request.kind = QueryKind::kTopK;
        request.k = 5;
      } else {
        request.kind = QueryKind::kTotal;
        request.key = "page" + std::to_string(i % 10);
      }
      frontend.Query(request);
    }
  });
  std::thread partner([&] {
    QueryRequest request;
    request.tenant = "partner";
    request.kind = QueryKind::kTotal;
    uint64_t rejected = 0;
    while (!done.load(std::memory_order_acquire)) {
      request.key = "page" + std::to_string(rejected % 3);
      Result<QueryResponse> r = frontend.Query(request);
      if (!r.ok()) {
        // Over quota: typed, synchronous rejection — back off and retry,
        // like a well-behaved client.
        rejected++;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  });
  std::thread audit([&] {
    QueryRequest request;
    request.tenant = "audit";
    request.kind = QueryKind::kDistinctKeys;
    while (!done.load(std::memory_order_acquire)) {
      frontend.Query(request);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  writer.join();
  dashboard.join();
  partner.join();
  audit.join();
  // Everything ingested, nothing published yet past the last interval:
  // force a fresh snapshot so the final answers cover the whole stream,
  // and let the last background recompute land before counting them.
  pipeline.PublishSpeedSnapshot();
  pipeline.WaitForBatch();

  std::printf("\nbatch recomputes run: %llu; records awaiting next batch: "
              "%llu\n",
              static_cast<unsigned long long>(pipeline.batch_recomputes()),
              static_cast<unsigned long long>(pipeline.SpeedSuffixLength()));

  std::printf("\n== per-page totals (merged batch + speed vs exact) ==\n");
  std::printf("  %-8s %12s %12s\n", "page", "merged", "exact");
  QueryRequest request;
  request.tenant = "dashboard";
  request.kind = QueryKind::kTotal;
  for (uint64_t rank = 0; rank < 5; rank++) {
    request.key = "page" + std::to_string(rank);
    Result<QueryResponse> r = frontend.Query(request);
    std::printf("  %-8s %12.0f %12.0f\n", request.key.c_str(),
                r.ok() ? r.value().value : 0.0, exact_clicks[request.key]);
  }

  std::printf("\n== top pages (merged) ==\n");
  request.kind = QueryKind::kTopK;
  request.k = 5;
  Result<QueryResponse> top = frontend.Query(request);
  if (top.ok()) {
    for (const auto& [page, total] : top.value().topk) {
      if (page.rfind("page", 0) != 0) continue;  // Skip user keys.
      std::printf("  %-8s %.0f clicks\n", page.c_str(), total);
    }
  }

  // Distinct *keys* include pages and users; subtract the page count for a
  // distinct-visitor figure (pages are few and all present).
  request.kind = QueryKind::kDistinctKeys;
  Result<QueryResponse> distinct = frontend.Query(request);
  std::printf("\n== audience ==\n");
  std::printf("  distinct visitors (est): %.0f    exact: %zu\n",
              (distinct.ok() ? distinct.value().value : 0.0) -
                  static_cast<double>(exact_clicks.size()),
              exact_users.size());

  // The front-end's per-tenant accounting — the "serving" section of the
  // telemetry JSON schema, as a table.
  frontend.Stop();
  platform::TelemetryReport report;
  frontend.FillTelemetry(&report);
  std::printf("\n");
  std::fflush(stdout);
  report.WriteTable(std::cout);
  return 0;
}
