#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "lambda/batch_layer.h"
#include "lambda/lambda_pipeline.h"
#include "lambda/master_log.h"
#include "lambda/serving_layer.h"
#include "lambda/speed_layer.h"
#include "platform/checkpoint.h"
#include "test_seed.h"
#include "workload/text_stream.h"

namespace streamlib::lambda {
namespace {

// Builds "prefix<i>" without the operator+ pattern that trips GCC 12's
// -Wrestrict false positive.
std::string NumberedKey(const char* prefix, int i) {
  std::string key(prefix);
  key += std::to_string(i);
  return key;
}

TEST(MasterLogTest, AppendAssignsSequentialOffsets) {
  MasterLog log;
  EXPECT_EQ(log.Append(1, "a", 1.0), 0u);
  EXPECT_EQ(log.Append(2, "b", 1.0), 1u);
  EXPECT_EQ(log.size(), 2u);
}

TEST(MasterLogTest, ReadRangeIsBounded) {
  MasterLog log;
  for (int i = 0; i < 10; i++) log.Append(i, "k", 1.0);
  std::vector<LogRecord> records;
  log.Scan(5, 100, [&](const LogRecord& r) { records.push_back(r); });
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records[0].offset, 5u);
}

// A reader scans [0, size()) over and over while a writer appends across
// several chunk boundaries: every record read sits at its own offset, and
// the scan never races the append (run under TSan).
TEST(MasterLogTest, PrefixScanRacesAppends) {
  MasterLog log;
  constexpr uint64_t kRecords = 3 * MasterLog::kChunkRecords + 17;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t i = 0; i < kRecords; i++) {
      log.Append(static_cast<int64_t>(i), "k", 1.0);
    }
    done.store(true, std::memory_order_release);
  });
  uint64_t scans = 0;
  for (bool last = false; !last; scans++) {
    last = done.load(std::memory_order_acquire);
    const uint64_t end = log.size();
    uint64_t index = 0;
    uint64_t misplaced = 0;
    log.Scan(0, end, [&](const LogRecord& r) {
      misplaced += r.offset != index ||
                   r.timestamp != static_cast<int64_t>(index);
      index++;
    });
    ASSERT_EQ(index, end);
    ASSERT_EQ(misplaced, 0u) << "scan " << scans << " of [0, " << end << ")";
  }
  writer.join();
  EXPECT_EQ(log.size(), kRecords);
  EXPECT_GT(scans, 1u);
}

TEST(MasterLogTest, GetOutOfRangeFails) {
  MasterLog log;
  log.Append(1, "a", 1.0);
  EXPECT_TRUE(log.Get(0).ok());
  EXPECT_FALSE(log.Get(1).ok());
}

TEST(BatchLayerTest, ExactTotalsOverPrefix) {
  MasterLog log;
  for (int i = 0; i < 100; i++) log.Append(i, "x", 2.0);
  for (int i = 0; i < 50; i++) log.Append(i, "y", 1.0);
  BatchLayer batch;
  BatchView view = batch.Recompute(log);
  EXPECT_DOUBLE_EQ(view.TotalOf("x"), 200.0);
  EXPECT_DOUBLE_EQ(view.TotalOf("y"), 50.0);
  EXPECT_DOUBLE_EQ(view.TotalOf("z"), 0.0);
  EXPECT_EQ(view.through_offset, 150u);
}

TEST(BatchLayerTest, PrefixRecomputeIgnoresSuffix) {
  MasterLog log;
  for (int i = 0; i < 100; i++) log.Append(i, "x", 1.0);
  BatchLayer batch;
  BatchView view = batch.RecomputePrefix(log, 60);
  EXPECT_DOUBLE_EQ(view.TotalOf("x"), 60.0);
}

TEST(BatchLayerTest, TopKOrdering) {
  MasterLog log;
  for (int i = 0; i < 30; i++) log.Append(i, "gold", 1.0);
  for (int i = 0; i < 20; i++) log.Append(i, "silver", 1.0);
  for (int i = 0; i < 10; i++) log.Append(i, "bronze", 1.0);
  BatchView view = BatchLayer().Recompute(log);
  auto top = view.TopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "gold");
  EXPECT_EQ(top[1].first, "silver");
}

TEST(BatchLayerTest, RestoredTopKKeepsTieOrder) {
  MasterLog log;
  const std::vector<std::pair<std::string, int>> counts = {
      {"b", 3}, {"a", 3}, {"c", 5}, {"d", 1}, {"e", 3}};
  for (const auto& [key, n] : counts) {
    for (int i = 0; i < n; i++) log.Append(i, key, 1.0);
  }
  const BatchView view = BatchLayer().Recompute(log);
  platform::KvCheckpointStore store;
  view.SnapshotTo(&store, "view");
  Result<BatchView> restored = BatchView::RestoreFrom(store, "view");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  // Total descending, then key ascending: the three 3-count keys tie.
  const std::vector<std::pair<std::string, double>> expected = {
      {"c", 5}, {"a", 3}, {"b", 3}, {"e", 3}, {"d", 1}};
  EXPECT_EQ(view.TopK(10), expected);
  EXPECT_EQ(restored.value().TopK(10), view.TopK(10));
  EXPECT_EQ(restored.value().TopK(2), view.TopK(2));
  EXPECT_TRUE(restored.value().TopK(0).empty());
}

TEST(LambdaPipelineTest, SpeedLayerServesBeforeAnyBatch) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;  // Never triggers.
  config.speed_snapshot_interval_records = 1;  // Exact freshness for asserts.
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 500; i++) pipeline.Ingest(i, "tag", 1.0);
  EXPECT_NEAR(pipeline.QueryTotal("tag"), 500.0, 1.0);
  EXPECT_EQ(pipeline.batch_recomputes(), 0u);
}

TEST(LambdaPipelineTest, BatchAbsorbsSpeedState) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  config.speed_snapshot_interval_records = 1;
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 1000; i++) pipeline.Ingest(i, "k", 1.0);
  pipeline.RunBatchNow();
  // After the hand-off the speed layer is empty and the answer is exact.
  EXPECT_EQ(pipeline.SpeedSuffixLength(), 0u);
  EXPECT_DOUBLE_EQ(pipeline.QueryTotal("k"), 1000.0);
  // New events go to the speed layer only.
  for (int i = 0; i < 10; i++) pipeline.Ingest(i, "k", 1.0);
  EXPECT_NEAR(pipeline.QueryTotal("k"), 1010.0, 1.0);
  EXPECT_EQ(pipeline.SpeedSuffixLength(), 10u);
}

TEST(LambdaPipelineTest, AutomaticBatchTriggering) {
  LambdaConfig config;
  config.batch_interval_records = 100;
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 1000; i++) pipeline.Ingest(i, "k", 1.0);
  pipeline.WaitForBatch();
  EXPECT_EQ(pipeline.batch_recomputes(), 10u);
  EXPECT_LT(pipeline.SpeedSuffixLength(), 100u);
  EXPECT_DOUBLE_EQ(pipeline.QueryTotal("k"), 1000.0);
}

TEST(LambdaPipelineTest, MergedTotalsTrackExactCounts) {
  LambdaConfig config;
  config.batch_interval_records = 500;
  LambdaPipeline pipeline(config);
  workload::TextStreamGenerator gen(1000, 1.1, 42);
  std::unordered_map<std::string, double> exact;
  for (int i = 0; i < 20000; i++) {
    const std::string& tag = gen.Next();
    exact[tag] += 1.0;
    pipeline.Ingest(i, tag, 1.0);
  }
  // Heavy keys answered within the speed layer's sketch error.
  for (uint64_t rank = 0; rank < 10; rank++) {
    const std::string& tag = gen.TokenForRank(rank);
    EXPECT_NEAR(pipeline.QueryTotal(tag), exact[tag],
                exact[tag] * 0.02 + 5.0)
        << tag;
  }
}

TEST(LambdaPipelineTest, TopKMergesBatchAndSpeed) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  config.speed_snapshot_interval_records = 1;
  LambdaPipeline pipeline(config);
  // Batch phase: "old" dominates, then a batch runs.
  for (int i = 0; i < 300; i++) pipeline.Ingest(i, "old", 1.0);
  for (int i = 0; i < 100; i++) pipeline.Ingest(i, "both", 1.0);
  pipeline.RunBatchNow();
  // Speed phase: "new" surges, "both" keeps accumulating.
  for (int i = 0; i < 250; i++) pipeline.Ingest(i, "new", 1.0);
  for (int i = 0; i < 250; i++) pipeline.Ingest(i, "both", 1.0);

  auto top = pipeline.QueryTopK(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, "both");  // 350 merged across the two views.
  EXPECT_NEAR(top[0].second, 350.0, 5.0);
  EXPECT_EQ(top[1].first, "old");
  EXPECT_EQ(top[2].first, "new");
}

TEST(LambdaPipelineTest, DistinctKeysMergedAcrossViews) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  config.speed_snapshot_interval_records = 1;
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 3000; i++) {
    pipeline.Ingest(i, NumberedKey("batch-key-", i), 1.0);
  }
  pipeline.RunBatchNow();
  for (int i = 0; i < 2000; i++) {
    pipeline.Ingest(i, NumberedKey("speed-key-", i), 1.0);
  }
  // 5000 distinct keys split across both views; HLL(12) stderr ~1.6%.
  EXPECT_NEAR(pipeline.QueryDistinctKeys(), 5000.0, 5000.0 * 0.08);
}

TEST(LambdaPipelineTest, StalenessBoundedByInterval) {
  LambdaConfig config;
  config.batch_interval_records = 250;
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 10000; i++) {
    pipeline.Ingest(i, NumberedKey("k", i % 7), 1.0);
    EXPECT_LT(pipeline.SpeedSuffixLength(), 2 * 250u);
  }
  pipeline.WaitForBatch();
  EXPECT_LT(pipeline.SpeedSuffixLength(), 250u);
}

// The batch hand-off, stepped on one thread without the pipeline's worker:
// seal the speed layer, ingest into the restarted live view, land the batch
// view. After every step each record is counted in exactly one of the
// three views, and the views meet.
TEST(LambdaPipelineTest, SealedHandoffCountsEachRecordOnce) {
  MasterLog log;
  SpeedLayer speed(2048, 4, 64, 12, /*snapshot_interval=*/1);
  ServingLayer serving(&speed);
  std::map<std::string, double> exact;
  uint64_t last_through = 0;

  // Each phase writes keys shared by every phase plus keys of its own, so a
  // dropped view loses distinct keys and a doubled one inflates totals.
  auto ingest = [&](const char* phase, int n) {
    for (int i = 0; i < n; i++) {
      const std::string key =
          i % 2 == 0 ? NumberedKey("shared", i % 3) : NumberedKey(phase, i % 4);
      LogRecord record;
      record.offset = log.Append(i, key, 1.0);
      record.key = key;
      record.value = 1.0;
      speed.Ingest(record);
      serving.RefreshSpeedView();
      exact[key] += 1.0;
    }
  };
  auto check = [&](const std::string& step) {
    SCOPED_TRACE(step);
    const auto snap = serving.Snapshot();
    EXPECT_EQ(snap->batch_through_offset(),
              snap->sealed ? snap->sealed->from_offset
                           : snap->speed->from_offset);
    if (snap->sealed) {
      EXPECT_EQ(snap->sealed->through_offset(), snap->speed->from_offset);
    }
    EXPECT_EQ(snap->through_offset(), log.size());
    EXPECT_GE(snap->through_offset(), last_through);
    last_through = snap->through_offset();

    double sum = 0;
    for (const auto& [key, total] : exact) {
      EXPECT_DOUBLE_EQ(snap->TotalOf(key), total) << key;
      sum += snap->TotalOf(key);
    }
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(log.size()));

    std::vector<std::pair<std::string, double>> ranked(exact.begin(),
                                                       exact.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    EXPECT_EQ(snap->TopK(ranked.size()), ranked);
    EXPECT_NEAR(snap->DistinctKeys(), static_cast<double>(exact.size()), 1.0);
  };

  ingest("a", 100);
  check("live only");
  for (const char* phase : {"b", "c"}) {
    const std::string name(phase);
    std::shared_ptr<const SpeedView> sealed = speed.Seal();
    const uint64_t cut = sealed->through_offset();
    EXPECT_EQ(cut, log.size());
    serving.Seal(std::move(sealed));
    check(name + ": sealed, nothing after the cut");
    ingest(phase, 70);
    check(name + ": sealed + live");
    serving.InstallBatchView(BatchLayer().RecomputePrefix(log, cut));
    EXPECT_EQ(serving.Snapshot()->sealed, nullptr);
    check(name + ": landed");
  }
  // A hand-off with nothing new since the last one seals an empty range.
  serving.Seal(speed.Seal());
  check("empty seal");
  serving.InstallBatchView(BatchLayer().Recompute(log));
  check("empty seal landed");
}

TEST(LambdaPipelineTest, SaveAndLoadViewsRoundTripsQueries) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  config.speed_snapshot_interval_records = 1;
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 3000; i++) {
    pipeline.Ingest(i, NumberedKey("batch-key-", i % 40), 1.0 + i % 3);
  }
  pipeline.RunBatchNow();
  for (int i = 0; i < 2000; i++) {
    pipeline.Ingest(i, NumberedKey("speed-key-", i % 25), 2.0);
  }

  const std::string path = ::testing::TempDir() + "lambda_views.bin";
  ASSERT_TRUE(pipeline.SaveViews(path).ok());

  // A fresh pipeline restored from the image must answer every merged
  // query identically — both views travelled as SketchBlobs.
  LambdaPipeline restored(config);
  ASSERT_TRUE(restored.LoadViews(path).ok());
  EXPECT_DOUBLE_EQ(restored.QueryTotal("batch-key-7"),
                   pipeline.QueryTotal("batch-key-7"));
  EXPECT_DOUBLE_EQ(restored.QueryTotal("speed-key-3"),
                   pipeline.QueryTotal("speed-key-3"));
  EXPECT_DOUBLE_EQ(restored.QueryDistinctKeys(),
                   pipeline.QueryDistinctKeys());
  const auto top_a = restored.QueryTopK(10);
  const auto top_b = pipeline.QueryTopK(10);
  ASSERT_EQ(top_a.size(), top_b.size());
  for (size_t i = 0; i < top_a.size(); i++) {
    EXPECT_EQ(top_a[i].first, top_b[i].first);
    EXPECT_DOUBLE_EQ(top_a[i].second, top_b[i].second);
  }
}

TEST(LambdaPipelineTest, LoadViewsRejectsCorruptImageAtomically) {
  LambdaConfig config;
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 500; i++) {
    pipeline.Ingest(i, NumberedKey("k", i % 10), 1.0);
  }
  const std::string path = ::testing::TempDir() + "lambda_views_corrupt.bin";
  ASSERT_TRUE(pipeline.SaveViews(path).ok());

  // Truncate the image: the load must fail and leave the target untouched.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() / 2);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  LambdaPipeline restored(config);
  for (int i = 0; i < 100; i++) {
    restored.Ingest(i, NumberedKey("live", i), 1.0);
  }
  const double before = restored.QueryTotal("live0");
  EXPECT_FALSE(restored.LoadViews(path).ok());
  EXPECT_DOUBLE_EQ(restored.QueryTotal("live0"), before);
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// One save's batch view spliced with another save's speed view: each entry
// decodes, but the views do not meet (batch [0, 1000) + speed [0, 10)).
TEST(LambdaPipelineTest, LoadViewsRejectsViewsThatDoNotMeet) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  config.speed_snapshot_interval_records = 1;
  const std::string batch_path = ::testing::TempDir() + "lambda_meet_a.bin";
  const std::string speed_path = ::testing::TempDir() + "lambda_meet_b.bin";
  {
    LambdaPipeline a(config);
    for (int i = 0; i < 1000; i++) a.Ingest(i, NumberedKey("a", i % 9), 1.0);
    a.RunBatchNow();
    ASSERT_TRUE(a.SaveViews(batch_path).ok());
    LambdaPipeline b(config);
    for (int i = 0; i < 10; i++) b.Ingest(i, NumberedKey("b", i), 1.0);
    ASSERT_TRUE(b.SaveViews(speed_path).ok());
  }
  platform::KvCheckpointStore batch_image;
  platform::KvCheckpointStore speed_image;
  ASSERT_TRUE(batch_image.LoadFromFile(batch_path).ok());
  ASSERT_TRUE(speed_image.LoadFromFile(speed_path).ok());
  platform::KvCheckpointStore spliced;
  for (const char* key : {"batch/distinct_keys", "batch/meta"}) {
    spliced.Put(key, batch_image.Fetch(key).value());
  }
  for (const char* key :
       {"speed/totals", "speed/topk", "speed/distinct_keys", "speed/meta"}) {
    spliced.Put(key, speed_image.Fetch(key).value());
  }
  const std::string path = ::testing::TempDir() + "lambda_meet_spliced.bin";
  ASSERT_TRUE(spliced.SaveToFile(path).ok());

  LambdaPipeline target(config);
  for (int i = 0; i < 50; i++) target.Ingest(i, "live", 1.0);
  const auto before = target.serving().Snapshot();
  const Status status = target.LoadViews(path);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_EQ(target.serving().Snapshot(), before);
  EXPECT_DOUBLE_EQ(target.QueryTotal("live"), 50.0);
}

// Seeded mutation sweep over SaveViews images (bit flips, cuts, splices of
// two images): every mutant is either rejected with the target pipeline
// still answering from the same snapshot, or loads into views that meet.
TEST(LambdaPipelineTest, SaveViewsMutantsAreRejectedOrConsistent) {
  Rng rng(TestSeed() ^ 0x1a3b);
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  config.speed_snapshot_interval_records = 1;
  config.cms_width = 16;  // Small sketches: most bytes are structure.
  config.cms_depth = 2;
  config.topk_capacity = 8;
  const std::string path = ::testing::TempDir() + "lambda_views_mutant.bin";
  std::vector<std::vector<uint8_t>> corpus;
  for (int shape = 0; shape < 4; shape++) {
    LambdaPipeline pipeline(config);
    const int before_batch = shape == 0 ? 0 : 40 + 60 * shape;
    for (int i = 0; i < before_batch; i++) {
      pipeline.Ingest(i, NumberedKey("b", i % (3 + shape)), 1.0 + i % 2);
    }
    if (shape != 0) pipeline.RunBatchNow();
    for (int i = 0; i < 25 * (shape % 3); i++) {
      pipeline.Ingest(i, NumberedKey("s", i % 5), 1.0);
    }
    ASSERT_TRUE(pipeline.SaveViews(path).ok());
    corpus.push_back(ReadFileBytes(path));
  }

  LambdaPipeline target(config);
  for (int i = 0; i < 30; i++) target.Ingest(i, NumberedKey("t", i % 3), 1.0);
  size_t accepted = 0;
  for (int i = 0; i < 3000; i++) {
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
    WriteFileBytes(path, m);
    const auto before = target.serving().Snapshot();
    const double total_before = target.QueryTotal("t1");
    const Status status = target.LoadViews(path);
    const auto after = target.serving().Snapshot();
    if (!status.ok()) {
      ASSERT_EQ(after, before) << "mutant " << i << ": " << status.ToString();
      ASSERT_DOUBLE_EQ(target.QueryTotal("t1"), total_before)
          << "mutant " << i;
      continue;
    }
    accepted++;
    ASSERT_LE(after->batch_through_offset(), after->through_offset())
        << "mutant " << i;
    ASSERT_EQ(after->batch_through_offset(), after->speed->from_offset)
        << "mutant " << i;
  }
  // Flipped counter or register bits leave a valid image of other views;
  // the sweep must have met some.
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace streamlib::lambda
