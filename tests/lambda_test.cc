#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
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

TEST(BatchLayerTest, TopKBreaksTiesByKey) {
  MasterLog log;
  const std::vector<std::pair<std::string, int>> counts = {
      {"b", 3}, {"a", 3}, {"c", 5}, {"d", 1}, {"e", 3}};
  for (const auto& [key, n] : counts) {
    for (int i = 0; i < n; i++) log.Append(i, key, 1.0);
  }
  const BatchView view = BatchLayer().Recompute(log);

  // Total descending, then key ascending: the three 3-count keys tie.
  const std::vector<std::pair<std::string, double>> expected = {
      {"c", 5}, {"a", 3}, {"b", 3}, {"e", 3}, {"d", 1}};
  EXPECT_EQ(view.TopK(10), expected);
  EXPECT_EQ(view.TopK(2),
            (std::vector<std::pair<std::string, double>>(expected.begin(),
                                                         expected.begin() + 2)));
  EXPECT_TRUE(view.TopK(0).empty());
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
  SpeedLayer speed(/*snapshot_interval=*/1);
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

std::vector<LogRecord> ReadLog(const MasterLog& log) {
  std::vector<LogRecord> records;
  log.Scan(0, log.size(), [&](const LogRecord& r) { records.push_back(r); });
  return records;
}

bool SameLog(const std::vector<LogRecord>& a, const std::vector<LogRecord>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const LogRecord& x, const LogRecord& y) {
                      return x.offset == y.offset &&
                             x.timestamp == y.timestamp && x.key == y.key &&
                             x.value == y.value;
                    });
}

// A restored pipeline answers from a batch view over the whole log, so it
// matches the saved pipeline once that one has also recomputed it.
TEST(LambdaPipelineTest, SaveAndRestoreRoundTripsQueries) {
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

  const std::string path = ::testing::TempDir() + "lambda_log.bin";
  ASSERT_TRUE(pipeline.Save(path).ok());
  LambdaPipeline restored(config);
  ASSERT_TRUE(restored.Restore(path).ok());
  EXPECT_EQ(restored.SpeedSuffixLength(), 0u);
  EXPECT_EQ(restored.serving().BatchThroughOffset(), 5000u);

  pipeline.RunBatchNow();
  EXPECT_DOUBLE_EQ(restored.QueryTotal("batch-key-7"),
                   pipeline.QueryTotal("batch-key-7"));
  EXPECT_DOUBLE_EQ(restored.QueryTotal("speed-key-3"),
                   pipeline.QueryTotal("speed-key-3"));
  EXPECT_DOUBLE_EQ(restored.QueryDistinctKeys(),
                   pipeline.QueryDistinctKeys());
  EXPECT_EQ(restored.QueryTopK(10), pipeline.QueryTopK(10));
}

// The restart the saved log exists for: batch [0, 3000) + speed
// [3000, 5000) of one key, restored into a fresh pipeline that keeps
// ingesting. The next recompute must still count every record.
TEST(LambdaPipelineTest, RestoreThenIngestKeepsEveryRecord) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  config.speed_snapshot_interval_records = 1;
  const std::string path = ::testing::TempDir() + "lambda_restore_ingest.bin";
  {
    LambdaPipeline saved(config);
    for (int i = 0; i < 3000; i++) saved.Ingest(i, "k", 1.0);
    saved.RunBatchNow();
    for (int i = 3000; i < 5000; i++) saved.Ingest(i, "k", 1.0);
    ASSERT_TRUE(saved.Save(path).ok());
  }
  LambdaPipeline restored(config);
  ASSERT_TRUE(restored.Restore(path).ok());
  for (int i = 5000; i < 5010; i++) restored.Ingest(i, "k", 1.0);
  EXPECT_DOUBLE_EQ(restored.QueryTotal("k"), 5010.0);
  restored.RunBatchNow();
  EXPECT_DOUBLE_EQ(restored.QueryTotal("k"), 5010.0);
  const auto snap = restored.serving().Snapshot();
  EXPECT_EQ(snap->batch_through_offset(), 5010u);
  EXPECT_EQ(snap->through_offset(), 5010u);
  EXPECT_EQ(restored.log().size(), 5010u);
}

// After a restore of n records the next automatic cut comes due at
// n + batch_interval_records, as if the pipeline had cut at n.
TEST(LambdaPipelineTest, RestoreSchedulesTheNextCutAnIntervalLater) {
  LambdaConfig config;
  config.batch_interval_records = 100;
  const std::string path = ::testing::TempDir() + "lambda_restore_cut.bin";
  {
    LambdaPipeline saved(config);
    for (int i = 0; i < 250; i++) saved.Ingest(i, "k", 1.0);
    ASSERT_TRUE(saved.Save(path).ok());
  }
  LambdaPipeline restored(config);
  ASSERT_TRUE(restored.Restore(path).ok());
  for (int i = 0; i < 99; i++) restored.Ingest(i, "k", 1.0);
  restored.WaitForBatch();
  EXPECT_EQ(restored.batch_recomputes(), 0u);
  restored.Ingest(99, "k", 1.0);
  restored.WaitForBatch();
  EXPECT_EQ(restored.batch_recomputes(), 1u);
  EXPECT_EQ(restored.serving().BatchThroughOffset(), 350u);
}

// A log of three full chunks and part of a fourth round-trips record for
// record; an image with a chunk dropped, repeated or swapped is rejected.
TEST(LambdaPipelineTest, RestoreCrossesChunkBoundaries) {
  constexpr uint64_t kRecords = 3 * MasterLog::kChunkRecords + 17;
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  const std::string path = ::testing::TempDir() + "lambda_restore_chunks.bin";
  LambdaPipeline saved(config);
  for (uint64_t i = 0; i < kRecords; i++) {
    saved.Ingest(static_cast<int64_t>(i) - 1000, NumberedKey("k", i % 997),
                 0.5 * static_cast<double>(i % 7));
  }
  ASSERT_TRUE(saved.Save(path).ok());
  LambdaPipeline restored(config);
  ASSERT_TRUE(restored.Restore(path).ok());
  ASSERT_EQ(restored.log().size(), kRecords);
  EXPECT_TRUE(SameLog(ReadLog(restored.log()), ReadLog(saved.log())));
  EXPECT_EQ(restored.serving().BatchThroughOffset(), kRecords);

  platform::KvCheckpointStore image;
  ASSERT_TRUE(image.LoadFromFile(path).ok());
  auto chunk = [&](int index) {
    return image.Fetch(NumberedKey("log/chunk/", index)).value();
  };
  // Each case maps a chunk key to the chunk it holds (-1: no entry).
  const std::vector<std::pair<const char*, std::array<int, 4>>> cases = {
      {"dropped", {0, -1, 2, 3}},
      {"repeated", {0, 1, 1, 3}},
      {"swapped", {0, 2, 1, 3}},
  };
  const std::string mutant_path =
      ::testing::TempDir() + "lambda_restore_chunks_mutant.bin";
  for (const auto& [name, layout] : cases) {
    SCOPED_TRACE(name);
    platform::KvCheckpointStore mutant;
    mutant.Put("log/meta", image.Fetch("log/meta").value());
    for (int key = 0; key < 4; key++) {
      if (layout[key] >= 0) {
        mutant.Put(NumberedKey("log/chunk/", key), chunk(layout[key]));
      }
    }
    ASSERT_TRUE(mutant.SaveToFile(mutant_path).ok());
    LambdaPipeline target(config);
    EXPECT_EQ(target.Restore(mutant_path).code(), StatusCode::kCorruption);
    EXPECT_EQ(target.log().size(), 0u);
  }
}

TEST(LambdaPipelineTest, RestoreRejectsANonEmptyPipeline) {
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  config.speed_snapshot_interval_records = 1;
  const std::string path = ::testing::TempDir() + "lambda_restore_busy.bin";
  {
    LambdaPipeline saved(config);
    for (int i = 0; i < 100; i++) saved.Ingest(i, "saved", 1.0);
    ASSERT_TRUE(saved.Save(path).ok());
  }
  LambdaPipeline target(config);
  for (int i = 0; i < 50; i++) target.Ingest(i, "live", 1.0);
  const auto before = target.serving().Snapshot();
  EXPECT_EQ(target.Restore(path).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(target.serving().Snapshot(), before);
  EXPECT_DOUBLE_EQ(target.QueryTotal("live"), 50.0);
  EXPECT_DOUBLE_EQ(target.QueryTotal("saved"), 0.0);
  EXPECT_EQ(target.log().size(), 50u);
}

TEST(LambdaPipelineTest, RestoreRejectsCorruptImageAtomically) {
  LambdaConfig config;
  LambdaPipeline pipeline(config);
  for (int i = 0; i < 500; i++) {
    pipeline.Ingest(i, NumberedKey("k", i % 10), 1.0);
  }
  const std::string path = ::testing::TempDir() + "lambda_log_corrupt.bin";
  ASSERT_TRUE(pipeline.Save(path).ok());
  const std::vector<uint8_t> good = ReadFileBytes(path);

  // A torn image: the restore fails, and the target stays empty.
  std::vector<uint8_t> torn = good;
  torn.resize(torn.size() / 2);
  WriteFileBytes(path, torn);
  LambdaPipeline restored(config);
  const auto before = restored.serving().Snapshot();
  EXPECT_EQ(restored.Restore(path).code(), StatusCode::kCorruption);
  EXPECT_EQ(restored.serving().Snapshot(), before);
  EXPECT_EQ(restored.log().size(), 0u);

  // Empty and usable: the good image restores into it.
  WriteFileBytes(path, good);
  ASSERT_TRUE(restored.Restore(path).ok());
  EXPECT_EQ(restored.log().size(), 500u);
  EXPECT_DOUBLE_EQ(restored.QueryTotal("k3"), 50.0);
}

// Seeded mutation sweep over saved logs (bit flips, cuts, splices of two
// images): every mutant is either rejected, leaving the target empty with
// the same snapshot, or restores one of the saved logs record for record,
// with a batch view over all of it.
TEST(LambdaPipelineTest, SavedLogMutantsAreRejectedOrExact) {
  Rng rng(TestSeed() ^ 0x1a3b);
  LambdaConfig config;
  config.batch_interval_records = 1000000;
  const std::string path = ::testing::TempDir() + "lambda_log_mutant.bin";
  std::vector<std::vector<LogRecord>> logs;
  std::vector<std::vector<uint8_t>> corpus;
  for (int shape = 0; shape < 4; shape++) {
    LambdaPipeline pipeline(config);
    // Distinct lengths: a meta entry pairs with one shape's chunk only.
    for (int i = 0; i < 70 * shape; i++) {
      pipeline.Ingest(i * shape - 90, NumberedKey("k", i % (2 + shape)),
                      1.0 + i % 3);
    }
    ASSERT_TRUE(pipeline.Save(path).ok());
    logs.push_back(ReadLog(pipeline.log()));
    corpus.push_back(ReadFileBytes(path));
  }

  auto target = std::make_unique<LambdaPipeline>(config);
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
    const auto before = target->serving().Snapshot();
    const Status status = target->Restore(path);
    if (!status.ok()) {
      ASSERT_EQ(target->serving().Snapshot(), before)
          << "mutant " << i << ": " << status.ToString();
      ASSERT_EQ(target->log().size(), 0u) << "mutant " << i;
      continue;
    }
    accepted++;
    const std::vector<LogRecord> restored = ReadLog(target->log());
    ASSERT_TRUE(std::any_of(logs.begin(), logs.end(),
                            [&](const std::vector<LogRecord>& log) {
                              return SameLog(restored, log);
                            }))
        << "mutant " << i;
    const auto snap = target->serving().Snapshot();
    ASSERT_EQ(snap->batch_through_offset(), restored.size()) << "mutant " << i;
    ASSERT_EQ(snap->through_offset(), restored.size()) << "mutant " << i;
    target = std::make_unique<LambdaPipeline>(config);  // Empty again.
  }
  // Splices that cut at entry boundaries and flips of the entries' version
  // fields leave whole images; the sweep must have met some.
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace streamlib::lambda
