#include "lambda/batch_layer.h"

#include <algorithm>
#include <cmath>

#include "common/serde.h"
#include "common/state.h"
#include "core/cardinality/hyperloglog.h"

namespace streamlib::lambda {

namespace {
// Store keys used by SnapshotTo/RestoreFrom.
std::string DistinctKey(const std::string& prefix) {
  return prefix + "/distinct_keys";
}
std::string MetaKey(const std::string& prefix) { return prefix + "/meta"; }

/// Builds `view->ranked` from its totals: total descending, key ascending.
void Rank(BatchView* view) {
  std::vector<std::pair<std::string, double>>& ranked = view->ranked;
  ranked.assign(view->key_totals.begin(), view->key_totals.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
}
}  // namespace

double BatchView::TotalOf(const std::string& key) const {
  auto it = key_totals.find(key);
  return it == key_totals.end() ? 0.0 : it->second;
}

std::vector<std::pair<std::string, double>> BatchView::TopK(size_t k) const {
  return std::vector<std::pair<std::string, double>>(
      ranked.begin(), ranked.begin() + std::min(k, ranked.size()));
}

void BatchView::SnapshotTo(platform::KvCheckpointStore* store,
                           const std::string& prefix) const {
  store->Put(DistinctKey(prefix), distinct_keys_blob);
  ByteWriter w;
  w.PutVarint(through_offset);
  w.PutVarint(key_totals.size());
  for (const auto& [key, total] : key_totals) {
    w.PutString(key);
    w.PutDouble(total);
  }
  store->Put(MetaKey(prefix), w.TakeBytes());
}

Result<BatchView> BatchView::RestoreFrom(
    const platform::KvCheckpointStore& store, const std::string& prefix) {
  BatchView view;
  Result<std::vector<uint8_t>> blob = store.Fetch(DistinctKey(prefix));
  STREAMLIB_RETURN_NOT_OK(blob.status());
  // Validate through the envelope before accepting the bytes verbatim.
  Result<HyperLogLog> distinct =
      state::FromBlob<HyperLogLog>(blob.value());
  STREAMLIB_RETURN_NOT_OK(distinct.status());
  view.distinct_keys_blob = std::move(blob).value();

  Result<std::vector<uint8_t>> meta = store.Fetch(MetaKey(prefix));
  STREAMLIB_RETURN_NOT_OK(meta.status());
  ByteReader r(meta.value());
  uint64_t num_keys = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&view.through_offset));
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&num_keys));
  if (num_keys > r.remaining()) {
    return Status::Corruption("batch view: key count exceeds payload");
  }
  for (uint64_t i = 0; i < num_keys; i++) {
    std::string key;
    double total = 0.0;
    STREAMLIB_RETURN_NOT_OK(r.GetString(&key));
    STREAMLIB_RETURN_NOT_OK(r.GetDouble(&total));
    if (!std::isfinite(total)) {
      return Status::Corruption("batch view: malformed total");
    }
    if (!view.key_totals.emplace(std::move(key), total).second) {
      return Status::Corruption("batch view: repeated key");
    }
  }
  if (!r.AtEnd()) {
    return Status::Corruption("batch view: trailing bytes");
  }
  Rank(&view);
  return view;
}

BatchView BatchLayer::Recompute(const MasterLog& log) const {
  return RecomputePrefix(log, log.size());
}

BatchView BatchLayer::RecomputePrefix(const MasterLog& log,
                                      uint64_t through_offset) const {
  BatchView view;
  view.through_offset = std::min<uint64_t>(through_offset, log.size());
  HyperLogLog distinct(12);
  log.Scan(0, view.through_offset, [&](const LogRecord& r) {
    view.key_totals[r.key] += r.value;
    distinct.Add(r.key);
  });
  view.distinct_keys_blob = state::ToBlob(distinct);
  Rank(&view);
  return view;
}

}  // namespace streamlib::lambda
