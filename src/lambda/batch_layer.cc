#include "lambda/batch_layer.h"

#include <algorithm>

namespace streamlib::lambda {

namespace {
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

BatchView BatchLayer::Recompute(const MasterLog& log) const {
  return RecomputePrefix(log, log.size());
}

BatchView BatchLayer::RecomputePrefix(const MasterLog& log,
                                      uint64_t through_offset) const {
  BatchView view;
  view.through_offset = std::min<uint64_t>(through_offset, log.size());
  log.Scan(0, view.through_offset, [&](const LogRecord& r) {
    view.key_totals[r.key] += r.value;
    view.distinct_keys.Add(r.key);
  });
  Rank(&view);
  return view;
}

}  // namespace streamlib::lambda
