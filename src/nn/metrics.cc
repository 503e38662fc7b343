#include "nn/metrics.h"

#include <algorithm>

#include "common/check.h"

namespace graphrare {
namespace nn {

double Accuracy(const tensor::Tensor& logits,
                const std::vector<int64_t>& labels,
                const std::vector<int64_t>& index) {
  GR_CHECK(!index.empty());
  int64_t correct = 0;
  for (int64_t i : index) {
    GR_CHECK(i >= 0 && i < logits.rows());
    if (logits.ArgMaxRow(i) == labels[static_cast<size_t>(i)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(index.size());
}

double MacroAucOvr(const tensor::Tensor& logits,
                   const std::vector<int64_t>& labels,
                   const std::vector<int64_t>& index, int64_t num_classes) {
  GR_CHECK(!index.empty());
  GR_CHECK_GT(num_classes, 1);
  double auc_sum = 0.0;
  int64_t valid_classes = 0;
  std::vector<std::pair<float, int>> scored;  // (score, is_positive)
  for (int64_t c = 0; c < num_classes; ++c) {
    scored.clear();
    int64_t positives = 0;
    for (int64_t i : index) {
      const bool pos = labels[static_cast<size_t>(i)] == c;
      positives += pos ? 1 : 0;
      scored.emplace_back(logits.at(i, c), pos ? 1 : 0);
    }
    const int64_t negatives = static_cast<int64_t>(index.size()) - positives;
    if (positives == 0 || negatives == 0) continue;
    // Rank-based AUC (Mann-Whitney U) with midrank tie handling.
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    double rank_sum_pos = 0.0;
    size_t i = 0;
    while (i < scored.size()) {
      size_t j = i;
      while (j < scored.size() && scored[j].first == scored[i].first) ++j;
      const double midrank =
          (static_cast<double>(i) + static_cast<double>(j - 1)) / 2.0 + 1.0;
      for (size_t k = i; k < j; ++k) {
        if (scored[k].second) rank_sum_pos += midrank;
      }
      i = j;
    }
    const double u = rank_sum_pos - static_cast<double>(positives) *
                                        (static_cast<double>(positives) + 1.0) /
                                        2.0;
    auc_sum += u / (static_cast<double>(positives) *
                    static_cast<double>(negatives));
    ++valid_classes;
  }
  if (valid_classes == 0) return 0.5;
  return auc_sum / static_cast<double>(valid_classes);
}

}  // namespace nn
}  // namespace graphrare
