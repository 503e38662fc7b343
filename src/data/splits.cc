#include "data/splits.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace graphrare {
namespace data {
namespace {

constexpr double kValFraction = 0.2;  // Geom-GCN's 20% validation share

}  // namespace

std::vector<Split> MakeSplits(const std::vector<int64_t>& labels,
                              int64_t num_classes,
                              const SplitOptions& options) {
  GR_CHECK_GT(num_classes, 0);
  GR_CHECK(options.train_fraction > 0.0 &&
           options.train_fraction + kValFraction < 1.0)
      << "invalid split fractions";
  GR_CHECK_GT(options.num_splits, 0);

  std::vector<std::vector<int64_t>> by_class(
      static_cast<size_t>(num_classes));
  for (size_t i = 0; i < labels.size(); ++i) {
    GR_CHECK(labels[i] >= 0 && labels[i] < num_classes)
        << "label out of range at node " << i;
    by_class[static_cast<size_t>(labels[i])].push_back(
        static_cast<int64_t>(i));
  }

  Rng rng(options.seed);
  std::vector<Split> splits;
  splits.reserve(static_cast<size_t>(options.num_splits));
  for (int s = 0; s < options.num_splits; ++s) {
    Rng split_rng = rng.Fork();
    Split split;
    for (auto members : by_class) {
      if (members.empty()) continue;
      split_rng.Shuffle(&members);
      const int64_t m = static_cast<int64_t>(members.size());
      int64_t n_train = static_cast<int64_t>(
          options.train_fraction * static_cast<double>(m));
      int64_t n_val =
          static_cast<int64_t>(kValFraction * static_cast<double>(m));
      if (m >= 3) {
        // Guarantee representation of every class everywhere.
        n_train = std::max<int64_t>(n_train, 1);
        n_val = std::max<int64_t>(n_val, 1);
        if (n_train + n_val >= m) {
          n_val = std::max<int64_t>(1, m - n_train - 1);
        }
        if (n_train + n_val >= m) {
          n_train = m - n_val - 1;
        }
      } else {
        n_train = std::min(n_train, m);
        n_val = std::min(n_val, m - n_train);
      }
      for (int64_t i = 0; i < m; ++i) {
        if (i < n_train) {
          split.train.push_back(members[static_cast<size_t>(i)]);
        } else if (i < n_train + n_val) {
          split.val.push_back(members[static_cast<size_t>(i)]);
        } else {
          split.test.push_back(members[static_cast<size_t>(i)]);
        }
      }
    }
    std::sort(split.train.begin(), split.train.end());
    std::sort(split.val.begin(), split.val.end());
    std::sort(split.test.begin(), split.test.end());
    splits.push_back(std::move(split));
  }
  return splits;
}

}  // namespace data
}  // namespace graphrare
