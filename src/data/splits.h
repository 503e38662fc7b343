// Copyright 2026 The GraphRARE Authors.
//
// Per-class random splits following the protocol of Pei et al. (Geom-GCN),
// which the paper adopts: 60%/20%/20% of the nodes of each class for
// train/validation/test, ten independent random splits.

#ifndef GRAPHRARE_DATA_SPLITS_H_
#define GRAPHRARE_DATA_SPLITS_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace graphrare {
namespace data {

/// Options for split generation.
struct SplitOptions {
  double train_fraction = 0.6;
  // Validation takes a fixed 20% (kValFraction in splits.cc); test gets
  // the remainder.
  int num_splits = 10;
  uint64_t seed = 7;
};

/// Builds `options.num_splits` independent per-class random splits. Every
/// class contributes at least one node to each partition whenever it has
/// >= 3 members. Indices within each partition are sorted.
std::vector<Split> MakeSplits(const std::vector<int64_t>& labels,
                              int64_t num_classes,
                              const SplitOptions& options = {});

}  // namespace data
}  // namespace graphrare

#endif  // GRAPHRARE_DATA_SPLITS_H_
