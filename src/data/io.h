// Copyright 2026 The GraphRARE Authors.
//
// Text persistence for whole datasets (graph + labels + sparse binary
// features), so generated twins and optimized topologies can move between
// processes and tools, and so real graphs can be fed to
// `graphrare_cli --dataset=PATH`. Format ("# graphrare-dataset v1"):
//
//   # graphrare-dataset v1
//   name <name>
//   nodes <N> edges <E> features <d> classes <C>
//   labels
//   <N integers>
//   edges
//   <E "u v" lines>
//   features            (sparse binary: one "node dim" pair per line)
//   <nnz "i j" lines>
//   end

#ifndef GRAPHRARE_DATA_IO_H_
#define GRAPHRARE_DATA_IO_H_

#include <string>

#include "common/result.h"
#include "data/dataset.h"

namespace graphrare {
namespace data {

/// Writes the dataset to `path`. Features must be binary (0/1), which all
/// generator outputs are; non-binary features are rejected. No binary calls
/// this: it is kept as the reference writer of the format LoadDataset (and
/// so graphrare_cli --dataset=PATH) reads, which the round-trip tests pin.
Status SaveDataset(const Dataset& dataset, const std::string& path);

/// Reads a dataset in the format above (as written by SaveDataset).
Result<Dataset> LoadDataset(const std::string& path);

}  // namespace data
}  // namespace graphrare

#endif  // GRAPHRARE_DATA_IO_H_
