// Copyright 2026 The GraphRARE Authors.
//
// Plain-text persistence for graphs and datasets, so optimized topologies
// can be exported to downstream tools (and back). Formats:
//
//   graph:   first line "num_nodes num_edges", then one "u v" pair per line.
//   dataset: "# graphrare-dataset v1" header, then sections
//            "nodes/classes/features" counts, edge list, labels, and a
//            sparse feature listing "node dim" per active entry.

#ifndef GRAPHRARE_GRAPH_IO_H_
#define GRAPHRARE_GRAPH_IO_H_

#include <string>

#include "common/result.h"
#include "graph/graph.h"

namespace graphrare {
namespace graph {

/// Writes the canonical edge list to `path`.
Status SaveGraph(const Graph& g, const std::string& path);

/// Reads a graph written by SaveGraph. No binary calls this: it is kept as
/// the reader of the format graphrare_cli --save-graph writes, so exported
/// topologies can come back, which the round-trip tests pin.
Result<Graph> LoadGraph(const std::string& path);

}  // namespace graph
}  // namespace graphrare

#endif  // GRAPHRARE_GRAPH_IO_H_
