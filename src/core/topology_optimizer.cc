#include "core/topology_optimizer.h"

namespace graphrare {
namespace core {

void AppendEditsForNode(int64_t v, const TopologyState& state,
                        const entropy::RelativeEntropyIndex& index,
                        const TopologyOptimizerOptions& options,
                        NodeEdits* out) {
  GR_CHECK(out != nullptr);
  out->add.clear();
  out->remove.clear();
  const entropy::NodeSequences& seq = index.sequences(v);
  if (options.enable_add) {
    const int64_t k = std::min<int64_t>(
        state.k(v), static_cast<int64_t>(seq.remote.size()));
    out->add.reserve(static_cast<size_t>(k));
    for (int64_t i = 0; i < k; ++i) {
      out->add.push_back(seq.remote[static_cast<size_t>(i)].node);
    }
  }
  if (options.enable_remove) {
    const int64_t d = std::min<int64_t>(
        state.d(v), static_cast<int64_t>(seq.neighbors.size()));
    out->remove.reserve(static_cast<size_t>(d));
    for (int64_t i = 0; i < d; ++i) {
      out->remove.push_back(seq.neighbors[static_cast<size_t>(i)].node);
    }
  }
}

NodeEdits EditsForNode(int64_t v, const TopologyState& state,
                       const entropy::RelativeEntropyIndex& index,
                       const TopologyOptimizerOptions& options) {
  NodeEdits edits;
  AppendEditsForNode(v, state, index, options, &edits);
  return edits;
}

void AppendEdgeEdits(int64_t v, const NodeEdits& edits,
                     std::vector<graph::EdgeEdit>* out) {
  for (const int64_t u : edits.add) out->push_back({v, u, true});
  for (const int64_t u : edits.remove) out->push_back({v, u, false});
}

graph::Graph BuildOptimizedGraph(const graph::Graph& original,
                                 const TopologyState& state,
                                 const entropy::RelativeEntropyIndex& index,
                                 const TopologyOptimizerOptions& options) {
  GR_CHECK_EQ(original.num_nodes(), state.num_nodes());
  GR_CHECK_EQ(original.num_nodes(), index.num_nodes());
  std::vector<graph::EdgeEdit> edge_edits;
  NodeEdits edits;  // reused across nodes: the per-step loop is a hot path
  for (int64_t v = 0; v < original.num_nodes(); ++v) {
    AppendEditsForNode(v, state, index, options, &edits);
    AppendEdgeEdits(v, edits, &edge_edits);
  }
  return graph::ApplyEdgeEdits(original, edge_edits);
}

}  // namespace core
}  // namespace graphrare
