// Copyright 2026 The GraphRARE Authors.
//
// Graph topology optimization module (paper Fig. 4): rebuilds G_{t+1} from
// the *original* graph G_0 and the absolute state S_{t+1} — for each node v,
// connect the top-k_v entries of its remote entropy sequence and drop the
// first d_v entries of its (ascending) neighbour sequence.
//
// The per-node edit computation is id-space-agnostic: it only reads the
// state and the entropy index, so the same code serves the full graph and a
// block-local (graph::Subgraph-scoped) index produced by
// RelativeEntropyIndex::Restrict. Block edits are merged back into the
// global graph through core::EditMerger.

#ifndef GRAPHRARE_CORE_TOPOLOGY_OPTIMIZER_H_
#define GRAPHRARE_CORE_TOPOLOGY_OPTIMIZER_H_

#include <vector>

#include "entropy/relative_entropy.h"
#include "graph/graph.h"
#include "core/topology_state.h"

namespace graphrare {
namespace core {

/// Options controlling which edit channels are active (Table V ablations
/// GCN-RARE-add / GCN-RARE-remove).
struct TopologyOptimizerOptions {
  bool enable_add = true;
  bool enable_remove = true;
};

/// Edge edits contributed by one node: targets of additions (prefix of the
/// node's remote sequence) and removals (prefix of its neighbour sequence),
/// in whatever id space the producing index lives in.
struct NodeEdits {
  std::vector<int64_t> add;
  std::vector<int64_t> remove;
};

/// Edits node `v` contributes under `state` (Fig. 4, one node's slice).
/// `v`, the state, and the index must share one id space.
NodeEdits EditsForNode(int64_t v, const TopologyState& state,
                       const entropy::RelativeEntropyIndex& index,
                       const TopologyOptimizerOptions& options = {});

/// Same, writing into a caller-owned buffer (cleared first) so per-node
/// loops over the whole graph stay allocation-free after warm-up.
void AppendEditsForNode(int64_t v, const TopologyState& state,
                        const entropy::RelativeEntropyIndex& index,
                        const TopologyOptimizerOptions& options,
                        NodeEdits* out);

/// Appends node `v`'s slice to an edit list for graph::ApplyEdgeEdits: its
/// additions, then its removals. Slices appended in ascending node order
/// give the rule both rewiring paths use: the last edit of an edge wins,
/// so a later node's slice overrides an earlier node's on a shared edge,
/// and within one slice a removal overrides an addition.
void AppendEdgeEdits(int64_t v, const NodeEdits& edits,
                     std::vector<graph::EdgeEdit>* out);

/// Materialises the optimized graph for a state. Deterministic. `original`,
/// `state`, and `index` must share one id space (the full graph, or a
/// block's local space).
graph::Graph BuildOptimizedGraph(const graph::Graph& original,
                                 const TopologyState& state,
                                 const entropy::RelativeEntropyIndex& index,
                                 const TopologyOptimizerOptions& options = {});

}  // namespace core
}  // namespace graphrare

#endif  // GRAPHRARE_CORE_TOPOLOGY_OPTIMIZER_H_
