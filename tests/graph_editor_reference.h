// The rewiring path graph::ApplyEdgeEdits replaced, kept as its reference:
// a batch editor over two std::sets (queued additions of non-base edges,
// queued removals of base edges) whose Build filters the base edge list
// and re-canonicalises everything through Graph::FromEdgeListOrDie.
// ApplyEdgeEdits, BuildOptimizedGraph and EditMerger::Merge must produce
// exactly the graph this editor builds from the same edits in the same
// order: same edge list, same adjacency rows.

#ifndef GRAPHRARE_TESTS_GRAPH_EDITOR_REFERENCE_H_
#define GRAPHRARE_TESTS_GRAPH_EDITOR_REFERENCE_H_

#include <algorithm>
#include <set>
#include <vector>

#include "common/check.h"
#include "core/topology_optimizer.h"
#include "graph/graph.h"

namespace graphrare {
namespace testing_ref {

class ReferenceGraphEditor {
 public:
  explicit ReferenceGraphEditor(const graph::Graph* base) : base_(base) {}

  void AddEdge(int64_t u, int64_t v) {
    if (u == v) return;
    GR_CHECK(u >= 0 && u < base_->num_nodes());
    GR_CHECK(v >= 0 && v < base_->num_nodes());
    const graph::Edge e = Canonical(u, v);
    if (base_->HasEdge(u, v)) {
      removals_.erase(e);  // adding an existing edge cancels its removal
      return;
    }
    additions_.insert(e);
  }

  void RemoveEdge(int64_t u, int64_t v) {
    if (u == v) return;
    GR_CHECK(u >= 0 && u < base_->num_nodes());
    GR_CHECK(v >= 0 && v < base_->num_nodes());
    const graph::Edge e = Canonical(u, v);
    if (!base_->HasEdge(u, v)) {
      additions_.erase(e);  // removing a queued addition unqueues it
      return;
    }
    removals_.insert(e);
  }

  graph::Graph Build() const {
    std::vector<graph::Edge> edges;
    for (const auto& e : base_->edges()) {
      if (!removals_.count(e)) edges.push_back(e);
    }
    for (const auto& e : additions_) {
      if (!removals_.count(e)) edges.push_back(e);
    }
    return graph::Graph::FromEdgeListOrDie(base_->num_nodes(), edges);
  }

 private:
  static graph::Edge Canonical(int64_t u, int64_t v) {
    return u < v ? graph::Edge{u, v} : graph::Edge{v, u};
  }

  const graph::Graph* base_;
  std::set<graph::Edge> additions_;
  std::set<graph::Edge> removals_;
};

/// Replays `edits` in order through the reference editor.
inline graph::Graph ReferenceApplyEdgeEdits(
    const graph::Graph& base, const std::vector<graph::EdgeEdit>& edits) {
  ReferenceGraphEditor editor(&base);
  for (const graph::EdgeEdit& e : edits) {
    if (e.add) {
      editor.AddEdge(e.u, e.v);
    } else {
      editor.RemoveEdge(e.u, e.v);
    }
  }
  return editor.Build();
}

/// BuildOptimizedGraph as it was written over the editor: per node in
/// ascending order, its additions and then its removals.
inline graph::Graph ReferenceBuildOptimizedGraph(
    const graph::Graph& original, const core::TopologyState& state,
    const entropy::RelativeEntropyIndex& index,
    const core::TopologyOptimizerOptions& options = {}) {
  ReferenceGraphEditor editor(&original);
  for (int64_t v = 0; v < original.num_nodes(); ++v) {
    const core::NodeEdits edits = core::EditsForNode(v, state, index, options);
    for (const int64_t u : edits.add) editor.AddEdge(v, u);
    for (const int64_t u : edits.remove) editor.RemoveEdge(v, u);
  }
  return editor.Build();
}

/// Same edge list and the same adjacency row for every node.
inline bool SameGraph(const graph::Graph& a, const graph::Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.edges() != b.edges()) return false;
  for (int64_t v = 0; v < a.num_nodes(); ++v) {
    if (!std::equal(a.NeighborsBegin(v), a.NeighborsEnd(v),
                    b.NeighborsBegin(v), b.NeighborsEnd(v))) {
      return false;
    }
  }
  return true;
}

}  // namespace testing_ref
}  // namespace graphrare

#endif  // GRAPHRARE_TESTS_GRAPH_EDITOR_REFERENCE_H_
