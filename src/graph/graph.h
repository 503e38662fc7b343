// Copyright 2026 The GraphRARE Authors.
//
// Immutable undirected graph topology. Construction canonicalises the edge
// list (u < v, deduplicated, no self loops); derived operators used by the
// GNN layers (normalised adjacency, 2-hop adjacency, ...) are built lazily
// and cached. Rewiring never mutates a Graph — ApplyEdgeEdits produces a
// new one — so cached operators can be shared safely across training steps.

#ifndef GRAPHRARE_GRAPH_GRAPH_H_
#define GRAPHRARE_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "tensor/sparse.h"

namespace graphrare {
namespace graph {

/// An undirected edge with canonical ordering (u <= v after normalisation).
using Edge = std::pair<int64_t, int64_t>;

/// One edit of the undirected edge {u, v}: after it, the edge is present
/// (add) or absent (!add).
struct EdgeEdit {
  int64_t u;
  int64_t v;
  bool add;
};

/// Immutable undirected simple graph (no self loops, no multi-edges).
class Graph {
 public:
  Graph() : num_nodes_(0) {}

  /// Builds from an edge list. Edges are canonicalised: (u,v) and (v,u)
  /// collapse, self loops are rejected, duplicates are deduplicated.
  /// Fails if any endpoint is outside [0, num_nodes).
  static Result<Graph> FromEdgeList(int64_t num_nodes,
                                    const std::vector<Edge>& edges);

  /// Same as FromEdgeList but aborts on invalid input (test convenience).
  static Graph FromEdgeListOrDie(int64_t num_nodes,
                                 const std::vector<Edge>& edges);

  int64_t num_nodes() const { return num_nodes_; }
  /// Number of undirected edges.
  int64_t num_edges() const { return static_cast<int64_t>(edges_.size()); }

  /// Canonical (u < v) sorted edge list.
  const std::vector<Edge>& edges() const { return edges_; }

  /// Neighbors of v, sorted ascending.
  const int64_t* NeighborsBegin(int64_t v) const;
  const int64_t* NeighborsEnd(int64_t v) const;

  int64_t Degree(int64_t v) const;
  int64_t MaxDegree() const;
  bool HasEdge(int64_t u, int64_t v) const;

  /// Binary symmetric adjacency (both directions, no self loops).
  std::shared_ptr<const tensor::CsrMatrix> Adjacency() const;

  /// GCN operator D^{-1/2} (A + I) D^{-1/2} with degrees from A + I.
  std::shared_ptr<const tensor::CsrMatrix> NormalizedAdjacency() const;

  /// Row-normalised adjacency D^{-1} A (mean aggregation, no self loops).
  /// Isolated nodes produce an all-zero row.
  std::shared_ptr<const tensor::CsrMatrix> RowNormalizedAdjacency() const;

  /// Strict 2-hop neighbourhood operator: (i,j) present iff a length-2 path
  /// exists, j != i, and (i,j) is not a 1-hop edge (H2GCN's N2). Binary.
  std::shared_ptr<const tensor::CsrMatrix> TwoHopAdjacency() const;

  /// Row-normalised strict 2-hop operator.
  std::shared_ptr<const tensor::CsrMatrix> RowNormalizedTwoHop() const;

  /// Directed edge arrays (src, dst) covering both directions of each edge
  /// plus one self loop per node (GAT attention support).
  void DirectedEdgesWithSelfLoops(std::vector<int64_t>* src,
                                  std::vector<int64_t>* dst) const;

  /// Fraction of edges whose endpoints share a label (Eq. 1 of the paper).
  /// labels.size() must equal num_nodes. Returns 0 for edgeless graphs.
  double EdgeHomophily(const std::vector<int64_t>& labels) const;

  /// Number of connected components.
  int64_t CountConnectedComponents() const;

 private:
  friend Graph ApplyEdgeEdits(const Graph& base,
                              const std::vector<EdgeEdit>& edits);

  void BuildCsr();

  int64_t num_nodes_;
  std::vector<Edge> edges_;            // canonical u < v, sorted
  std::vector<int64_t> adj_row_ptr_;   // CSR over both edge directions
  std::vector<int64_t> adj_col_;

  mutable std::shared_ptr<const tensor::CsrMatrix> adjacency_;
  mutable std::shared_ptr<const tensor::CsrMatrix> normalized_;
  mutable std::shared_ptr<const tensor::CsrMatrix> row_normalized_;
  mutable std::shared_ptr<const tensor::CsrMatrix> two_hop_;
  mutable std::shared_ptr<const tensor::CsrMatrix> row_normalized_two_hop_;
};

/// Applies `edits` to `base` in list order and returns the edited graph;
/// `base` is untouched. The last edit of an edge wins: an edge is present
/// iff its last edit is an addition, and an edge no edit names keeps its
/// base state. So removing a base edge and then adding it again leaves it
/// present, and adding a new edge and then removing it leaves it absent.
/// Edits in either direction ({u, v} or {v, u}) name the same edge;
/// self-loop edits are ignored; any other endpoint outside
/// [0, num_nodes) aborts.
///
/// Cost O(V + E + edits): the edits are bucketed by row with two stable
/// counting passes and merged into the base CSR row by row, with no hash
/// set and no sort.
Graph ApplyEdgeEdits(const Graph& base, const std::vector<EdgeEdit>& edits);

/// Sorted-merge diff of two graphs' canonical edge lists: `added` receives
/// the edges present in `after` but not `before`, `removed` the reverse.
/// Both outputs are cleared first and come back in canonical (u < v) sorted
/// order. O(E) single pass; the graphs must have the same node count.
void EdgeListDiff(const Graph& before, const Graph& after,
                  std::vector<Edge>* added, std::vector<Edge>* removed);

}  // namespace graph
}  // namespace graphrare

#endif  // GRAPHRARE_GRAPH_GRAPH_H_
