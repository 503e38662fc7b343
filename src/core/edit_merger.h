// Copyright 2026 The GraphRARE Authors.
//
// Merges block-local topology edits back into the global graph. Each
// rollout block ends its episode with a per-node edit list in block-local
// id space (core/topology_optimizer.h); the merger remaps those to global
// ids and resolves overlaps between blocks with last-writer-wins per
// *source node*: when two blocks both contain node v, the block recorded
// later owns v's entire edit slice (its k_v additions and d_v removals
// replace the earlier block's). With the blocks of one rollout round
// recorded in their sampling order, the merged graph is a deterministic
// function of the round — and blocks over disjoint node sets merge to the
// same graph in any order.

#ifndef GRAPHRARE_CORE_EDIT_MERGER_H_
#define GRAPHRARE_CORE_EDIT_MERGER_H_

#include <cstdint>
#include <map>

#include "graph/subgraph.h"
#include "core/topology_optimizer.h"

namespace graphrare {
namespace core {

/// Deterministic conflict accounting for one rollout round: how often the
/// last-writer-wins rule actually fired. All counts are pure functions of
/// the multiset of (node, round) records, so they are identical across
/// thread counts and block production order.
struct ConflictStats {
  /// Distinct nodes recorded this round.
  int64_t nodes_recorded = 0;
  /// Nodes recorded by more than one block this round.
  int64_t conflict_nodes = 0;
  /// Total re-records this round (sum over nodes of records - 1).
  int64_t overwrites = 0;
  /// Nodes that already carried an edit slice from an earlier round and
  /// were re-recorded this round.
  int64_t cross_round_overwrites = 0;

  /// Fraction of this round's nodes owned by more than one block.
  double ConflictRate() const {
    return nodes_recorded > 0
               ? static_cast<double>(conflict_nodes) /
                     static_cast<double>(nodes_recorded)
               : 0.0;
  }
};

/// Accumulates per-node edit lists (global id space) and materialises the
/// merged graph against a base graph.
class EditMerger {
 public:
  /// Records node `global_v`'s edits (targets already in global ids),
  /// replacing any earlier record for the same node (last writer wins).
  /// Empty edits still claim ownership: a later block that chose
  /// (k_v, d_v) = (0, 0) erases an earlier block's edits for v.
  void Record(int64_t global_v, NodeEdits edits);

  /// Records every node of `block` from a block-local state and index
  /// (targets are remapped local -> global through block.nodes).
  void RecordBlock(const graph::Subgraph& block, const TopologyState& state,
                   const entropy::RelativeEntropyIndex& block_index,
                   const TopologyOptimizerOptions& options = {});

  /// Opens a new conflict-accounting window: round_stats() then covers the
  /// records between this call and the next. Without a BeginRound call the
  /// window spans the merger's whole lifetime.
  void BeginRound();
  /// Conflict counters of the current window.
  const ConflictStats& round_stats() const { return round_stats_; }

  /// Applies all recorded edits to `original` in ascending node order
  /// (AppendEdgeEdits), so the last edit of an edge wins: a higher node's
  /// slice overrides a lower node's on a shared edge, and within one slice
  /// a removal overrides an addition. A base edge that a lower node
  /// removes and a higher node adds ends up present.
  graph::Graph Merge(const graph::Graph& original) const;

 private:
  std::map<int64_t, NodeEdits> edits_;
  /// Records per node within the current accounting window.
  std::map<int64_t, int64_t> round_records_;
  ConflictStats round_stats_;
};

}  // namespace core
}  // namespace graphrare

#endif  // GRAPHRARE_CORE_EDIT_MERGER_H_
