#include "core/edit_merger.h"

namespace graphrare {
namespace core {

void EditMerger::BeginRound() {
  round_records_.clear();
  round_stats_ = ConflictStats();
}

void EditMerger::Record(int64_t global_v, NodeEdits edits) {
  const int64_t count = ++round_records_[global_v];
  if (count == 1) {
    ++round_stats_.nodes_recorded;
    if (edits_.count(global_v) > 0) ++round_stats_.cross_round_overwrites;
  } else {
    ++round_stats_.overwrites;
    if (count == 2) ++round_stats_.conflict_nodes;
  }
  edits_[global_v] = std::move(edits);
}

void EditMerger::RecordBlock(const graph::Subgraph& block,
                             const TopologyState& state,
                             const entropy::RelativeEntropyIndex& block_index,
                             const TopologyOptimizerOptions& options) {
  GR_CHECK_EQ(block.num_nodes(), state.num_nodes());
  GR_CHECK_EQ(block.num_nodes(), block_index.num_nodes());
  for (int64_t local = 0; local < block.num_nodes(); ++local) {
    NodeEdits edits = EditsForNode(local, state, block_index, options);
    for (int64_t& t : edits.add) t = block.nodes[static_cast<size_t>(t)];
    for (int64_t& t : edits.remove) t = block.nodes[static_cast<size_t>(t)];
    Record(block.nodes[static_cast<size_t>(local)], std::move(edits));
  }
}

graph::Graph EditMerger::Merge(const graph::Graph& original) const {
  std::vector<graph::EdgeEdit> edge_edits;
  for (const auto& [v, edits] : edits_) {
    GR_CHECK(v >= 0 && v < original.num_nodes())
        << "EditMerger: recorded node outside the base graph";
    AppendEdgeEdits(v, edits, &edge_edits);
  }
  return graph::ApplyEdgeEdits(original, edge_edits);
}

}  // namespace core
}  // namespace graphrare
