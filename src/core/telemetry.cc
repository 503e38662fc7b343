#include "core/telemetry.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"

namespace graphrare {
namespace core {

std::string TelemetryCsvString(const GraphRareResult& result) {
  std::ostringstream out;
  out << "iteration,train_accuracy,val_accuracy,homophily,reward\n";
  // Row count follows the longest history: the block-rollout path fills
  // only reward/val (no per-iteration train accuracy), the full-graph
  // path fills all four.
  const size_t n = std::max(
      std::max(result.train_acc_history.size(),
               result.val_acc_history.size()),
      std::max(result.homophily_history.size(),
               result.reward_history.size()));
  const auto at = [](const std::vector<double>& h, size_t i) {
    return i < h.size() ? h[i] : 0.0;
  };
  for (size_t i = 0; i < n; ++i) {
    out << i << "," << at(result.train_acc_history, i) << ","
        << at(result.val_acc_history, i) << ","
        << at(result.homophily_history, i) << ","
        << at(result.reward_history, i) << "\n";
  }
  return out.str();
}

Status WriteTelemetryCsv(const GraphRareResult& result,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal(
        StrFormat("cannot open '%s' for writing", path.c_str()));
  }
  out << TelemetryCsvString(result);
  if (!out.good()) {
    return Status::Internal(StrFormat("write failed for '%s'", path.c_str()));
  }
  return Status::OK();
}

std::string FormatBlockRound(const BlockRoundTelemetry& t) {
  return StrFormat(
      "round %d: blocks=%d nodes=%lld recorded=%lld conflicts=%lld "
      "(rate %.3f, overwrites %lld, cross-round %lld) reward=%.4f "
      "val_acc=%.4f",
      t.round, t.num_blocks, static_cast<long long>(t.block_nodes),
      static_cast<long long>(t.conflicts.nodes_recorded),
      static_cast<long long>(t.conflicts.conflict_nodes),
      t.conflicts.ConflictRate(),
      static_cast<long long>(t.conflicts.overwrites),
      static_cast<long long>(t.conflicts.cross_round_overwrites),
      t.mean_reward, t.val_accuracy);
}

void LogBlockRound(const BlockRoundTelemetry& t) {
  GR_LOG(INFO) << FormatBlockRound(t);
}

}  // namespace core
}  // namespace graphrare
