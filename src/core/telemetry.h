// Copyright 2026 The GraphRARE Authors.
//
// Training telemetry: CSV export of GraphRareResult (the Fig. 6 curves)
// and per-round block-rollout telemetry — block sizes, merge conflicts,
// rewards — logged at the end of every PPO round so large runs surface
// scheduler health without a debugger.

#ifndef GRAPHRARE_CORE_TELEMETRY_H_
#define GRAPHRARE_CORE_TELEMETRY_H_

#include <string>

#include "common/status.h"
#include "core/trainer.h"

namespace graphrare {
namespace core {

/// Writes one row per co-training iteration:
/// iteration,train_accuracy,val_accuracy,homophily,reward
Status WriteTelemetryCsv(const GraphRareResult& result,
                         const std::string& path);

/// Formats the same content into a string (unit tests, stdout piping).
std::string TelemetryCsvString(const GraphRareResult& result);

/// One-line human-readable summary of a round.
std::string FormatBlockRound(const BlockRoundTelemetry& t);

/// Logs FormatBlockRound at INFO severity.
void LogBlockRound(const BlockRoundTelemetry& t);

}  // namespace core
}  // namespace graphrare

#endif  // GRAPHRARE_CORE_TELEMETRY_H_
