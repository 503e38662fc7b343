// The benchmark's four workloads and the report they produce.
//
//   cotrain-full         core::GraphRareTrainer::Run (Algorithm 1, GCN) on
//                        the chameleon-shaped registry dataset
//   cotrain-blocks       core::RunBlockCoTraining (SAGE, 4 x 128-seed
//                        blocks, fanouts 10,10, prefetch 1) on a generated
//                        20k-node heterophilic graph
//   serve-sampled        open-loop Zipfian /v1/predict, 16 ids per request,
//                        sampled-mode engine (fanouts 10,10)
//   serve-lookup-reload  the same graph in full-graph mode, 1 id per
//                        request, /v1/reload of an alternate artifact every
//                        second
//
// Every workload reports the same end-to-end metric names (see README.md
// for what each means per workload) and, in a traced run, the same
// per-layer metric names.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t count = 1;  ///< samples behind the value
  /// Per-layer only: false when the workload's own path never calls the
  /// layer and the number comes from a replay on its inputs alone.
  bool on_path = true;
};

using MetricMap = std::map<std::string, Metric>;

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricMap metrics;  ///< end-to-end (untraced) or per-layer (traced)
  /// Human-readable lines: the workload's own named figures (entropy
  /// build, fail fraction, reload round trip, ...) and the output digest.
  std::vector<std::string> notes;
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< working directory for artifact files
};

std::vector<std::string> WorkloadNames();

/// Runs one workload. Aborts (GR_CHECK) only on a broken program; wrong
/// outputs come back as report.correct == false.
Report RunWorkload(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
