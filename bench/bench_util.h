// Copyright 2026 The GraphRARE Authors.
//
// Shared helpers for the bench binaries that regenerate the paper's tables
// and figures. Default ("quick") mode shrinks the dense datasets and the
// split counts so the whole suite finishes in minutes on a laptop CPU; set
// GRARE_BENCH_FULL=1 for the paper-scale protocol.

#ifndef GRAPHRARE_BENCH_BENCH_UTIL_H_
#define GRAPHRARE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/graphrare.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace graphrare {
namespace bench {

/// Peak resident set size in MiB (0 when the platform has no getrusage).
/// Monotonic across the process: read it before running a second,
/// heavier path or the first path's figure is inflated.
inline double PeakRssMiB() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
#else
  return 0.0;
#endif
}

/// Per-dataset shrink factors for quick mode (1 = full scale). The dense
/// wiki graphs and Pubmed dominate runtime, so they shrink hardest.
inline int64_t QuickShrinkFor(const std::string& name) {
  if (!core::BenchFullScale()) {
    if (name == "chameleon") return 2;
    if (name == "squirrel") return 6;
    if (name == "pubmed") return 6;
    if (name == "cora") return 2;
  }
  return 1;
}

/// Loads a registry dataset at bench scale.
inline data::Dataset LoadBenchDataset(const std::string& name,
                                      uint64_t seed = 1) {
  const int64_t shrink = core::BenchFullScale() ? 1 : QuickShrinkFor(name);
  auto result = data::MakeDatasetScaled(name, shrink, seed);
  GR_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Standard splits for a dataset at bench scale.
inline std::vector<data::Split> BenchSplits(const data::Dataset& ds,
                                            int quick_splits = 2) {
  data::SplitOptions so;
  so.num_splits = core::BenchNumSplits(10, quick_splits);
  return data::MakeSplits(ds.labels, ds.num_classes, so);
}

/// GraphRARE options tuned for bench scale.
inline core::GraphRareOptions BenchRareOptions(nn::BackboneKind backbone) {
  core::GraphRareOptions opts;
  opts.backbone = backbone;
  opts.adam.lr = 0.01f;
  opts.adam.weight_decay = 5e-5f;
  opts.seed = 7;  // same per-split model-init seeds as the baselines
  // Pretraining gets the same supervised budget as the baseline fits so
  // accuracy deltas isolate the topology optimization, not training time.
  if (core::BenchFullScale()) {
    opts.iterations = 40;
    opts.pretrain_epochs = 200;
    opts.pretrain_patience = 30;
    opts.finetune_epochs = 8;
  } else {
    opts.iterations = 24;
    opts.pretrain_epochs = 100;
    opts.pretrain_patience = 20;
    opts.finetune_epochs = 6;
  }
  opts.ppo.steps_per_update = 6;
  return opts;
}

/// Baseline fit budget at bench scale.
inline core::ExperimentOptions BenchBaselineOptions() {
  core::ExperimentOptions opts;
  if (core::BenchFullScale()) {
    opts.max_epochs = 200;
    opts.patience = 30;
  } else {
    opts.max_epochs = 100;
    opts.patience = 20;
  }
  return opts;
}

/// "85.16 ±1.01"-style cell.
inline std::string AccCell(const core::RunStats& s) {
  return StrFormat("%5.2f ±%.2f", 100.0 * s.mean, 100.0 * s.stddev);
}

/// Header banner shared by all benches.
inline void PrintBanner(const char* experiment, const char* paper_ref) {
  std::printf("=======================================================\n");
  std::printf("GraphRARE reproduction — %s\n", experiment);
  std::printf("Paper reference: %s\n", paper_ref);
  std::printf("Mode: %s (set GRARE_BENCH_FULL=1 for paper-scale)\n",
              core::BenchFullScale() ? "FULL" : "QUICK");
  std::printf("=======================================================\n\n");
}

/// Row printer: name column + cells. Cells are right-aligned by display
/// width (a UTF-8 "±" is two bytes but one column), and each keeps at
/// least one space before it, so a cell as wide as its column never runs
/// into its neighbour.
inline void PrintRow(const std::string& name,
                     const std::vector<std::string>& cells,
                     size_t name_width = 24, size_t cell_width = 14) {
  std::printf("%s", PadRight(name, name_width).c_str());
  for (const auto& c : cells) {
    size_t width = 0;
    for (const unsigned char ch : c) width += (ch & 0xC0) != 0x80;
    const size_t pad = width < cell_width ? cell_width - width : 1;
    std::printf("%*s%s", static_cast<int>(pad), "", c.c_str());
  }
  std::printf("\n");
}

/// Machine-readable output for the scaling benches (million_node,
/// minibatch_scaling): accumulates per-config records and writes
/// BENCH_<name>.json in the working directory, so their figures (round
/// time, peak RSS, accuracy, ...) can be read without parsing stdout
/// tables. The cross-change speed trajectory is perfbench's, not this.
/// Format:
///   {"bench": "<name>", "full_scale": 0|1,
///    "configs": [{"key": value, ...}, ...]}
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  /// Starts a new config record; subsequent Field calls attach to it.
  BenchJson& BeginConfig() {
    configs_.emplace_back();
    return *this;
  }
  BenchJson& Field(const std::string& key, const std::string& value) {
    return Raw(key, StrFormat("\"%s\"", Escape(value).c_str()));
  }
  BenchJson& Field(const std::string& key, const char* value) {
    return Field(key, std::string(value));
  }
  BenchJson& Field(const std::string& key, double value) {
    return Raw(key, StrFormat("%.6g", value));
  }
  BenchJson& Field(const std::string& key, int64_t value) {
    return Raw(key, StrFormat("%lld", static_cast<long long>(value)));
  }
  BenchJson& Field(const std::string& key, int value) {
    return Field(key, static_cast<int64_t>(value));
  }
  BenchJson& Field(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }

  /// Writes BENCH_<name>.json (path printed). Returns false on I/O error.
  bool Write() const {
    const std::string path = StrFormat("BENCH_%s.json", name_.c_str());
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchJson: cannot open %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\"bench\": \"%s\", \"full_scale\": %d, \"configs\": [",
                 Escape(name_).c_str(), core::BenchFullScale() ? 1 : 0);
    for (size_t c = 0; c < configs_.size(); ++c) {
      std::fprintf(f, "%s{", c == 0 ? "" : ", ");
      for (size_t i = 0; i < configs_[c].size(); ++i) {
        std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                     Escape(configs_[c][i].first).c_str(),
                     configs_[c][i].second.c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("\nmachine-readable results written to %s\n", path.c_str());
    return true;
  }

 private:
  BenchJson& Raw(const std::string& key, std::string json_value) {
    GR_CHECK(!configs_.empty()) << "BenchJson: Field before BeginConfig";
    configs_.back().emplace_back(key, std::move(json_value));
    return *this;
  }
  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::vector<std::vector<std::pair<std::string, std::string>>> configs_;
};

}  // namespace bench
}  // namespace graphrare

#endif  // GRAPHRARE_BENCH_BENCH_UTIL_H_
