// Copyright 2026 The GraphRARE Authors.
//
// The MDP state S = [k_1..k_N, d_1..d_N] (paper Sec. IV-B): per node, how
// many remote candidates are connected and how many 1-hop neighbours are
// dropped. Actions are per-node deltas in {-1, 0, +1}, clamped to bounds.

#ifndef GRAPHRARE_CORE_TOPOLOGY_STATE_H_
#define GRAPHRARE_CORE_TOPOLOGY_STATE_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "rl/ppo.h"

namespace graphrare {
namespace core {

/// Per-node (k, d) counters with bounds.
class TopologyState {
 public:
  TopologyState(int64_t num_nodes, int k_max, int d_max)
      : k_(static_cast<size_t>(num_nodes), 0),
        d_(static_cast<size_t>(num_nodes), 0),
        k_max_(k_max),
        d_max_(d_max) {
    GR_CHECK_GE(k_max, 0);
    GR_CHECK_GE(d_max, 0);
  }

  int64_t num_nodes() const { return static_cast<int64_t>(k_.size()); }
  int k_max() const { return k_max_; }
  int d_max() const { return d_max_; }

  int k(int64_t v) const { return k_[static_cast<size_t>(v)]; }
  int d(int64_t v) const { return d_[static_cast<size_t>(v)]; }

  /// S_{t+1} = S_t + A_t (Eq. 10), clamped into [0, k_max] x [0, d_max].
  void Apply(const rl::ActionSample& action) {
    GR_CHECK_EQ(static_cast<int64_t>(action.delta_k.size()), num_nodes());
    GR_CHECK_EQ(static_cast<int64_t>(action.delta_d.size()), num_nodes());
    for (size_t i = 0; i < k_.size(); ++i) {
      k_[i] = Clamp(k_[i] + action.delta_k[i], k_max_);
      d_[i] = Clamp(d_[i] + action.delta_d[i], d_max_);
    }
  }

  /// Sets every node to the same (k, d) — the fixed-hyper-parameter
  /// baseline of Fig. 5.
  void SetUniform(int k, int d) {
    for (auto& v : k_) v = Clamp(k, k_max_);
    for (auto& v : d_) v = Clamp(d, d_max_);
  }

  /// Independently uniform k in [0, k_hi], d in [0, d_hi] per node — the
  /// GCN-RE[0..x] ablation of Table V.
  void SetRandom(int k_hi, int d_hi, Rng* rng) {
    GR_CHECK(rng != nullptr);
    for (auto& v : k_) {
      v = Clamp(static_cast<int>(rng->UniformInt(0, k_hi)), k_max_);
    }
    for (auto& v : d_) {
      v = Clamp(static_cast<int>(rng->UniformInt(0, d_hi)), d_max_);
    }
  }

 private:
  static int Clamp(int v, int hi) { return v < 0 ? 0 : (v > hi ? hi : v); }

  std::vector<int> k_;
  std::vector<int> d_;
  int k_max_;
  int d_max_;
};

}  // namespace core
}  // namespace graphrare

#endif  // GRAPHRARE_CORE_TOPOLOGY_STATE_H_
