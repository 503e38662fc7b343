// Copyright 2026 The GraphRARE Authors.
//
// Message-passing layers (Eq. 12-13 of the paper: AGGREGATE + UPDATE).
// Each layer takes the graph-derived sparse operator(s) plus node features
// and returns updated node features. Layers are graph-agnostic: the caller
// passes the operators of whatever (possibly rewired) graph is current.

#ifndef GRAPHRARE_NN_GNN_LAYERS_H_
#define GRAPHRARE_NN_GNN_LAYERS_H_

#include <memory>
#include <vector>

#include "graph/graph.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace graphrare {
namespace nn {

/// Node features entering a layer: dense Variable or (first layer only)
/// a constant sparse matrix.
struct LayerInput {
  tensor::Variable dense;                                // defined() if dense
  std::shared_ptr<const tensor::CsrMatrix> sparse;       // non-null if sparse

  static LayerInput Dense(tensor::Variable v) {
    LayerInput in;
    in.dense = std::move(v);
    return in;
  }
  static LayerInput Sparse(std::shared_ptr<const tensor::CsrMatrix> m) {
    LayerInput in;
    in.sparse = std::move(m);
    return in;
  }
  bool is_sparse() const { return sparse != nullptr; }
};

/// GCN layer (Kipf & Welling): H' = D^{-1/2}(A+I)D^{-1/2} (H W).
class GCNConv : public Module {
 public:
  GCNConv(int64_t in_features, int64_t out_features, Rng* rng);

  tensor::Variable Forward(const graph::Graph& g, const LayerInput& x) const;

 private:
  std::unique_ptr<Linear> linear_;
};

/// GraphSAGE layer (mean aggregator): H' = H W_self + mean_N(H) W_neigh.
class SAGEConv : public Module {
 public:
  SAGEConv(int64_t in_features, int64_t out_features, Rng* rng);

  tensor::Variable Forward(const graph::Graph& g, const LayerInput& x) const;

 private:
  std::unique_ptr<Linear> self_linear_;
  std::unique_ptr<Linear> neigh_linear_;
};

/// Multi-head GAT layer (Velickovic et al.) with additive attention over
/// directed edges + self loops. Head outputs are concatenated.
class GATConv : public Module {
 public:
  GATConv(int64_t in_features, int64_t out_per_head, int num_heads, Rng* rng,
          float attention_dropout = 0.0f, float negative_slope = 0.2f);

  tensor::Variable Forward(const graph::Graph& g, const LayerInput& x,
                           bool training, Rng* rng) const;

 private:
  struct Head {
    std::unique_ptr<Linear> proj;     // no bias
    tensor::Variable attn_src;        // (out,1)
    tensor::Variable attn_dst;        // (out,1)
  };
  std::vector<Head> heads_;
  float attention_dropout_;
  float negative_slope_;
};

/// MixHop layer (Abu-El-Haija et al.): concat over adjacency powers
/// {0, 1, 2} of \hat{A}^j (H W_j).
class MixHopConv : public Module {
 public:
  MixHopConv(int64_t in_features, int64_t out_per_power, Rng* rng);

  tensor::Variable Forward(const graph::Graph& g, const LayerInput& x) const;

  /// Output width = 3 * out_per_power.
  int64_t out_features() const { return 3 * out_per_power_; }

 private:
  int64_t out_per_power_;
  std::unique_ptr<Linear> w0_;
  std::unique_ptr<Linear> w1_;
  std::unique_ptr<Linear> w2_;
};

/// H2GCN aggregation step (Zhu et al.): concat of 1-hop and strict-2-hop
/// mean aggregations. Parameter-free (H2GCN's design); widths double.
tensor::Variable H2GCNAggregate(const graph::Graph& g,
                                const tensor::Variable& h);

}  // namespace nn
}  // namespace graphrare

#endif  // GRAPHRARE_NN_GNN_LAYERS_H_
