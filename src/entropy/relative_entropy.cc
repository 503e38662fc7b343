#include "entropy/relative_entropy.h"

#include <algorithm>

#include "common/logging.h"

namespace graphrare {
namespace entropy {

namespace {

// Canonical sequence orders (shared by Build and ApplyEdits so incremental
// refresh lands candidates exactly where a full rebuild would put them).
bool RemoteOrder(const ScoredNode& a, const ScoredNode& b) {
  return a.entropy != b.entropy ? a.entropy > b.entropy : a.node < b.node;
}

bool NeighborOrder(const ScoredNode& a, const ScoredNode& b) {
  return a.entropy != b.entropy ? a.entropy < b.entropy : a.node < b.node;
}

// Removes `node` from `seq` (sorted by entropy, so lookup is a linear scan
// over a short list) and reports its carried score.
bool ExtractNode(std::vector<ScoredNode>* seq, int64_t node, double* score) {
  for (auto it = seq->begin(); it != seq->end(); ++it) {
    if (it->node == node) {
      *score = it->entropy;
      seq->erase(it);
      return true;
    }
  }
  return false;
}

void InsertSorted(std::vector<ScoredNode>* seq, ScoredNode s,
                  bool (*order)(const ScoredNode&, const ScoredNode&)) {
  seq->insert(std::lower_bound(seq->begin(), seq->end(), s, order), s);
}

}  // namespace

Status EntropyOptions::Validate() const {
  if (lambda < 0.0) {
    return Status::InvalidArgument("lambda must be non-negative");
  }
  if (max_two_hop_candidates < 0 || num_random_candidates < 0) {
    return Status::InvalidArgument("candidate counts must be non-negative");
  }
  if (max_two_hop_candidates + num_random_candidates == 0) {
    return Status::InvalidArgument(
        "at least one candidate source must be enabled");
  }
  return Status::OK();
}

Result<RelativeEntropyIndex> RelativeEntropyIndex::Build(
    const graph::Graph& g, const tensor::Tensor& features,
    const EntropyOptions& options) {
  GR_RETURN_IF_ERROR(options.Validate());
  if (features.rows() != g.num_nodes()) {
    return Status::InvalidArgument("features rows != num_nodes");
  }
  const int64_t n = g.num_nodes();
  Rng rng(options.seed);

  const tensor::Tensor z = EmbedFeatures(features, options.embedding);
  StructuralEntropyCalculator structural(g);

  // --- Candidate generation: per-node remote candidates + 1-hop pairs. ---
  std::vector<NodePair> pairs;            // all (v, candidate) pairs
  std::vector<int64_t> pair_owner_begin;  // per node: offset into `pairs`
  std::vector<int64_t> remote_count;      // per node: #remote pairs
  pair_owner_begin.reserve(static_cast<size_t>(n) + 1);
  remote_count.reserve(static_cast<size_t>(n));

  // taken[c] == v marks c as already a candidate (or v itself, or a
  // neighbour) for node v; v only grows, so no per-node clear is needed.
  std::vector<int64_t> taken(static_cast<size_t>(n), -1);
  for (int64_t v = 0; v < n; ++v) {
    pair_owner_begin.push_back(static_cast<int64_t>(pairs.size()));
    taken[static_cast<size_t>(v)] = v;
    for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v); ++p) {
      taken[static_cast<size_t>(*p)] = v;
    }

    // 2-hop candidates (sampled down when large).
    std::vector<int64_t> two_hop;
    for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v); ++p) {
      for (const int64_t* q = g.NeighborsBegin(*p); q != g.NeighborsEnd(*p);
           ++q) {
        if (taken[static_cast<size_t>(*q)] != v) {
          taken[static_cast<size_t>(*q)] = v;
          two_hop.push_back(*q);
        }
      }
    }
    if (static_cast<int>(two_hop.size()) > options.max_two_hop_candidates) {
      // Sample without replacement, deterministically.
      std::vector<int64_t> picks = rng.SampleWithoutReplacement(
          static_cast<int64_t>(two_hop.size()),
          options.max_two_hop_candidates);
      std::vector<int64_t> sampled;
      sampled.reserve(picks.size());
      for (int64_t i : picks) sampled.push_back(two_hop[static_cast<size_t>(i)]);
      two_hop = std::move(sampled);
    }

    // Uniform remote candidates (anywhere in the graph).
    std::vector<int64_t> random_remote;
    int attempts = 0;
    while (static_cast<int>(random_remote.size()) <
               options.num_random_candidates &&
           attempts < options.num_random_candidates * 20) {
      ++attempts;
      const int64_t c = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(n)));
      if (taken[static_cast<size_t>(c)] != v) {
        taken[static_cast<size_t>(c)] = v;
        random_remote.push_back(c);
      }
    }

    int64_t remote = 0;
    for (int64_t c : two_hop) {
      pairs.emplace_back(v, c);
      ++remote;
    }
    for (int64_t c : random_remote) {
      pairs.emplace_back(v, c);
      ++remote;
    }
    remote_count.push_back(remote);
    // 1-hop pairs (for the deletion sequence).
    for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v); ++p) {
      pairs.emplace_back(v, *p);
    }
  }
  pair_owner_begin.push_back(static_cast<int64_t>(pairs.size()));

  // --- Feature entropy over the whole pair set, then min-max rescale. ---
  std::vector<double> hf = FeatureEntropyForPairs(z, pairs);
  if (!hf.empty()) {
    const auto [mn_it, mx_it] = std::minmax_element(hf.begin(), hf.end());
    const double mn = *mn_it, mx = *mx_it;
    const double range = mx - mn;
    for (double& h : hf) {
      h = range > 0.0 ? (h - mn) / range : 0.5;
    }
  }

  // --- Assemble sequences. ---
  RelativeEntropyIndex index;
  index.lambda_ = options.lambda;
  index.sequences_.resize(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    NodeSequences& seq = index.sequences_[static_cast<size_t>(v)];
    const int64_t begin = pair_owner_begin[static_cast<size_t>(v)];
    const int64_t end = pair_owner_begin[static_cast<size_t>(v) + 1];
    const int64_t n_remote = remote_count[static_cast<size_t>(v)];
    for (int64_t i = begin; i < end; ++i) {
      const int64_t u = pairs[static_cast<size_t>(i)].second;
      const double h = hf[static_cast<size_t>(i)] +
                       options.lambda * structural.Between(v, u);
      if (i - begin < n_remote) {
        seq.remote.push_back({u, h});
      } else {
        seq.neighbors.push_back({u, h});
      }
    }
    std::sort(seq.remote.begin(), seq.remote.end(), RemoteOrder);
    std::sort(seq.neighbors.begin(), seq.neighbors.end(), NeighborOrder);
  }
  return index;
}

RelativeEntropyIndex RelativeEntropyIndex::Restrict(
    const graph::Subgraph& block) const {
  RelativeEntropyIndex out;
  out.lambda_ = lambda_;
  out.sequences_.resize(block.nodes.size());
  for (size_t l = 0; l < block.nodes.size(); ++l) {
    const int64_t global = block.nodes[l];
    GR_CHECK(global >= 0 && global < num_nodes())
        << "Restrict: block node outside the indexed graph";
    const NodeSequences& src = sequences_[static_cast<size_t>(global)];
    NodeSequences& dst = out.sequences_[l];
    dst.remote.reserve(src.remote.size());
    for (const ScoredNode& s : src.remote) {
      const int64_t local = block.GlobalToLocal(s.node);
      if (local >= 0) dst.remote.push_back({local, s.entropy});
    }
    dst.neighbors.reserve(src.neighbors.size());
    for (const ScoredNode& s : src.neighbors) {
      const int64_t local = block.GlobalToLocal(s.node);
      if (local >= 0) dst.neighbors.push_back({local, s.entropy});
    }
  }
  return out;
}

void RelativeEntropyIndex::ApplyEdits(const std::vector<graph::Edge>& added,
                                      const std::vector<graph::Edge>& removed) {
  const auto move_pair = [this](int64_t a, int64_t b, bool to_neighbors) {
    if (a < 0 || a >= num_nodes() || b < 0 || b >= num_nodes()) return;
    NodeSequences& seq = sequences_[static_cast<size_t>(a)];
    std::vector<ScoredNode>& from = to_neighbors ? seq.remote : seq.neighbors;
    std::vector<ScoredNode>& to = to_neighbors ? seq.neighbors : seq.remote;
    double score = 0.0;
    if (!ExtractNode(&from, b, &score)) return;  // pair never scored: no-op
    InsertSorted(&to, {b, score}, to_neighbors ? NeighborOrder : RemoteOrder);
  };
  for (const graph::Edge& e : added) {
    move_pair(e.first, e.second, /*to_neighbors=*/true);
    move_pair(e.second, e.first, /*to_neighbors=*/true);
  }
  for (const graph::Edge& e : removed) {
    move_pair(e.first, e.second, /*to_neighbors=*/false);
    move_pair(e.second, e.first, /*to_neighbors=*/false);
  }
}

void RelativeEntropyIndex::ShuffleSequences(Rng* rng) {
  GR_CHECK(rng != nullptr);
  for (auto& s : sequences_) {
    rng->Shuffle(&s.remote);
    rng->Shuffle(&s.neighbors);
  }
}

tensor::Tensor DenseRelativeEntropyMatrix(const graph::Graph& g,
                                          const tensor::Tensor& features,
                                          const EntropyOptions& options) {
  GR_CHECK_OK(options.Validate());
  const int64_t n = g.num_nodes();
  GR_CHECK_LE(n, 4096) << "dense entropy matrix limited to small graphs";
  GR_CHECK_EQ(features.rows(), n);

  const tensor::Tensor z = EmbedFeatures(features, options.embedding);
  StructuralEntropyCalculator structural(g);

  std::vector<NodePair> pairs;
  pairs.reserve(static_cast<size_t>(n * (n - 1) / 2));
  for (int64_t v = 0; v < n; ++v) {
    for (int64_t u = v + 1; u < n; ++u) pairs.emplace_back(v, u);
  }
  std::vector<double> hf = FeatureEntropyForPairs(z, pairs);
  if (!hf.empty()) {
    const auto [mn_it, mx_it] = std::minmax_element(hf.begin(), hf.end());
    const double mn = *mn_it, range = *mx_it - mn;
    for (double& h : hf) h = range > 0.0 ? (h - mn) / range : 0.5;
  }

  tensor::Tensor m(n, n);
  size_t k = 0;
  for (int64_t v = 0; v < n; ++v) {
    for (int64_t u = v + 1; u < n; ++u, ++k) {
      const float h = static_cast<float>(
          hf[k] + options.lambda * structural.Between(v, u));
      m.at(v, u) = h;
      m.at(u, v) = h;
    }
  }
  return m;
}

}  // namespace entropy
}  // namespace graphrare
