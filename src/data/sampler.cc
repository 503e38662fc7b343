#include "data/sampler.h"

#include <algorithm>
#include <unordered_set>

#include "common/parallel.h"
#include "common/string_util.h"

namespace graphrare {
namespace data {

namespace {

/// SplitMix64-style finalizer used to derive independent per-node streams.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t block, uint64_t layer,
                    uint64_t node) {
  return Mix(Mix(Mix(seed ^ 0x5EEDB10CULL) ^ block) ^
             (layer * 0x9E3779B97F4A7C15ULL + node));
}

}  // namespace

Status SamplerOptions::Validate() const {
  if (fanouts.empty()) {
    return Status::InvalidArgument("fanouts must have at least one layer");
  }
  for (const int64_t f : fanouts) {
    if (f < 1 && f != -1) {
      return Status::InvalidArgument(
          "every fanout must be >= 1 (or -1 for unlimited)");
    }
  }
  return Status::OK();
}

NeighborSampler::NeighborSampler(const graph::Graph* graph,
                                 SamplerOptions options)
    : graph_(graph), options_(std::move(options)) {
  GR_CHECK(graph != nullptr);
  GR_CHECK_OK(options_.Validate());
}

std::vector<int64_t> NeighborSampler::SampleNeighbors(const graph::Graph& g,
                                                      int64_t v,
                                                      int64_t fanout,
                                                      bool replace,
                                                      Rng* rng) {
  GR_CHECK(rng != nullptr);
  GR_CHECK(fanout >= 1 || fanout == -1);
  const int64_t deg = g.Degree(v);
  if (deg == 0) return {};
  const int64_t* begin = g.NeighborsBegin(v);
  if (fanout == -1) return std::vector<int64_t>(begin, begin + deg);
  if (replace) {
    std::vector<int64_t> out;
    out.reserve(static_cast<size_t>(fanout));
    for (int64_t i = 0; i < fanout; ++i) {
      out.push_back(begin[rng->UniformInt(static_cast<uint64_t>(deg))]);
    }
    return out;
  }
  if (fanout >= deg) return std::vector<int64_t>(begin, begin + deg);
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(fanout));
  if (fanout * 4 <= deg) {
    // Sparse draw: rejection-sample distinct positions in O(fanout)
    // expected time instead of copying the whole neighbor list — hubs
    // with huge degrees must not re-couple per-step cost to the
    // adjacency.
    std::unordered_set<int64_t> picked;
    picked.reserve(static_cast<size_t>(fanout) * 2);
    while (static_cast<int64_t>(out.size()) < fanout) {
      const int64_t j =
          static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(deg)));
      if (picked.insert(j).second) out.push_back(begin[j]);
    }
    return out;
  }
  std::vector<int64_t> pool(begin, begin + deg);
  for (int64_t i = 0; i < fanout; ++i) {
    const int64_t j = rng->UniformInt(i, deg - 1);
    std::swap(pool[static_cast<size_t>(i)], pool[static_cast<size_t>(j)]);
    out.push_back(pool[static_cast<size_t>(i)]);
  }
  return out;
}

graph::Subgraph NeighborSampler::SampleBlock(
    const std::vector<int64_t>& seeds) {
  return SampleBlockAt(seeds, block_counter_++);
}

graph::Subgraph NeighborSampler::SampleBlockAt(
    const std::vector<int64_t>& seeds, uint64_t block_index) {
  GR_CHECK(!seeds.empty()) << "SampleBlock: empty seed set";
  const int64_t n = graph_->num_nodes();
  const uint64_t block = block_index;

  // Versioned membership marks double as the node-set accumulator (the
  // array is allocated once and bumping the version clears it in O(1));
  // the frontier ordering is deterministic because marks are only set in
  // the serial merge phase below.
  if (static_cast<int64_t>(mark_.size()) != n) {
    mark_.assign(static_cast<size_t>(n), 0);
    mark_version_ = 0;
  }
  const uint64_t version = ++mark_version_;
  const auto in_set = [&](int64_t v) {
    return mark_[static_cast<size_t>(v)] == version;
  };
  std::vector<int64_t> node_set;
  node_set.reserve(seeds.size() * 4);
  // Each layer is built in place in layers_ and expanded from there; the
  // reserve keeps the frontier reference valid while the next layer is
  // appended.
  layers_.clear();
  layers_.reserve(options_.fanouts.size() + 1);
  layers_.emplace_back();
  layers_.back().reserve(seeds.size());
  for (const int64_t s : seeds) {
    GR_CHECK(s >= 0 && s < n) << "SampleBlock: seed " << s << " out of range";
    GR_CHECK(!in_set(s)) << "SampleBlock: duplicate seed " << s;
    mark_[static_cast<size_t>(s)] = version;
    node_set.push_back(s);
    layers_.back().push_back(s);
  }

  for (size_t layer = 0; layer < options_.fanouts.size(); ++layer) {
    const std::vector<int64_t>& frontier = layers_.back();
    if (frontier.empty()) {
      layers_.emplace_back();  // record the empty expansion and keep going
      continue;
    }
    const int64_t fanout = options_.fanouts[layer];
    // Per-frontier-node draws are independent streams, so the expansion
    // parallelises without any cross-thread RNG state; dynamic chunking
    // balances hub nodes. Small frontiers stay serial (grain == n).
    const int64_t fsize = static_cast<int64_t>(frontier.size());
    std::vector<std::vector<int64_t>> sampled(frontier.size());
    ParallelForDynamic(fsize, fsize > 256 ? 64 : fsize,
                       [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        const int64_t u = frontier[static_cast<size_t>(i)];
        Rng rng(StreamSeed(options_.seed, block, layer,
                           static_cast<uint64_t>(u)));
        sampled[static_cast<size_t>(i)] =
            SampleNeighbors(*graph_, u, fanout, options_.replace, &rng);
      }
    });
    // Serial merge in frontier order keeps the result independent of the
    // thread schedule.
    std::vector<int64_t> next;
    for (const auto& neighbors : sampled) {
      for (const int64_t v : neighbors) {
        if (in_set(v)) continue;
        mark_[static_cast<size_t>(v)] = version;
        node_set.push_back(v);
        next.push_back(v);
      }
    }
    std::sort(next.begin(), next.end());
    layers_.push_back(std::move(next));
  }

  auto block_result = graph::InducedSubgraph(*graph_, std::move(node_set),
                                             seeds);
  GR_CHECK(block_result.ok()) << block_result.status().ToString();
  return std::move(block_result).value();
}

std::vector<std::vector<int64_t>> NeighborSampler::MakeBatches(
    std::vector<int64_t> indices, int64_t batch_size, bool shuffle,
    Rng* rng) {
  GR_CHECK_GE(batch_size, 1);
  if (shuffle) {
    GR_CHECK(rng != nullptr);
    rng->Shuffle(&indices);
  }
  std::vector<std::vector<int64_t>> batches;
  for (size_t begin = 0; begin < indices.size();
       begin += static_cast<size_t>(batch_size)) {
    const size_t end =
        std::min(indices.size(), begin + static_cast<size_t>(batch_size));
    batches.emplace_back(indices.begin() + static_cast<int64_t>(begin),
                         indices.begin() + static_cast<int64_t>(end));
  }
  return batches;
}

}  // namespace data
}  // namespace graphrare
