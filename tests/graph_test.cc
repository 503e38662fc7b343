// Graph topology tests: canonicalisation, derived operators, homophily,
// k-hop, edge editing (ApplyEdgeEdits against the reference editor in
// tests/graph_editor_reference.h).

#include "graph/graph.h"

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/reorder.h"
#include "graph_editor_reference.h"
#include "test_support.h"

namespace graphrare {
namespace graph {
namespace {

using testing_ref::At;
using testing_ref::KHopNeighbors;

// 0-1, 1-2, 2-3, 3-0 square plus 0-2 diagonal.
Graph Square() {
  return Graph::FromEdgeListOrDie(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
}

TEST(GraphTest, BasicCounts) {
  Graph g = Square();
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_EQ(g.Degree(0), 3);
  EXPECT_EQ(g.Degree(1), 2);
  EXPECT_EQ(g.MaxDegree(), 3);
}

TEST(GraphTest, CanonicalisesDuplicatesAndDirections) {
  Graph g = Graph::FromEdgeListOrDie(3, {{0, 1}, {1, 0}, {0, 1}, {2, 1}});
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(GraphTest, DropsSelfLoops) {
  Graph g = Graph::FromEdgeListOrDie(3, {{0, 0}, {0, 1}, {1, 1}});
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(GraphTest, RejectsOutOfRange) {
  auto r = Graph::FromEdgeList(2, {{0, 5}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(GraphTest, EmptyGraph) {
  Graph g = Graph::FromEdgeListOrDie(3, {});
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.Degree(1), 0);
  EXPECT_EQ(g.CountConnectedComponents(), 3);
}

TEST(GraphTest, HasEdgeSymmetric) {
  Graph g = Square();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(1, 3));
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(GraphTest, NeighborsSorted) {
  Graph g = Square();
  const std::vector<int64_t> n0(g.NeighborsBegin(0), g.NeighborsEnd(0));
  EXPECT_EQ(n0, (std::vector<int64_t>{1, 2, 3}));
}

TEST(GraphTest, AdjacencyMatchesEdges) {
  Graph g = Square();
  auto a = g.Adjacency();
  EXPECT_EQ(a->nnz(), 10);  // 2 * 5 edges
  EXPECT_FLOAT_EQ(At(*a, 0, 1), 1.0f);
  EXPECT_FLOAT_EQ(At(*a, 1, 0), 1.0f);
  EXPECT_FLOAT_EQ(At(*a, 0, 0), 0.0f);
}

TEST(GraphTest, NormalizedAdjacencyRowsSumCorrectly) {
  // For D^{-1/2}(A+I)D^{-1/2}, the row sum of row i equals
  // sum_j (a_ij+I_ij) / sqrt(d_i d_j); verify diag and one entry by hand.
  Graph g = Graph::FromEdgeListOrDie(2, {{0, 1}});
  auto norm = g.NormalizedAdjacency();
  // Both nodes have degree 1 -> (A+I) degrees are 2.
  EXPECT_NEAR(At(*norm, 0, 0), 0.5f, 1e-6);
  EXPECT_NEAR(At(*norm, 0, 1), 0.5f, 1e-6);
}

TEST(GraphTest, RowNormalizedAdjacencySums) {
  Graph g = Square();
  auto rn = g.RowNormalizedAdjacency();
  tensor::Tensor ones = tensor::Tensor::Full(4, 1, 1.0f);
  tensor::Tensor sums = rn->SpMM(ones);
  for (int64_t v = 0; v < 4; ++v) {
    EXPECT_NEAR(sums.at(v, 0), 1.0f, 1e-6);
  }
}

TEST(GraphTest, IsolatedNodeRowNormalizedIsZero) {
  Graph g = Graph::FromEdgeListOrDie(3, {{0, 1}});
  auto rn = g.RowNormalizedAdjacency();
  tensor::Tensor ones = tensor::Tensor::Full(3, 1, 1.0f);
  tensor::Tensor sums = rn->SpMM(ones);
  EXPECT_NEAR(sums.at(2, 0), 0.0f, 1e-6);
}

TEST(GraphTest, TwoHopExcludesSelfAndOneHop) {
  // Path 0-1-2-3.
  Graph g = Graph::FromEdgeListOrDie(4, {{0, 1}, {1, 2}, {2, 3}});
  auto two = g.TwoHopAdjacency();
  EXPECT_FLOAT_EQ(At(*two, 0, 2), 1.0f);
  EXPECT_FLOAT_EQ(At(*two, 1, 3), 1.0f);
  EXPECT_FLOAT_EQ(At(*two, 0, 1), 0.0f);  // 1-hop excluded
  EXPECT_FLOAT_EQ(At(*two, 0, 0), 0.0f);  // self excluded
  EXPECT_FLOAT_EQ(At(*two, 0, 3), 0.0f);  // 3 hops away
}

TEST(GraphTest, TriangleHasNoStrictTwoHop) {
  Graph g = Graph::FromEdgeListOrDie(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.TwoHopAdjacency()->nnz(), 0);
}

TEST(GraphTest, KHopNeighbors) {
  // Path 0-1-2-3-4.
  Graph g = Graph::FromEdgeListOrDie(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_EQ(KHopNeighbors(g, 0, 1), (std::vector<int64_t>{1}));
  EXPECT_EQ(KHopNeighbors(g, 0, 2), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(KHopNeighbors(g, 0, 4), (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_TRUE(KHopNeighbors(g, 0, 0).empty());
}

TEST(GraphTest, DirectedEdgesWithSelfLoops) {
  Graph g = Graph::FromEdgeListOrDie(3, {{0, 1}});
  std::vector<int64_t> src, dst;
  g.DirectedEdgesWithSelfLoops(&src, &dst);
  // 2 directions + 3 self loops.
  EXPECT_EQ(src.size(), 5u);
  EXPECT_EQ(dst.size(), 5u);
}

TEST(GraphTest, EdgeHomophily) {
  // labels: 0,0,1,1. Edges: (0,1) same, (2,3) same, (1,2) cross.
  Graph g = Graph::FromEdgeListOrDie(4, {{0, 1}, {2, 3}, {1, 2}});
  EXPECT_NEAR(g.EdgeHomophily({0, 0, 1, 1}), 2.0 / 3.0, 1e-9);
}

TEST(GraphTest, EdgeHomophilyEdgeless) {
  Graph g = Graph::FromEdgeListOrDie(2, {});
  EXPECT_EQ(g.EdgeHomophily({0, 1}), 0.0);
}

TEST(GraphTest, ConnectedComponents) {
  Graph g = Graph::FromEdgeListOrDie(6, {{0, 1}, {1, 2}, {3, 4}});
  EXPECT_EQ(g.CountConnectedComponents(), 3);  // {0,1,2}, {3,4}, {5}
}

// ---- ApplyEdgeEdits -------------------------------------------------------

TEST(ApplyEdgeEditsTest, AddEdge) {
  Graph g = Square();
  Graph g2 = ApplyEdgeEdits(g, {{1, 3, true}});
  EXPECT_TRUE(g2.HasEdge(1, 3));
  EXPECT_EQ(g2.num_edges(), 6);
  // Original untouched.
  EXPECT_FALSE(g.HasEdge(1, 3));
}

TEST(ApplyEdgeEditsTest, AddExistingEdgeIsNoop) {
  Graph g = Square();
  EXPECT_EQ(ApplyEdgeEdits(g, {{0, 1, true}}).edges(), g.edges());
}

TEST(ApplyEdgeEditsTest, RemoveEdge) {
  Graph g = Square();
  Graph g2 = ApplyEdgeEdits(g, {{0, 2, false}});
  EXPECT_FALSE(g2.HasEdge(0, 2));
  EXPECT_EQ(g2.num_edges(), 4);
}

TEST(ApplyEdgeEditsTest, RemoveMissingEdgeIsNoop) {
  Graph g = Square();
  EXPECT_EQ(ApplyEdgeEdits(g, {{1, 3, false}}).edges(), g.edges());
}

TEST(ApplyEdgeEditsTest, RemoveAfterAddLeavesNewEdgeAbsent) {
  Graph g = Square();
  EXPECT_FALSE(ApplyEdgeEdits(g, {{1, 3, true}, {1, 3, false}}).HasEdge(1, 3));
}

TEST(ApplyEdgeEditsTest, ReAddAfterRemoveLeavesBaseEdgePresent) {
  // The last edit wins for base edges too: a removed base edge that is
  // added again (here from the other endpoint) stays.
  Graph g = Square();
  Graph g2 = ApplyEdgeEdits(g, {{0, 2, false}, {2, 0, true}});
  EXPECT_EQ(g2.edges(), g.edges());
  EXPECT_FALSE(ApplyEdgeEdits(g, {{0, 2, false}, {2, 0, true}, {0, 2, false}})
                   .HasEdge(0, 2));
}

TEST(ApplyEdgeEditsTest, SelfLoopIgnored) {
  Graph g = Square();
  EXPECT_EQ(ApplyEdgeEdits(g, {{2, 2, true}, {1, 1, false}}).edges(),
            g.edges());
}

TEST(ApplyEdgeEditsTest, DirectionAgnostic) {
  Graph g = Square();
  Graph g2 = ApplyEdgeEdits(g, {{3, 1, true}, {1, 3, true}});
  EXPECT_EQ(g2.num_edges(), 6);  // one undirected edge added
  EXPECT_TRUE(g2.HasEdge(1, 3));
  EXPECT_TRUE(g2.HasEdge(3, 1));
  EXPECT_EQ(g2.Degree(1), 3);
  EXPECT_EQ(g2.Degree(3), 3);
}

TEST(ApplyEdgeEditsDeathTest, EndpointOutOfRangeAborts) {
  Graph g = Square();
  EXPECT_DEATH(ApplyEdgeEdits(g, {{0, 4, true}}), "outside");
  EXPECT_DEATH(ApplyEdgeEdits(g, {{-1, 2, false}}), "outside");
}

TEST(ApplyEdgeEditsTest, RandomEditListsMatchReferenceEditor) {
  // Random graphs and random edit lists, dense enough that many edges are
  // edited several times from both endpoints, with self loops mixed in.
  Rng rng(97);
  auto pick = [&rng](int64_t k) {  // uniform in [0, k)
    return static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(k)));
  };
  for (int trial = 0; trial < 40; ++trial) {
    const int64_t n = 1 + pick(40);
    std::vector<Edge> base_edges;
    const int64_t m = pick(2 * n + 1);
    for (int64_t i = 0; i < m; ++i) base_edges.emplace_back(pick(n), pick(n));
    const Graph base = Graph::FromEdgeListOrDie(n, base_edges);
    std::vector<EdgeEdit> edits;
    const int64_t num_edits = pick(4 * n);
    for (int64_t i = 0; i < num_edits; ++i) {
      edits.push_back({pick(n), pick(n), rng.Bernoulli(0.5)});
    }
    EXPECT_TRUE(testing_ref::SameGraph(
        ApplyEdgeEdits(base, edits),
        testing_ref::ReferenceApplyEdgeEdits(base, edits)))
        << "trial " << trial;
  }
}

TEST(ApplyEdgeEditsTest, EmptyGraphAndEmptyEdits) {
  const Graph empty = Graph::FromEdgeListOrDie(0, {});
  EXPECT_EQ(ApplyEdgeEdits(empty, {}).num_nodes(), 0);
  const Graph g = Square();
  EXPECT_TRUE(testing_ref::SameGraph(ApplyEdgeEdits(g, {}), g));
}

// ----------------------------------------------------------------- reorder

TEST(ReorderTest, DegreeSortPutsHubsFirst) {
  // Star around node 3 plus a pendant chain: degrees 3:4, 0:2, others 1.
  Graph g = Graph::FromEdgeListOrDie(
      6, {{3, 0}, {3, 1}, {3, 2}, {3, 4}, {0, 5}});
  const auto perm = DegreeSortPermutation(g);
  const auto inv = InversePermutation(perm);
  for (size_t i = 1; i < inv.size(); ++i) {
    EXPECT_GE(g.Degree(inv[i - 1]), g.Degree(inv[i]))
        << "degrees must be non-increasing in the new order";
  }
  EXPECT_EQ(perm[3], 0) << "the hub takes id 0";
}

TEST(ReorderTest, RcmRelabelsShuffledPathToBandwidthOne) {
  // A 30-node path under scrambled labels: node i connects to i+1 through
  // the scramble. RCM must recover consecutive labels along the path.
  const int64_t n = 30;
  Rng rng(201);
  std::vector<int64_t> scramble(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) scramble[static_cast<size_t>(i)] = i;
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(scramble[static_cast<size_t>(i)],
              scramble[rng.UniformInt(static_cast<uint64_t>(i) + 1)]);
  }
  std::vector<Edge> edges;
  for (int64_t i = 0; i + 1 < n; ++i) {
    edges.emplace_back(scramble[static_cast<size_t>(i)],
                       scramble[static_cast<size_t>(i) + 1]);
  }
  Graph g = Graph::FromEdgeListOrDie(n, edges);
  const auto perm = RcmPermutation(g);
  Graph r = PermuteGraph(g, perm);
  int64_t bandwidth = 0;
  for (const auto& [u, v] : r.edges()) {
    bandwidth = std::max(bandwidth, std::abs(u - v));
  }
  EXPECT_EQ(bandwidth, 1);
}

TEST(ReorderTest, RcmCoversDisconnectedComponentsAndIsolatedNodes) {
  // Two components plus isolated node 6: the permutation must still be a
  // bijection over all seven ids.
  Graph g = Graph::FromEdgeListOrDie(
      7, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const auto perm = RcmPermutation(g);
  EXPECT_EQ(perm.size(), 7u);
  const auto inv = InversePermutation(perm);  // aborts if not a bijection
  EXPECT_EQ(inv.size(), 7u);
}

TEST(ReorderTest, PermuteGraphPreservesTopology) {
  Graph g = Graph::FromEdgeListOrDie(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}});
  const std::vector<int64_t> perm = {4, 2, 0, 3, 1};
  Graph p = PermuteGraph(g, perm);
  EXPECT_EQ(p.num_nodes(), g.num_nodes());
  EXPECT_EQ(p.num_edges(), g.num_edges());
  for (int64_t u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(p.Degree(perm[static_cast<size_t>(u)]), g.Degree(u));
  }
  EXPECT_TRUE(p.HasEdge(perm[1], perm[3]));
  EXPECT_FALSE(p.HasEdge(perm[0], perm[2]));
}

TEST(ReorderTest, ReorderCsrRoundTripsBitwise) {
  // Permuting a CSR matrix and permuting back with the inverse must
  // reproduce the original arrays bit for bit — the machinery moves
  // values, it never recomputes them.
  Rng rng(203);
  std::vector<Edge> edges;
  for (int64_t i = 0; i < 200; ++i) {
    const int64_t u = static_cast<int64_t>(rng.UniformInt(40));
    const int64_t v = static_cast<int64_t>(rng.UniformInt(40));
    if (u != v) edges.emplace_back(u, v);
  }
  Graph g = Graph::FromEdgeListOrDie(40, edges);
  const tensor::CsrMatrix m = *g.NormalizedAdjacency();
  for (const ReorderKind kind :
       {ReorderKind::kDegreeSort, ReorderKind::kRcm}) {
    const auto perm = ReorderPermutation(g, kind);
    const tensor::CsrMatrix fwd = ReorderCsr(m, perm);
    // Entries land where the permutation says.
    for (int64_t r = 0; r < m.rows(); ++r) {
      for (int64_t p = m.row_ptr()[static_cast<size_t>(r)];
           p < m.row_ptr()[static_cast<size_t>(r) + 1]; ++p) {
        const int64_t c = m.col_idx()[static_cast<size_t>(p)];
        EXPECT_EQ(At(fwd, perm[static_cast<size_t>(r)],
                         perm[static_cast<size_t>(c)]),
                  m.values()[static_cast<size_t>(p)]);
      }
    }
    const tensor::CsrMatrix back = ReorderCsr(fwd, InversePermutation(perm));
    EXPECT_EQ(back.row_ptr(), m.row_ptr());
    EXPECT_EQ(back.col_idx(), m.col_idx());
    EXPECT_EQ(back.values(), m.values());
  }
}

TEST(ReorderDeathTest, InversePermutationRejectsNonBijections) {
  EXPECT_DEATH(InversePermutation({0, 0, 1}), "GR_CHECK");
  EXPECT_DEATH(InversePermutation({0, 1, 5}), "GR_CHECK");
}

}  // namespace
}  // namespace graph
}  // namespace graphrare
