#include "graph/graph.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/string_util.h"

namespace graphrare {
namespace graph {

using tensor::CooEntry;
using tensor::CsrMatrix;

Result<Graph> Graph::FromEdgeList(int64_t num_nodes,
                                  const std::vector<Edge>& edges) {
  if (num_nodes < 0) {
    return Status::InvalidArgument("num_nodes must be non-negative");
  }
  std::vector<Edge> canon;
  canon.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    if (u < 0 || u >= num_nodes || v < 0 || v >= num_nodes) {
      return Status::OutOfRange(
          StrFormat("edge (%lld,%lld) outside [0,%lld)",
                    static_cast<long long>(u), static_cast<long long>(v),
                    static_cast<long long>(num_nodes)));
    }
    if (u == v) continue;  // self loops are dropped, not an error
    canon.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(canon.begin(), canon.end());
  canon.erase(std::unique(canon.begin(), canon.end()), canon.end());

  Graph g;
  g.num_nodes_ = num_nodes;
  g.edges_ = std::move(canon);
  g.BuildCsr();
  return g;
}

Graph Graph::FromEdgeListOrDie(int64_t num_nodes,
                               const std::vector<Edge>& edges) {
  auto result = FromEdgeList(num_nodes, edges);
  GR_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

void Graph::BuildCsr() {
  adj_row_ptr_.assign(static_cast<size_t>(num_nodes_) + 1, 0);
  adj_col_.clear();
  adj_col_.resize(edges_.size() * 2);
  for (const auto& [u, v] : edges_) {
    adj_row_ptr_[static_cast<size_t>(u) + 1]++;
    adj_row_ptr_[static_cast<size_t>(v) + 1]++;
  }
  for (size_t i = 0; i < static_cast<size_t>(num_nodes_); ++i) {
    adj_row_ptr_[i + 1] += adj_row_ptr_[i];
  }
  std::vector<int64_t> cursor(adj_row_ptr_.begin(), adj_row_ptr_.end() - 1);
  for (const auto& [u, v] : edges_) {
    adj_col_[static_cast<size_t>(cursor[static_cast<size_t>(u)]++)] = v;
    adj_col_[static_cast<size_t>(cursor[static_cast<size_t>(v)]++)] = u;
  }
  for (int64_t r = 0; r < num_nodes_; ++r) {
    std::sort(adj_col_.begin() + adj_row_ptr_[static_cast<size_t>(r)],
              adj_col_.begin() + adj_row_ptr_[static_cast<size_t>(r) + 1]);
  }
}

const int64_t* Graph::NeighborsBegin(int64_t v) const {
  GR_DCHECK(v >= 0 && v < num_nodes_);
  return adj_col_.data() + adj_row_ptr_[static_cast<size_t>(v)];
}

const int64_t* Graph::NeighborsEnd(int64_t v) const {
  GR_DCHECK(v >= 0 && v < num_nodes_);
  return adj_col_.data() + adj_row_ptr_[static_cast<size_t>(v) + 1];
}

int64_t Graph::Degree(int64_t v) const {
  GR_CHECK(v >= 0 && v < num_nodes_) << "Degree: node " << v << " out of range";
  return adj_row_ptr_[static_cast<size_t>(v) + 1] -
         adj_row_ptr_[static_cast<size_t>(v)];
}

int64_t Graph::MaxDegree() const {
  int64_t m = 0;
  for (int64_t v = 0; v < num_nodes_; ++v) m = std::max(m, Degree(v));
  return m;
}

bool Graph::HasEdge(int64_t u, int64_t v) const {
  if (u < 0 || v < 0 || u >= num_nodes_ || v >= num_nodes_ || u == v) {
    return false;
  }
  return std::binary_search(NeighborsBegin(u), NeighborsEnd(u), v);
}

std::shared_ptr<const CsrMatrix> Graph::Adjacency() const {
  if (adjacency_) return adjacency_;
  std::vector<CooEntry> entries;
  entries.reserve(edges_.size() * 2);
  for (const auto& [u, v] : edges_) {
    entries.push_back({u, v, 1.0f});
    entries.push_back({v, u, 1.0f});
  }
  adjacency_ = std::make_shared<CsrMatrix>(
      CsrMatrix::FromCoo(num_nodes_, num_nodes_, std::move(entries)));
  return adjacency_;
}

std::shared_ptr<const CsrMatrix> Graph::NormalizedAdjacency() const {
  if (normalized_) return normalized_;
  // Degrees of A + I.
  std::vector<float> inv_sqrt(static_cast<size_t>(num_nodes_));
  for (int64_t v = 0; v < num_nodes_; ++v) {
    inv_sqrt[static_cast<size_t>(v)] =
        1.0f / std::sqrt(static_cast<float>(Degree(v) + 1));
  }
  std::vector<CooEntry> entries;
  entries.reserve(edges_.size() * 2 + static_cast<size_t>(num_nodes_));
  for (const auto& [u, v] : edges_) {
    const float w = inv_sqrt[static_cast<size_t>(u)] *
                    inv_sqrt[static_cast<size_t>(v)];
    entries.push_back({u, v, w});
    entries.push_back({v, u, w});
  }
  for (int64_t v = 0; v < num_nodes_; ++v) {
    entries.push_back(
        {v, v, inv_sqrt[static_cast<size_t>(v)] * inv_sqrt[static_cast<size_t>(v)]});
  }
  normalized_ = std::make_shared<CsrMatrix>(
      CsrMatrix::FromCoo(num_nodes_, num_nodes_, std::move(entries)));
  return normalized_;
}

std::shared_ptr<const CsrMatrix> Graph::RowNormalizedAdjacency() const {
  if (row_normalized_) return row_normalized_;
  std::vector<CooEntry> entries;
  entries.reserve(edges_.size() * 2);
  for (const auto& [u, v] : edges_) {
    entries.push_back({u, v, 1.0f / static_cast<float>(Degree(u))});
    entries.push_back({v, u, 1.0f / static_cast<float>(Degree(v))});
  }
  row_normalized_ = std::make_shared<CsrMatrix>(
      CsrMatrix::FromCoo(num_nodes_, num_nodes_, std::move(entries)));
  return row_normalized_;
}

std::shared_ptr<const CsrMatrix> Graph::TwoHopAdjacency() const {
  if (two_hop_) return two_hop_;
  // A^2 gives path counts; strict 2-hop removes the diagonal and 1-hop edges.
  auto a = Adjacency();
  CsrMatrix a2 = a->Multiply(*a);
  std::vector<CooEntry> entries;
  for (int64_t r = 0; r < a2.rows(); ++r) {
    for (int64_t p = a2.row_ptr()[static_cast<size_t>(r)];
         p < a2.row_ptr()[static_cast<size_t>(r) + 1]; ++p) {
      const int64_t c = a2.col_idx()[static_cast<size_t>(p)];
      if (c == r || HasEdge(r, c)) continue;
      entries.push_back({r, c, 1.0f});
    }
  }
  two_hop_ = std::make_shared<CsrMatrix>(
      CsrMatrix::FromCoo(num_nodes_, num_nodes_, std::move(entries)));
  return two_hop_;
}

std::shared_ptr<const CsrMatrix> Graph::RowNormalizedTwoHop() const {
  if (row_normalized_two_hop_) return row_normalized_two_hop_;
  auto t = TwoHopAdjacency();
  std::vector<CooEntry> entries;
  entries.reserve(static_cast<size_t>(t->nnz()));
  for (int64_t r = 0; r < t->rows(); ++r) {
    const int64_t begin = t->row_ptr()[static_cast<size_t>(r)];
    const int64_t end = t->row_ptr()[static_cast<size_t>(r) + 1];
    const float inv = end > begin ? 1.0f / static_cast<float>(end - begin) : 0.0f;
    for (int64_t p = begin; p < end; ++p) {
      entries.push_back({r, t->col_idx()[static_cast<size_t>(p)], inv});
    }
  }
  row_normalized_two_hop_ = std::make_shared<CsrMatrix>(
      CsrMatrix::FromCoo(num_nodes_, num_nodes_, std::move(entries)));
  return row_normalized_two_hop_;
}

void Graph::DirectedEdgesWithSelfLoops(std::vector<int64_t>* src,
                                       std::vector<int64_t>* dst) const {
  GR_CHECK(src != nullptr && dst != nullptr);
  src->clear();
  dst->clear();
  src->reserve(edges_.size() * 2 + static_cast<size_t>(num_nodes_));
  dst->reserve(edges_.size() * 2 + static_cast<size_t>(num_nodes_));
  for (const auto& [u, v] : edges_) {
    src->push_back(u);
    dst->push_back(v);
    src->push_back(v);
    dst->push_back(u);
  }
  for (int64_t v = 0; v < num_nodes_; ++v) {
    src->push_back(v);
    dst->push_back(v);
  }
}

double Graph::EdgeHomophily(const std::vector<int64_t>& labels) const {
  GR_CHECK_EQ(static_cast<int64_t>(labels.size()), num_nodes_);
  if (edges_.empty()) return 0.0;
  int64_t same = 0;
  for (const auto& [u, v] : edges_) {
    if (labels[static_cast<size_t>(u)] == labels[static_cast<size_t>(v)]) {
      ++same;
    }
  }
  return static_cast<double>(same) / static_cast<double>(edges_.size());
}

int64_t Graph::CountConnectedComponents() const {
  std::vector<bool> seen(static_cast<size_t>(num_nodes_), false);
  int64_t components = 0;
  std::vector<int64_t> stack;
  for (int64_t s = 0; s < num_nodes_; ++s) {
    if (seen[static_cast<size_t>(s)]) continue;
    ++components;
    stack.push_back(s);
    seen[static_cast<size_t>(s)] = true;
    while (!stack.empty()) {
      const int64_t u = stack.back();
      stack.pop_back();
      for (const int64_t* p = NeighborsBegin(u); p != NeighborsEnd(u); ++p) {
        if (!seen[static_cast<size_t>(*p)]) {
          seen[static_cast<size_t>(*p)] = true;
          stack.push_back(*p);
        }
      }
    }
  }
  return components;
}

namespace {

/// One direction of an edit: entry `col` of adjacency row `row`.
struct HalfEdit {
  int64_t row;
  int64_t col;
  bool add;
};

/// Stable counting sort of `in` by key(h) in [0, n). `ptr` receives the
/// bucket offsets (size n + 1).
template <typename Key>
std::vector<HalfEdit> BucketBy(const std::vector<HalfEdit>& in, int64_t n,
                               Key key, std::vector<int64_t>* ptr) {
  ptr->assign(static_cast<size_t>(n) + 1, 0);
  for (const HalfEdit& h : in) ++(*ptr)[static_cast<size_t>(key(h)) + 1];
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    (*ptr)[i + 1] += (*ptr)[i];
  }
  std::vector<int64_t> cursor(ptr->begin(), ptr->end() - 1);
  std::vector<HalfEdit> out(in.size());
  for (const HalfEdit& h : in) {
    out[static_cast<size_t>(cursor[static_cast<size_t>(key(h))]++)] = h;
  }
  return out;
}

}  // namespace

Graph ApplyEdgeEdits(const Graph& base, const std::vector<EdgeEdit>& edits) {
  const int64_t n = base.num_nodes();
  // Both directions of every edit, in list order.
  std::vector<HalfEdit> halves;
  halves.reserve(2 * edits.size());
  for (const EdgeEdit& e : edits) {
    if (e.u == e.v) continue;
    GR_CHECK(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n)
        << "ApplyEdgeEdits: edge (" << e.u << "," << e.v << ") outside [0,"
        << n << ")";
    halves.push_back({e.u, e.v, e.add});
    halves.push_back({e.v, e.u, e.add});
  }
  // Bucketing by column and then, stably, by row leaves each row's edits
  // ascending by column, with the edits of one edge still in list order.
  std::vector<int64_t> ptr;
  const std::vector<HalfEdit> by_col =
      BucketBy(halves, n, [](const HalfEdit& h) { return h.col; }, &ptr);
  const std::vector<HalfEdit> by_row =
      BucketBy(by_col, n, [](const HalfEdit& h) { return h.row; }, &ptr);

  Graph g;
  g.num_nodes_ = n;
  g.adj_row_ptr_.assign(static_cast<size_t>(n) + 1, 0);
  g.adj_col_.reserve(base.adj_col_.size() + halves.size());
  for (int64_t v = 0; v < n; ++v) {
    const int64_t* b = base.NeighborsBegin(v);
    const int64_t* b_end = base.NeighborsEnd(v);
    size_t j = static_cast<size_t>(ptr[static_cast<size_t>(v)]);
    const auto j_end = static_cast<size_t>(ptr[static_cast<size_t>(v) + 1]);
    while (b != b_end || j < j_end) {
      const int64_t c = j == j_end || (b != b_end && *b < by_row[j].col)
                            ? *b
                            : by_row[j].col;
      bool present = b != b_end && *b == c;
      if (present) ++b;
      for (; j < j_end && by_row[j].col == c; ++j) present = by_row[j].add;
      if (present) g.adj_col_.push_back(c);
    }
    g.adj_row_ptr_[static_cast<size_t>(v) + 1] =
        static_cast<int64_t>(g.adj_col_.size());
  }
  g.edges_.reserve(g.adj_col_.size() / 2);
  for (int64_t v = 0; v < n; ++v) {
    for (const int64_t* c = g.NeighborsBegin(v); c != g.NeighborsEnd(v);
         ++c) {
      if (*c > v) g.edges_.emplace_back(v, *c);
    }
  }
  return g;
}

void EdgeListDiff(const Graph& before, const Graph& after,
                  std::vector<Edge>* added, std::vector<Edge>* removed) {
  added->clear();
  removed->clear();
  const std::vector<Edge>& a = before.edges();
  const std::vector<Edge>& b = after.edges();
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      removed->push_back(a[i++]);
    } else {
      added->push_back(b[j++]);
    }
  }
  for (; i < a.size(); ++i) removed->push_back(a[i]);
  for (; j < b.size(); ++j) added->push_back(b[j]);
}

}  // namespace graph
}  // namespace graphrare
