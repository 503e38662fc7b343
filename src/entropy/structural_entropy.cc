#include "entropy/structural_entropy.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace graphrare {
namespace entropy {

namespace {

constexpr double kLog2 = 0.6931471805599453;  // ln 2

inline double XLogX(double x) { return x > 0.0 ? x * std::log(x) : 0.0; }

// JS divergence in bits from the three entropies in nats.
inline double JsBits(double h_m, double h_p, double h_q) {
  const double js_nats = h_m - 0.5 * (h_p + h_q);
  double js_bits = js_nats / kLog2;
  // Clamp tiny negative rounding noise.
  if (js_bits < 0.0) js_bits = 0.0;
  if (js_bits > 1.0) js_bits = 1.0;
  return js_bits;
}

}  // namespace

StructuralEntropyCalculator::StructuralEntropyCalculator(
    const graph::Graph& g) {
  const size_t n = static_cast<size_t>(g.num_nodes());
  sequences_.resize(n);
  self_entropy_.resize(n);
  // Sequence lengths are degree + 1, so all of them sum to 2E + N.
  half_log_.reserve(2 * static_cast<size_t>(g.num_edges()) + n);
  half_log_offset_.reserve(n + 1);
  half_log_offset_.push_back(0);
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    std::vector<float> seq;
    seq.reserve(static_cast<size_t>(g.Degree(v)) + 1);
    seq.push_back(static_cast<float>(g.Degree(v)));
    for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v); ++p) {
      seq.push_back(static_cast<float>(g.Degree(*p)));
    }
    std::sort(seq.begin(), seq.end(), std::greater<float>());
    double total = 0.0;
    for (float d : seq) total += d;
    if (total > 0.0) {
      for (float& d : seq) d = static_cast<float>(d / total);
    } else {
      // Isolated node: degenerate one-point distribution.
      seq.assign(1, 1.0f);
    }
    double h = 0.0;
    for (float x : seq) {
      const double pi = x;
      h -= XLogX(pi);
      const double mi = 0.5 * pi;
      half_log_.push_back(mi > 0.0 ? std::log(mi) : 0.0);
    }
    self_entropy_[static_cast<size_t>(v)] = h;
    half_log_offset_.push_back(half_log_.size());
    sequences_[static_cast<size_t>(v)] = std::move(seq);
  }
}

double StructuralEntropyCalculator::Between(int64_t v, int64_t u) const {
  GR_CHECK(v >= 0 && v < static_cast<int64_t>(sequences_.size()));
  GR_CHECK(u >= 0 && u < static_cast<int64_t>(sequences_.size()));
  const size_t sv = static_cast<size_t>(v), su = static_cast<size_t>(u);
  const std::vector<float>& p = sequences_[sv];
  const std::vector<float>& q = sequences_[su];
  const size_t common = std::min(p.size(), q.size());
  double h_m = 0.0;
  for (size_t i = 0; i < common; ++i) {
    const double pi = p[i];
    const double qi = q[i];
    const double mi = 0.5 * (pi + qi);
    h_m -= XLogX(mi);
  }
  // Past the shorter sequence m_i is half the longer one's entry, whose
  // log is cached. The multiply stays in the loop so the expression keeps
  // XLogX's shape (and rounds, or contracts, the same way).
  const size_t longer = p.size() >= q.size() ? sv : su;
  const std::vector<float>& tail = sequences_[longer];
  const double* half_log = half_log_.data() + half_log_offset_[longer];
  for (size_t i = common; i < tail.size(); ++i) {
    const double mi = 0.5 * static_cast<double>(tail[i]);
    h_m -= mi > 0.0 ? mi * half_log[i] : 0.0;
  }
  return 1.0 - JsBits(h_m, self_entropy_[sv], self_entropy_[su]);
}

}  // namespace entropy
}  // namespace graphrare
