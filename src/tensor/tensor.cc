#include "tensor/tensor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <mutex>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "common/parallel.h"

// The tensor pool is compiled out under sanitizer builds so ASan sees every
// logical allocation / use-after-free instead of a recycled buffer.
#if defined(__SANITIZE_ADDRESS__)
#define GRAPHRARE_TENSOR_POOL_COMPILED_OUT 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GRAPHRARE_TENSOR_POOL_COMPILED_OUT 1
#endif
#endif

namespace graphrare {
namespace tensor {

// ===================================================================
// TensorPool: thread-safe power-of-two free lists of float buffers.
// ===================================================================

namespace {

#ifndef GRAPHRARE_TENSOR_POOL_COMPILED_OUT

// Buffers below 4 KiB ride the regular allocator (small mallocs are cheap
// and pooling them would just add lock traffic).
constexpr size_t kMinPooledFloats = size_t{1} << 10;
constexpr size_t kMaxBucketBuffers = 16;
constexpr uint64_t kMaxCachedBytes = uint64_t{256} << 20;  // 256 MiB
constexpr int kNumBuckets = 40;  // capacities up to 2^39 floats

int FloorLog2(size_t n) {
  int b = 0;
  while (n >> 1) {
    n >>= 1;
    ++b;
  }
  return b;
}

int CeilLog2(size_t n) {
  const int b = FloorLog2(n);
  return (size_t{1} << b) == n ? b : b + 1;
}

// Multi-megabyte buffers (feature matrices, SpMM outputs) are gather
// targets for the sparse kernels, where 4 KiB pages cost a DTLB miss on
// nearly every CSR gather. Ask the kernel to back fresh large buffers
// with transparent huge pages (effective under THP "madvise" or "always"
// policies; silently a no-op elsewhere). Must run before first touch, so
// FreshBuffer reserves, advises, then resizes.
void MaybeAdviseHugePages(void* data, size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr size_t kHugeAdviseBytes = size_t{2} << 20;
  constexpr uintptr_t kPageMask = 4095;
  if (bytes < kHugeAdviseBytes) return;
  const uintptr_t lo =
      (reinterpret_cast<uintptr_t>(data) + kPageMask) & ~kPageMask;
  const uintptr_t hi = (reinterpret_cast<uintptr_t>(data) + bytes) & ~kPageMask;
  if (hi > lo) madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#else
  (void)data;
  (void)bytes;
#endif
}

std::vector<float> FreshBuffer(size_t n, size_t capacity) {
  std::vector<float> buf;
  buf.reserve(capacity);
  // Advise only the n floats resize touches: huge pages over the unused
  // tail of a rounded-up capacity would be faulted in and count as RSS.
  MaybeAdviseHugePages(buf.data(), n * sizeof(float));
  buf.resize(n);  // value-initialises (zero) after the advice
  return buf;
}

class PoolImpl {
 public:
  // Leaked singleton: Tensors with static storage duration may be destroyed
  // after any function-local static pool, so the pool must never die.
  static PoolImpl& Get() {
    static PoolImpl* pool = new PoolImpl();
    return *pool;
  }

  /// Returns a size-n buffer with unspecified contents. `zeroed` requests a
  /// zero fill (skipped when the buffer is freshly value-initialised).
  std::vector<float> Acquire(size_t n, bool zeroed) {
    if (n >= kMinPooledFloats) {
      std::unique_lock<std::mutex> lock(mu_);
      auto& bucket = buckets_[static_cast<size_t>(CeilLog2(n))];
      if (!bucket.empty()) {
        std::vector<float> buf = std::move(bucket.back());
        bucket.pop_back();
        ++stats_.hits;
        stats_.cached_bytes -= buf.capacity() * sizeof(float);
        lock.unlock();
        buf.resize(n);  // shrink or zero-extend within capacity
        if (zeroed) std::fill(buf.begin(), buf.end(), 0.0f);
        return buf;
      }
      ++stats_.misses;
      lock.unlock();
      // Reserve the bucket's full power of two: Release files the buffer
      // under FloorLog2(capacity), which is then CeilLog2(n), the bucket
      // the next Acquire(n) looks in.
      return FreshBuffer(n, size_t{1} << CeilLog2(n));
    }
    return FreshBuffer(n, n);  // value-initialised (zeroed)
  }

  void Release(std::vector<float> buf) {
    const size_t cap = buf.capacity();
    if (cap < kMinPooledFloats) return;  // too small to track
    std::lock_guard<std::mutex> lock(mu_);
    auto& bucket = buckets_[static_cast<size_t>(FloorLog2(cap))];
    const uint64_t bytes = cap * sizeof(float);
    if (bucket.size() >= kMaxBucketBuffers ||
        stats_.cached_bytes + bytes > kMaxCachedBytes) {
      ++stats_.drops;
      return;
    }
    bucket.push_back(std::move(buf));
    ++stats_.returns;
    stats_.cached_bytes += bytes;
  }

  TensorPool::Stats GetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  std::mutex mu_;
  TensorPool::Stats stats_;
  // buckets_[b] holds buffers whose capacity is in [2^b, 2^(b+1)); any of
  // them serves an Acquire(n) with CeilLog2(n) == b since 2^b >= n.
  std::array<std::vector<std::vector<float>>, kNumBuckets> buckets_;
};

#endif  // !GRAPHRARE_TENSOR_POOL_COMPILED_OUT

}  // namespace

namespace internal {

#ifdef GRAPHRARE_TENSOR_POOL_COMPILED_OUT

std::vector<float> PoolAcquireZeroed(size_t n) {
  return std::vector<float>(n);
}
std::vector<float> PoolAcquireRaw(size_t n) { return std::vector<float>(n); }
std::vector<float> PoolAcquireCopy(const std::vector<float>& src) {
  return src;
}
void PoolRelease(std::vector<float> buf) { buf.clear(); }

#else

std::vector<float> PoolAcquireZeroed(size_t n) {
  return PoolImpl::Get().Acquire(n, /*zeroed=*/true);
}

std::vector<float> PoolAcquireRaw(size_t n) {
  return PoolImpl::Get().Acquire(n, /*zeroed=*/false);
}

std::vector<float> PoolAcquireCopy(const std::vector<float>& src) {
  std::vector<float> buf = PoolImpl::Get().Acquire(src.size(),
                                                   /*zeroed=*/false);
  std::copy(src.begin(), src.end(), buf.begin());
  return buf;
}

void PoolRelease(std::vector<float> buf) {
  if (buf.capacity() == 0) return;
  PoolImpl::Get().Release(std::move(buf));
}

#endif  // GRAPHRARE_TENSOR_POOL_COMPILED_OUT

}  // namespace internal

bool TensorPool::Enabled() {
#ifdef GRAPHRARE_TENSOR_POOL_COMPILED_OUT
  return false;
#else
  return true;
#endif
}

TensorPool::Stats TensorPool::GetStats() {
#ifdef GRAPHRARE_TENSOR_POOL_COMPILED_OUT
  return Stats{};
#else
  return PoolImpl::Get().GetStats();
#endif
}

// ===================================================================
// Tensor basics
// ===================================================================

Tensor Tensor::Randn(int64_t rows, int64_t cols, Rng* rng, float stddev) {
  GR_CHECK(rng != nullptr);
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng->Normal()) * stddev;
  }
  return t;
}

Tensor Tensor::Rand(int64_t rows, int64_t cols, Rng* rng, float lo, float hi) {
  GR_CHECK(rng != nullptr);
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::GlorotUniform(int64_t fan_in, int64_t fan_out, Rng* rng) {
  const float limit =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Rand(fan_in, fan_out, rng, -limit, limit);
}

void Tensor::Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

namespace {

// Elementwise kernels are memory-bound; below this many elements a thread
// team costs more than it saves.
constexpr int64_t kElementwiseGrain = int64_t{1} << 15;

}  // namespace

void Tensor::AddInPlace(const Tensor& other) {
  GR_CHECK(SameShape(other)) << "AddInPlace shape mismatch: " << rows_ << "x"
                             << cols_ << " vs " << other.rows_ << "x"
                             << other.cols_;
  const float* src = other.data();
  float* dst = data();
  ParallelFor(numel(), kElementwiseGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) dst[i] += src[i];
  });
}

void Tensor::AxpyInPlace(float alpha, const Tensor& other) {
  GR_CHECK(SameShape(other));
  const float* src = other.data();
  float* dst = data();
  ParallelFor(numel(), kElementwiseGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) dst[i] += alpha * src[i];
  });
}

void Tensor::ScaleInPlace(float alpha) {
  float* dst = data();
  ParallelFor(numel(), kElementwiseGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) dst[i] *= alpha;
  });
}

void Tensor::MulInPlace(const Tensor& other) {
  GR_CHECK(SameShape(other));
  const float* src = other.data();
  float* dst = data();
  ParallelFor(numel(), kElementwiseGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) dst[i] *= src[i];
  });
}

double Tensor::SumDouble() const {
  // Neumaier's variant of Kahan summation on a double accumulator: the
  // compensation term survives even when a large addend cancels the running
  // sum (plain Kahan folds the correction into the next addend, where it
  // can be swallowed by the cancellation itself).
  double sum = 0.0;
  double comp = 0.0;
  for (int64_t i = 0; i < numel(); ++i) {
    const double v = static_cast<double>((*this)[i]);
    const double t = sum + v;
    if (std::abs(sum) >= std::abs(v)) {
      comp += (sum - t) + v;
    } else {
      comp += (v - t) + sum;
    }
    sum = t;
  }
  return sum + comp;
}

float Tensor::Sum() const { return static_cast<float>(SumDouble()); }

float Tensor::Mean() const {
  GR_CHECK_GT(numel(), 0);
  return static_cast<float>(SumDouble() / static_cast<double>(numel()));
}

int64_t Tensor::ArgMaxRow(int64_t r) const {
  GR_CHECK(r >= 0 && r < rows_);
  GR_CHECK_GT(cols_, 0);
  const float* p = row(r);
  int64_t best = 0;
  for (int64_t c = 1; c < cols_; ++c) {
    if (p[c] > p[best]) best = c;
  }
  return best;
}

// ===================================================================
// Blocked, register-tiled GEMM
// ===================================================================
//
// Layout (GotoBLAS-style GEBP without a k-cut):
//   * B is packed once into kNr-wide column panels, k-major, zero-padded to
//     kNr, so the micro-kernel streams it contiguously.
//   * C is walked in kMc-row blocks (one OpenMP task each; threads own
//     disjoint C rows). Each block packs its A rows into kMr-high
//     micro-panels, k-major.
//   * The micro-kernel holds a kMr x kNr accumulator block in registers and
//     runs the FULL k extent for it. Keeping k un-split is what makes the
//     result bitwise equal to the naive triple loop: every C[i,j] is a plain
//     ascending-k accumulation, so blocking and thread count cannot change
//     a single bit.
//
// MatMulTransA cannot keep k un-split (k is the reduction axis it
// parallelises over), so it commits to the fixed-block contract documented
// in tensor.h instead.

namespace {

constexpr int64_t kMr = 4;  // micro-tile rows (register blocking)
constexpr int64_t kNr = 8;  // micro-tile cols (one AVX2 / two SSE vectors)

// GCC/Clang generic vector type: one micro-tile row of C accumulates in a
// single 8-lane register. Lanes are independent C elements, so vectorising
// over j never reorders any element's k-accumulation. On ISAs without
// 256-bit registers the compiler lowers this to register pairs — same
// semantics, still far ahead of the scalar loop.
typedef float V8f __attribute__((vector_size(32)));
constexpr int64_t kMc = 64; // C rows per parallel task / A pack block
// Below this many multiply-adds the packing overhead beats the win.
constexpr int64_t kSmallGemmFlops = int64_t{1} << 15;

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

/// RAII pooled scratch buffer (contents unspecified until written).
class Scratch {
 public:
  explicit Scratch(size_t n) : buf_(internal::PoolAcquireRaw(n)) {}
  ~Scratch() { internal::PoolRelease(std::move(buf_)); }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  float* data() { return buf_.data(); }

 private:
  std::vector<float> buf_;
};

/// ikj triple loop (ascending-k accumulation per element). C must be
/// zero-initialised. The av == 0 skip is exact: it can only flip the sign
/// of a zero, which every comparison in the library treats as equal.
void NaiveMatMulInto(const float* pa, const float* pb, float* pc, int64_t m,
                     int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = pb + kk * n;
      for (int64_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

/// kij loop for C = A^T B over rows [0, k) of A (k x m) and B (k x n).
/// Ascending-k accumulation per element; C must be zero-initialised.
void NaiveTransAInto(const float* pa, const float* pb, float* pc, int64_t k,
                     int64_t m, int64_t n) {
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

/// Packs B (k x n, row stride ldb) into ceil(n / kNr) panels:
/// packed[p * k * kNr + kk * kNr + j] = B[kk][p * kNr + j], zero-padded.
void PackB(const float* b, int64_t k, int64_t n, int64_t ldb, float* packed) {
  const int64_t panels = CeilDiv(n, kNr);
  ParallelFor(panels, 8, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t j0 = p * kNr;
      const int64_t jw = std::min(kNr, n - j0);
      float* dst = packed + p * k * kNr;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* src = b + kk * ldb + j0;
        for (int64_t j = 0; j < jw; ++j) dst[j] = src[j];
        for (int64_t j = jw; j < kNr; ++j) dst[j] = 0.0f;
        dst += kNr;
      }
    }
  });
}

/// Packs B^T where B is (n x k) row-major: the panel layout above applied
/// to the logical (k x n) transpose, read column-wise from B's rows.
void PackBTransposed(const float* b, int64_t k, int64_t n, int64_t ldb,
                     float* packed) {
  const int64_t panels = CeilDiv(n, kNr);
  ParallelFor(panels, 8, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t j0 = p * kNr;
      const int64_t jw = std::min(kNr, n - j0);
      float* dst = packed + p * k * kNr;
      for (int64_t kk = 0; kk < k; ++kk) {
        for (int64_t j = 0; j < jw; ++j) dst[j] = b[(j0 + j) * ldb + kk];
        for (int64_t j = jw; j < kNr; ++j) dst[j] = 0.0f;
        dst += kNr;
      }
    }
  });
}

/// Packs `mb` rows of A (row stride lda) into kMr-high micro-panels:
/// packed[t * k * kMr + kk * kMr + r] = A[t * kMr + r][kk], zero-padded.
void PackA(const float* a, int64_t mb, int64_t k, int64_t lda, float* packed) {
  const int64_t tiles = CeilDiv(mb, kMr);
  for (int64_t t = 0; t < tiles; ++t) {
    const int64_t r0 = t * kMr;
    const int64_t rh = std::min(kMr, mb - r0);
    float* dst = packed + t * k * kMr;
    for (int64_t kk = 0; kk < k; ++kk) {
      for (int64_t r = 0; r < rh; ++r) dst[r] = a[(r0 + r) * lda + kk];
      for (int64_t r = rh; r < kMr; ++r) dst[r] = 0.0f;
      dst += kMr;
    }
  }
}

/// Packs a k-major block At (kb x m, row stride lda — A^T as stored by
/// MatMulTransA's inputs) into kMr-high micro-panels with exactly the
/// layout PackA produces for the equivalent (m x kb) row-major block:
/// packed[t * kb * kMr + kk * kMr + r] = At[kk][t * kMr + r]. Reads each
/// k-row contiguously, so no strided full-block transpose is needed first.
void PackATransposed(const float* at, int64_t kb, int64_t m, int64_t lda,
                     float* packed) {
  const int64_t tiles = CeilDiv(m, kMr);
  for (int64_t t = 0; t < tiles; ++t) {
    const int64_t r0 = t * kMr;
    const int64_t rh = std::min(kMr, m - r0);
    float* dst = packed + t * kb * kMr;
    for (int64_t kk = 0; kk < kb; ++kk) {
      const float* src = at + kk * lda + r0;
      for (int64_t r = 0; r < rh; ++r) dst[r] = src[r];
      for (int64_t r = rh; r < kMr; ++r) dst[r] = 0.0f;
      dst += kMr;
    }
  }
}

/// One kMr x kNr C tile over the full k extent, accumulators in registers.
/// Writes the rh x jw live corner of the tile (padded lanes are discarded).
/// Loads/stores go through memcpy so vector values never cross a function
/// boundary (keeps non-AVX builds free of -Wpsabi ABI warnings).
void MicroKernel(const float* ap, const float* bp, int64_t k, int64_t rh,
                 int64_t jw, float* c, int64_t ldc) {
  V8f a0 = {0, 0, 0, 0, 0, 0, 0, 0};
  V8f a1 = a0, a2 = a0, a3 = a0;
  static_assert(kMr == 4 && kNr == 8, "micro-kernel is written for 4x8");
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* ar = ap + kk * kMr;
    V8f b;
    std::memcpy(&b, bp + kk * kNr, sizeof(b));
    a0 += ar[0] * b;
    a1 += ar[1] * b;
    a2 += ar[2] * b;
    a3 += ar[3] * b;
  }
  float tmp[kMr][kNr];
  std::memcpy(tmp[0], &a0, sizeof(a0));
  std::memcpy(tmp[1], &a1, sizeof(a1));
  std::memcpy(tmp[2], &a2, sizeof(a2));
  std::memcpy(tmp[3], &a3, sizeof(a3));
  if (rh == kMr && jw == kNr) {
    for (int64_t r = 0; r < kMr; ++r) {
      std::memcpy(c + r * ldc, tmp[r], sizeof(tmp[r]));
    }
    return;
  }
  for (int64_t r = 0; r < rh; ++r) {
    for (int64_t j = 0; j < jw; ++j) {
      c[r * ldc + j] = tmp[r][j];
    }
  }
}

/// C (m x n, row stride n) = A (m x k, row stride lda) * packed B.
/// `parallel` toggles the OpenMP row-block fan-out (callers already inside
/// a parallel region pass false).
void BlockedGemm(const float* a, int64_t lda, const float* bpacked, int64_t m,
                 int64_t k, int64_t n, float* c, bool parallel) {
  const int64_t bpanels = CeilDiv(n, kNr);
  ParallelFor(m, parallel ? kMc : m, [&](int64_t i0, int64_t i1) {
    const int64_t mb = i1 - i0;
    const int64_t atiles = CeilDiv(mb, kMr);
    Scratch apacked(static_cast<size_t>(atiles * kMr * k));
    PackA(a + i0 * lda, mb, k, lda, apacked.data());
    for (int64_t t = 0; t < atiles; ++t) {
      const int64_t r0 = i0 + t * kMr;
      const int64_t rh = std::min(kMr, m - r0);
      const float* ap = apacked.data() + t * k * kMr;
      for (int64_t p = 0; p < bpanels; ++p) {
        const int64_t j0 = p * kNr;
        const int64_t jw = std::min(kNr, n - j0);
        MicroKernel(ap, bpacked + p * k * kNr, k, rh, jw, c + r0 * n + j0, n);
      }
    }
  });
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  GR_CHECK_EQ(a.cols(), b.rows());
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  Tensor c(m, n);
  if (m == 0 || k == 0 || n == 0) return c;
  if (m * k * n < kSmallGemmFlops) {
    NaiveMatMulInto(a.data(), b.data(), c.data(), m, k, n);
    return c;
  }
  Scratch bpacked(static_cast<size_t>(CeilDiv(n, kNr) * kNr * k));
  PackB(b.data(), k, n, n, bpacked.data());
  BlockedGemm(a.data(), k, bpacked.data(), m, k, n, c.data(),
              /*parallel=*/true);
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  GR_CHECK_EQ(a.rows(), b.rows());
  const int64_t k = a.rows(), m = a.cols(), n = b.cols();
  if (k <= kTransAKBlock) {
    // Single reduction block: the contract degenerates to the plain kij
    // loop (ascending-k accumulation).
    Tensor c(m, n);
    NaiveTransAInto(a.data(), b.data(), c.data(), k, m, n);
    return c;
  }
  // Fixed k-blocks, partials combined in ascending block order (see
  // tensor.h): bitwise invariant to OMP_NUM_THREADS and OpenMP-off builds.
  return ParallelReduce<Tensor>(
      k, kTransAKBlock, Tensor(m, n),
      [&](int64_t k0, int64_t k1) {
        const int64_t kb = k1 - k0;
        const float* ablk = a.data() + k0 * m;
        const float* bblk = b.data() + k0 * n;
        Tensor partial(m, n);
        if (m * kb * n < kSmallGemmFlops) {
          NaiveTransAInto(ablk, bblk, partial.data(), kb, m, n);
          return partial;
        }
        // Pack the k-major A block straight into micro-panels (one
        // contiguous read per k-row) instead of re-striding it through a
        // full transpose and a second PackA pass. The packed bytes — and
        // hence the register-tiled core's per-element ascending-k sums —
        // are identical either way.
        const int64_t atiles = CeilDiv(m, kMr);
        const int64_t bpanels = CeilDiv(n, kNr);
        Scratch apacked(static_cast<size_t>(atiles * kMr * kb));
        PackATransposed(ablk, kb, m, m, apacked.data());
        Scratch bpacked(static_cast<size_t>(bpanels * kNr * kb));
        PackB(bblk, kb, n, n, bpacked.data());
        for (int64_t t = 0; t < atiles; ++t) {
          const int64_t r0 = t * kMr;
          const int64_t rh = std::min(kMr, m - r0);
          const float* ap = apacked.data() + t * kb * kMr;
          for (int64_t p = 0; p < bpanels; ++p) {
            const int64_t j0 = p * kNr;
            const int64_t jw = std::min(kNr, n - j0);
            MicroKernel(ap, bpacked.data() + p * kb * kNr, kb, rh, jw,
                        partial.data() + r0 * n + j0, n);
          }
        }
        return partial;
      },
      [](Tensor acc, Tensor partial) {
        acc.AddInPlace(partial);
        return acc;
      });
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  GR_CHECK_EQ(a.cols(), b.cols());
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  Tensor c(m, n);
  if (m == 0 || k == 0 || n == 0) return c;
  if (m * k * n < kSmallGemmFlops) {
    // Row-by-row dot products: ascending-k accumulation per element.
    const float* pa = a.data();
    const float* pb = b.data();
    float* pc = c.data();
    for (int64_t i = 0; i < m; ++i) {
      const float* arow = pa + i * k;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = pb + j * k;
        float acc = 0.0f;
        for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
        crow[j] = acc;
      }
    }
    return c;
  }
  // Pack B^T once, then the standard blocked core; per-element accumulation
  // order is identical to the dot-product loop above.
  Scratch bpacked(static_cast<size_t>(CeilDiv(n, kNr) * kNr * k));
  PackBTransposed(b.data(), k, n, k, bpacked.data());
  BlockedGemm(a.data(), k, bpacked.data(), m, k, n, c.data(),
              /*parallel=*/true);
  return c;
}

Tensor ColSum(const Tensor& a) {
  const int64_t rows = a.rows();
  const int64_t cols = a.cols();
  // Deterministic fixed-block reduction over row blocks (see tensor.h).
  return ParallelReduce<Tensor>(
      rows, kColSumRowBlock, Tensor(1, cols),
      [&](int64_t r0, int64_t r1) {
        Tensor partial(1, cols);
        float* po = partial.data();
        for (int64_t r = r0; r < r1; ++r) {
          const float* pr = a.row(r);
          for (int64_t c = 0; c < cols; ++c) po[c] += pr[c];
        }
        return partial;
      },
      [](Tensor acc, Tensor partial) {
        acc.AddInPlace(partial);
        return acc;
      });
}

Tensor RowSum(const Tensor& a) {
  Tensor out(a.rows(), 1);
  float* po = out.data();
  // Per-row sums are independent (ascending-column order within each row),
  // so a static ParallelFor cannot change the result.
  ParallelFor(a.rows(), 512, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* pr = a.row(r);
      float acc = 0.0f;
      for (int64_t c = 0; c < a.cols(); ++c) acc += pr[c];
      po[r] = acc;
    }
  });
  return out;
}

}  // namespace tensor
}  // namespace graphrare
