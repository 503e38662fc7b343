// Exhaustive check of the owned vector tanh: runs tensor::TanhInPlace on
// all 2^32 float bit patterns and compares each result bit for bit with the
// scalar fdlibm transcription in tests/tanh_reference.h. Any mismatch fails
// the run (exit status 1). For information it also prints how many results
// differ from the host libm's std::tanh (0 on a glibc that ships fdlibm's
// tanhf) and the largest error in ULP against double-precision tanh over
// the finite inputs.
//
//   ./bench/tanh_exhaustive   # ~3 min of CPU, split over OpenMP threads
//                             # (53 s on a 4-core AVX-512 Xeon)

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/parallel.h"
#include "common/stopwatch.h"
#include "tensor/vector_math.h"
#include "tests/tanh_reference.h"

namespace {

using graphrare::testing_ref::BitsFloat;
using graphrare::testing_ref::FloatBits;
using graphrare::testing_ref::UlpError;

struct Tally {
  uint64_t reference_mismatches = 0;
  uint64_t libm_mismatches = 0;
  double max_ulp = 0.0;
  uint32_t max_ulp_bits = 0;
  uint32_t first_mismatch = 0;
};

/// Checks the inputs whose bit patterns are [begin, end).
Tally CheckRange(int64_t begin, int64_t end) {
  Tally t;
  std::vector<float> x(static_cast<size_t>(end - begin));
  for (int64_t u = begin; u < end; ++u) {
    x[static_cast<size_t>(u - begin)] = BitsFloat(static_cast<uint32_t>(u));
  }
  graphrare::tensor::TanhInPlace(x.data(), end - begin);
  for (int64_t u = begin; u < end; ++u) {
    const auto bits = static_cast<uint32_t>(u);
    const float in = BitsFloat(bits);
    const uint32_t got = FloatBits(x[static_cast<size_t>(u - begin)]);
    if (got != FloatBits(graphrare::testing_ref::TanhfReference(in))) {
      if (t.reference_mismatches++ == 0) t.first_mismatch = bits;
    }
    if (got != FloatBits(std::tanh(in))) ++t.libm_mismatches;
    if (std::isfinite(in)) {
      const double err = UlpError(BitsFloat(got), std::tanh(double{in}));
      if (err > t.max_ulp) {
        t.max_ulp = err;
        t.max_ulp_bits = bits;
      }
    }
  }
  return t;
}

Tally Combine(Tally acc, const Tally& b) {
  if (acc.reference_mismatches == 0 && b.reference_mismatches > 0) {
    acc.first_mismatch = b.first_mismatch;
  }
  acc.reference_mismatches += b.reference_mismatches;
  acc.libm_mismatches += b.libm_mismatches;
  if (b.max_ulp > acc.max_ulp) {
    acc.max_ulp = b.max_ulp;
    acc.max_ulp_bits = b.max_ulp_bits;
  }
  return acc;
}

}  // namespace

int main() {
  constexpr int64_t kInputs = int64_t{1} << 32;
  graphrare::Stopwatch watch;
  const Tally t = graphrare::ParallelReduce(kInputs, int64_t{1} << 20,
                                            Tally{}, CheckRange, Combine);
  std::printf("tanh_exhaustive: 2^32 inputs in %.1f s\n",
              watch.ElapsedSeconds());
  std::printf("  mismatches vs tests/tanh_reference.h: %llu\n",
              static_cast<unsigned long long>(t.reference_mismatches));
  std::printf("  mismatches vs host libm std::tanh:    %llu\n",
              static_cast<unsigned long long>(t.libm_mismatches));
  std::printf("  max error vs double tanh: %.3f ULP at x = 0x%08x\n",
              t.max_ulp, static_cast<unsigned>(t.max_ulp_bits));
  if (t.reference_mismatches != 0) {
    std::printf("FAIL: first mismatch at x = 0x%08x\n",
                static_cast<unsigned>(t.first_mismatch));
    return 1;
  }
  return 0;
}
