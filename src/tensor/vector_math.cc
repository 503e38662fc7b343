#include "tensor/vector_math.h"

#include <cstring>

namespace graphrare {
namespace tensor {

namespace {

// Same generic vector idiom as tensor.cc and sparse.cc: values live in
// registers inside one function and cross memory through memcpy, and the
// project-wide -ffp-contract=off keeps every multiply and add rounded on
// its own, as in the scalar routine. Comparisons yield all-ones/all-zero
// VNi lane masks, and `mask ? a : b` selects per lane: each branch of the
// scalar code is computed for all sixteen lanes and the lane's own branch
// is kept. Bit patterns are handled as VNu, so adding k << 23 to an
// exponent with k < 0 wraps instead of shifting a negative signed value.
// Sixteen lanes fill one AVX-512 register and two AVX2 ones; the lanes
// are independent, so the width changes no result.
constexpr int kLanes = 16;
typedef float VNf __attribute__((vector_size(kLanes * sizeof(float))));
typedef int32_t VNi __attribute__((vector_size(kLanes * sizeof(int32_t))));
typedef uint32_t VNu __attribute__((vector_size(kLanes * sizeof(uint32_t))));

// fdlibm expm1f constants, by bit pattern.
constexpr uint32_t kLn2Hi = 0x3f317180;
constexpr uint32_t kLn2Lo = 0x3717f7d1;
constexpr uint32_t kInvLn2 = 0x3fb8aa3b;
constexpr uint32_t kQ1 = 0xbd088889;
constexpr uint32_t kQ2 = 0x3ad00d01;
constexpr uint32_t kQ3 = 0xb8a670cd;
constexpr uint32_t kQ4 = 0x36867e54;
constexpr uint32_t kQ5 = 0xb457edbb;

float Bits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

/// tanh of the kLanes floats at `p`, in place: fdlibm tanhf, with its
/// expm1f call inlined for the arguments tanhf passes it (|arg| in
/// [2^-54, 44)), so expm1f's overflow and -1 saturation branches are
/// never taken and are left out.
inline void TanhN(float* p) {
  VNf x;
  std::memcpy(&x, p, sizeof(x));
  const VNf zero = {};
  const VNf one = zero + 1.0f;
  const VNu jx = (VNu)x;
  const VNu sign = jx & 0x80000000u;
  const VNu ix = jx ^ sign;

  // tanhf: |x| in [2^-55, 22) goes through expm1f; |x| >= 1 as
  // 1 - 2 / (expm1(2|x|) + 2), smaller |x| as -t / (t + 2) with
  // t = expm1(-2|x|). Other lanes run the same arithmetic on |x| = 1.
  const VNi via_expm1 = (ix >= 0x24000000u) & (ix < 0x41b00000u);
  const VNi ge_one = ix >= 0x3f800000u;
  const VNf a = via_expm1 ? (VNf)ix : one;
  const VNf arg = ge_one ? 2.0f * a : -2.0f * a;

  // expm1f argument reduction: arg = k ln2 + r, r = xr + c. |arg| <= 0.5 ln2
  // keeps k = 0, |arg| < 1.5 ln2 takes k = +-1, larger |arg| rounds
  // arg / ln2 half away from zero. At k = 0 the shared formulas give
  // xr = arg and c = 0 exactly.
  const VNu hx = (VNu)arg & 0x7fffffffu;
  const VNi negative = arg < zero;
  const VNf half = negative ? zero - 0.5f : zero + 0.5f;
  const VNi k_round = __builtin_convertvector(Bits(kInvLn2) * arg + half, VNi);
  const VNi k_unit = negative ? VNi{} - 1 : VNi{} + 1;
  const VNi k = hx >= 0x3f851592u ? k_round
                                  : (hx > 0x3eb17218u ? k_unit : VNi{});
  const VNf kf = __builtin_convertvector(k, VNf);
  const VNf hi = arg - kf * Bits(kLn2Hi);
  const VNf lo = kf * Bits(kLn2Lo);
  const VNf xr = hi - lo;
  const VNf c = (hi - xr) - lo;

  // expm1f on the primary range.
  const VNf hfx = 0.5f * xr;
  const VNf hxs = xr * hfx;
  const VNf r1 =
      one + hxs * (Bits(kQ1) +
                   hxs * (Bits(kQ2) +
                          hxs * (Bits(kQ3) +
                                 hxs * (Bits(kQ4) + hxs * Bits(kQ5)))));
  const VNf t3 = 3.0f - r1 * hfx;
  const VNf e0 = hxs * ((r1 - t3) / (6.0f - xr * t3));
  const VNf e = (xr * (e0 - c) - c) - hxs;

  // expm1f's reconstruction 2^k (1 + r) - 1, one candidate per k range.
  const VNf y_k0 = xr - (xr * e0 - hxs);
  const VNf y_km1 = 0.5f * (xr - e) - 0.5f;
  const VNf y_kp1 = xr < zero - 0.25f ? -2.0f * (e - (xr + 0.5f))
                                      : one + 2.0f * (xr - e);
  const VNu k_exp = (VNu)k << 23;
  const VNf y_far = (VNf)((VNu)(one - (e - xr)) + k_exp) - one;
  // 1 - 2^-k for 2 <= k < 23; the mask keeps other lanes' shift in range.
  const VNu shift = (VNu)k & 31u;
  const VNf t_small = (VNf)(0x3f800000u - ((VNu{} + 0x1000000u) >> shift));
  const VNf y_small = (VNf)((VNu)(t_small - (e - xr)) + k_exp);
  // 2^-k for 23 <= k <= 56.
  const VNf t_large = (VNf)((VNu)(0x7f - k) << 23);
  const VNf y_large = (VNf)((VNu)((xr - (e + t_large)) + one) + k_exp);
  VNf em1 = k < 23 ? y_small : y_large;
  em1 = (k <= -2) | (k > 56) ? y_far : em1;
  em1 = k == 1 ? y_kp1 : em1;
  em1 = k == -1 ? y_km1 : em1;
  em1 = k == 0 ? y_k0 : em1;
  em1 = hx < 0x33000000u ? arg : em1;  // |arg| < 2^-25: arg itself

  const VNf q = (ge_one ? zero + 2.0f : zero - em1) / (em1 + 2.0f);
  VNf z = ge_one ? one - q : q;
  z = ix >= 0x41b00000u ? one : z;  // |x| >= 22 and +-inf: 1 - tiny
  VNf y = (VNf)((VNu)z ^ sign);
  y = ix < 0x24000000u ? x : y;      // |x| < 2^-55: x * (1 + x) == x
  y = ix > 0x7f800000u ? x + x : y;  // NaN: quieted, payload kept
  std::memcpy(p, &y, sizeof(y));
}

}  // namespace

void TanhInPlace(float* x, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) TanhN(x + i);
  if (i < n) {
    float tail[kLanes] = {};
    const size_t bytes = static_cast<size_t>(n - i) * sizeof(float);
    std::memcpy(tail, x + i, bytes);
    TanhN(tail);
    std::memcpy(x + i, tail, bytes);
  }
}

}  // namespace tensor
}  // namespace graphrare
