#include "tensor/vector_math.h"

#include <cstring>

namespace graphrare {
namespace tensor {

namespace {

// Same generic vector idiom as tensor.cc and sparse.cc: values live in
// registers inside one function and cross memory through memcpy, and the
// project-wide -ffp-contract=off keeps every multiply and add rounded on
// its own, as in the scalar routine. Comparisons yield all-ones/all-zero V8i
// lane masks, and `mask ? a : b` selects per lane: each branch of the
// scalar code is computed for all eight lanes and the lane's own branch is
// kept. Bit patterns are handled as V8u, so adding k << 23 to an exponent
// with k < 0 wraps instead of shifting a negative signed value.
typedef float V8f __attribute__((vector_size(32)));
typedef int32_t V8i __attribute__((vector_size(32)));
typedef uint32_t V8u __attribute__((vector_size(32)));

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

/// tanh of the eight floats at `p`, in place: fdlibm tanhf, with its
/// expm1f call inlined for the arguments tanhf passes it (|arg| in
/// [2^-54, 44)), so expm1f's overflow and -1 saturation branches are
/// never taken and are left out.
inline void Tanh8(float* p) {
  V8f x;
  std::memcpy(&x, p, sizeof(x));
  const V8f zero = {0, 0, 0, 0, 0, 0, 0, 0};
  const V8f one = zero + 1.0f;
  const V8u jx = (V8u)x;
  const V8u sign = jx & 0x80000000u;
  const V8u ix = jx ^ sign;

  // tanhf: |x| in [2^-55, 22) goes through expm1f; |x| >= 1 as
  // 1 - 2 / (expm1(2|x|) + 2), smaller |x| as -t / (t + 2) with
  // t = expm1(-2|x|). Other lanes run the same arithmetic on |x| = 1.
  const V8i via_expm1 = (ix >= 0x24000000u) & (ix < 0x41b00000u);
  const V8i ge_one = ix >= 0x3f800000u;
  const V8f a = via_expm1 ? (V8f)ix : one;
  const V8f arg = ge_one ? 2.0f * a : -2.0f * a;

  // expm1f argument reduction: arg = k ln2 + r, r = xr + c. |arg| <= 0.5 ln2
  // keeps k = 0, |arg| < 1.5 ln2 takes k = +-1, larger |arg| rounds
  // arg / ln2 half away from zero. At k = 0 the shared formulas give
  // xr = arg and c = 0 exactly.
  const V8u hx = (V8u)arg & 0x7fffffffu;
  const V8i negative = arg < zero;
  const V8f half = negative ? zero - 0.5f : zero + 0.5f;
  const V8i k_round = __builtin_convertvector(Bits(kInvLn2) * arg + half, V8i);
  const V8i k_unit = negative ? V8i{} - 1 : V8i{} + 1;
  const V8i k = hx >= 0x3f851592u ? k_round
                                  : (hx > 0x3eb17218u ? k_unit : V8i{});
  const V8f kf = __builtin_convertvector(k, V8f);
  const V8f hi = arg - kf * Bits(kLn2Hi);
  const V8f lo = kf * Bits(kLn2Lo);
  const V8f xr = hi - lo;
  const V8f c = (hi - xr) - lo;

  // expm1f on the primary range.
  const V8f hfx = 0.5f * xr;
  const V8f hxs = xr * hfx;
  const V8f r1 =
      one + hxs * (Bits(kQ1) +
                   hxs * (Bits(kQ2) +
                          hxs * (Bits(kQ3) +
                                 hxs * (Bits(kQ4) + hxs * Bits(kQ5)))));
  const V8f t3 = 3.0f - r1 * hfx;
  const V8f e0 = hxs * ((r1 - t3) / (6.0f - xr * t3));
  const V8f e = (xr * (e0 - c) - c) - hxs;

  // expm1f's reconstruction 2^k (1 + r) - 1, one candidate per k range.
  const V8f y_k0 = xr - (xr * e0 - hxs);
  const V8f y_km1 = 0.5f * (xr - e) - 0.5f;
  const V8f y_kp1 = xr < zero - 0.25f ? -2.0f * (e - (xr + 0.5f))
                                      : one + 2.0f * (xr - e);
  const V8u k_exp = (V8u)k << 23;
  const V8f y_far = (V8f)((V8u)(one - (e - xr)) + k_exp) - one;
  // 1 - 2^-k for 2 <= k < 23; the mask keeps other lanes' shift in range.
  const V8u shift = (V8u)k & 31u;
  const V8f t_small = (V8f)(0x3f800000u - ((V8u{} + 0x1000000u) >> shift));
  const V8f y_small = (V8f)((V8u)(t_small - (e - xr)) + k_exp);
  // 2^-k for 23 <= k <= 56.
  const V8f t_large = (V8f)((V8u)(0x7f - k) << 23);
  const V8f y_large = (V8f)((V8u)((xr - (e + t_large)) + one) + k_exp);
  V8f em1 = k < 23 ? y_small : y_large;
  em1 = (k <= -2) | (k > 56) ? y_far : em1;
  em1 = k == 1 ? y_kp1 : em1;
  em1 = k == -1 ? y_km1 : em1;
  em1 = k == 0 ? y_k0 : em1;
  em1 = hx < 0x33000000u ? arg : em1;  // |arg| < 2^-25: arg itself

  const V8f q = (ge_one ? zero + 2.0f : zero - em1) / (em1 + 2.0f);
  V8f z = ge_one ? one - q : q;
  z = ix >= 0x41b00000u ? one : z;  // |x| >= 22 and +-inf: 1 - tiny
  V8f y = (V8f)((V8u)z ^ sign);
  y = ix < 0x24000000u ? x : y;      // |x| < 2^-55: x * (1 + x) == x
  y = ix > 0x7f800000u ? x + x : y;  // NaN: quieted, payload kept
  std::memcpy(p, &y, sizeof(y));
}

}  // namespace

void TanhInPlace(float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) Tanh8(x + i);
  if (i < n) {
    float tail[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    const size_t bytes = static_cast<size_t>(n - i) * sizeof(float);
    std::memcpy(tail, x + i, bytes);
    Tanh8(tail);
    std::memcpy(x + i, tail, bytes);
  }
}

}  // namespace tensor
}  // namespace graphrare
