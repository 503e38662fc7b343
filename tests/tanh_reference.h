// Reference copy of the float tanh the library's vector kernel transcribes:
// fdlibm's tanhf and expm1f (Sun Microsystems, 1993), the code glibc ships
// as its float tanh. One float at a time, branch for branch, with no call
// into libm, so it gives the same bits on every host. The kernel test and
// bench/tanh_exhaustive compare tensor::TanhInPlace against it bit for bit.
//
// Its users compile with the project-wide -ffp-contract=off: a fused
// multiply-add anywhere in here would round differently from the fdlibm
// expression shapes.
//
// The exponent arithmetic runs on uint32_t: adding k << 23 to a float's
// bit pattern with k < 0 is a signed left shift of a negative value (UB in
// C++17) when written on int32_t.

#ifndef GRAPHRARE_TESTS_TANH_REFERENCE_H_
#define GRAPHRARE_TESTS_TANH_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace graphrare {
namespace testing_ref {

inline uint32_t FloatBits(float x) {
  uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

inline float BitsFloat(uint32_t u) {
  float x;
  std::memcpy(&x, &u, sizeof(x));
  return x;
}

/// fdlibm expm1f: exp(x) - 1.
inline float Expm1fReference(float x) {
  const float one = 1.0f;
  const float huge = 1.0e+30f;
  const float tiny = 1.0e-30f;
  const float o_threshold = BitsFloat(0x42b17180);
  const float ln2_hi = BitsFloat(0x3f317180);
  const float ln2_lo = BitsFloat(0x3717f7d1);
  const float invln2 = BitsFloat(0x3fb8aa3b);
  const float Q1 = BitsFloat(0xbd088889);
  const float Q2 = BitsFloat(0x3ad00d01);
  const float Q3 = BitsFloat(0xb8a670cd);
  const float Q4 = BitsFloat(0x36867e54);
  const float Q5 = BitsFloat(0xb457edbb);

  uint32_t hx = FloatBits(x);
  const uint32_t xsb = hx & 0x80000000u;  // sign bit of x
  hx &= 0x7fffffffu;                       // |x|

  // Huge and non-finite arguments.
  if (hx >= 0x4195b844u) {    // |x| >= 27 * ln2
    if (hx >= 0x42b17218u) {  // |x| >= 88.721...
      if (hx > 0x7f800000u) return x + x;  // NaN
      if (hx == 0x7f800000u) return xsb == 0 ? x : -1.0f;
      if (x > o_threshold) return huge * huge;  // overflow
    }
    if (xsb != 0) return tiny - one;  // x < -27 * ln2: -1
  }

  // Argument reduction.
  float hi, lo, c = 0.0f;
  int32_t k;
  if (hx > 0x3eb17218u) {    // |x| > 0.5 * ln2
    if (hx < 0x3f851592u) {  // and |x| < 1.5 * ln2
      if (xsb == 0) {
        hi = x - ln2_hi;
        lo = ln2_lo;
        k = 1;
      } else {
        hi = x + ln2_hi;
        lo = -ln2_lo;
        k = -1;
      }
    } else {
      k = static_cast<int32_t>(invln2 * x + (xsb == 0 ? 0.5f : -0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * ln2_hi;  // t * ln2_hi is exact here
      lo = t * ln2_lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: x itself
    const float t = huge + x;
    return x - (t - (huge + x));
  } else {
    k = 0;
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      one + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return one + 2.0f * (x - e);
  }
  const uint32_t k_exp = static_cast<uint32_t>(k) << 23;
  float y;
  if (k <= -2 || k > 56) {  // exp(x) - 1 suffices
    y = one - (e - x);
    if (k == 128) {
      y = y * 2.0f * BitsFloat(0x7f000000);  // 2^127
    } else {
      y = BitsFloat(FloatBits(y) + k_exp);
    }
    return y - one;
  }
  if (k < 23) {
    t = BitsFloat(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = BitsFloat(static_cast<uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += one;
  }
  return BitsFloat(FloatBits(y) + k_exp);
}

/// fdlibm tanhf.
inline float TanhfReference(float x) {
  const float one = 1.0f;
  const float two = 2.0f;
  const float tiny = 1.0e-30f;
  const uint32_t jx = FloatBits(x);
  const uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx & 0x80000000u) != 0;

  if (ix >= 0x7f800000u) {  // inf or NaN
    return negative ? one / x - one : one / x + one;
  }
  float z;
  if (ix < 0x41b00000u) {           // |x| < 22
    if (ix == 0) return x;          // +-0
    if (ix < 0x24000000u) {         // |x| < 2^-55
      return x * (one + x);
    }
    if (ix >= 0x3f800000u) {  // |x| >= 1
      const float t = Expm1fReference(two * (negative ? -x : x));
      z = one - two / (t + two);
    } else {
      const float t = Expm1fReference(-two * (negative ? -x : x));
      z = -t / (t + two);
    }
  } else {  // |x| >= 22: +-1
    z = one - tiny;
  }
  return negative ? -z : z;
}

/// Error of `y` against the exact value, in ULPs of the float nearest it
/// (2^-149 below the normal range).
inline double UlpError(float y, double exact) {
  const int exp = std::ilogb(static_cast<float>(exact));
  const double ulp = exact == 0.0
                         ? std::ldexp(1.0, -149)
                         : std::ldexp(1.0, std::max(exp, -126) - 23);
  return std::fabs(static_cast<double>(y) - exact) / ulp;
}

}  // namespace testing_ref
}  // namespace graphrare

#endif  // GRAPHRARE_TESTS_TANH_REFERENCE_H_
