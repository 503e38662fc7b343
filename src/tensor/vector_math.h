// Copyright 2026 The GraphRARE Authors.
//
// Transcendentals the library owns instead of calling libm per element.
// Each kernel runs sixteen lanes at a time with the generic vector idiom of
// tensor.cc / sparse.cc and is a branch-for-branch transcription of a
// known scalar routine, so its bits are specified by that routine and do
// not depend on the host's libm or on the ISA the build targets.

#ifndef GRAPHRARE_TENSOR_VECTOR_MATH_H_
#define GRAPHRARE_TENSOR_VECTOR_MATH_H_

#include <cstdint>

namespace graphrare {
namespace tensor {

/// x[i] = tanh(x[i]) for i in [0, n), bitwise fdlibm's tanhf (the float
/// tanh glibc ships): every input, including subnormals, infinities and
/// NaN payloads, maps to exactly the bits that routine returns. Serial;
/// tests/tanh_reference.h holds the scalar reference it is checked
/// against.
void TanhInPlace(float* x, int64_t n);

}  // namespace tensor
}  // namespace graphrare

#endif  // GRAPHRARE_TENSOR_VECTOR_MATH_H_
