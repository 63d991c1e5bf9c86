#pragma once
// The one multiply-accumulate the 2-D convolutions use.

#include <cmath>

namespace magic::nn {

/// c + a * b: one rounding (an FMA) where the target has the instruction,
/// two otherwise. Conv2D and ConvAdaptiveMaxPool accumulate every output
/// element through this, in the same tap order, so the fused AdaptivePooling
/// stage rounds exactly like the unfused modules; spelling the fused form
/// out also keeps the compiler from splitting a sum into separately rounded
/// vector multiplies and adds.
inline double mul_add(double a, double b, double c) noexcept {
#ifdef __FMA__
  return std::fma(a, b, c);
#else
  return c + a * b;
#endif
}

}  // namespace magic::nn
