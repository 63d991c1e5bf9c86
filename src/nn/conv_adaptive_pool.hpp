#pragma once
// The AdaptiveMaxPooling pre-pool stage (§III-C) as one streaming layer:
// 3x3 Conv2D (1 -> f channels, zero padding 1) -> ReLU ->
// AdaptiveMaxPool2D(g, g), with the same result as running those three
// modules in sequence (tests/nn/conv_adaptive_pool_test.cpp pins it against
// them).
//
// forward() convolves one channel of one input row at a time into a
// row-sized buffer and folds it into per-column running maxima of the row
// windows holding that row (g x W values per channel); each cell then takes
// the largest maximum over its columns. The (f x H x W) convolution map,
// its ReLU copy and the pooling input are never materialised. ReLU is
// applied to the pooled maxima, since relu(max) = max(relu). backward()
// scatters only the <= f*g*g gradients that reach a positive maximum.
// DESIGN.md ("Fused AdaptivePooling pre-pool stage") gives the equivalence
// argument.

#include <cstddef>
#include <vector>

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace magic::nn {

/// (H x W) map -> (f x g x g). H and W are free (H >= 1, W >= 1).
class ConvAdaptiveMaxPool : public Module {
 public:
  /// Draws the weights from `rng` exactly as Conv2D(1, channels, 3, 3, 1,
  /// rng) does, under the same parameter names ("conv2d.weight" with shape
  /// (channels x 1 x 3 x 3), "conv2d.bias" with shape (channels)), so seeds
  /// and checkpoints carry over unchanged.
  ConvAdaptiveMaxPool(std::size_t channels, std::size_t grid, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  /// (f x g x g) -> (H x W); adds into the weight and bias gradients.
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "ConvAdaptiveMaxPool"; }

  /// Inference core: pools the row-major (H x W) block at `rows` into the
  /// f*g*g doubles at `out`. Caches nothing, so it is safe on a const
  /// model; predict_batch runs it on each graph's rows of the packed map.
  void pool_into(const double* rows, std::size_t H, std::size_t W,
                 double* out) const;

 private:
  /// Shared forward: pooled (post-ReLU) maxima into `out` and, when
  /// `argmax` is non-null, the flat input position y*W + x of each cell's
  /// maximum (kNoGrad for cells whose maximum is not positive).
  void pool_core(const double* rows, std::size_t H, std::size_t W, double* out,
                 std::size_t* argmax) const;

  std::size_t channels_;
  std::size_t grid_;
  Parameter weight_;  // (f x 1 x 3 x 3)
  Parameter bias_;    // (f)
  Tensor cached_input_;
  std::vector<std::size_t> argmax_;
  bool cache_valid_ = false;
};

}  // namespace magic::nn
