// Oracle suite for the fused AdaptivePooling pre-pool stage: every case runs
// nn::ConvAdaptiveMaxPool next to the three modules it replaces —
// Conv2D(1, f, 3, 3, 1) -> ReLU -> AdaptiveMaxPool2D(g, g) with the same
// weights — and compares the pooled output, the input gradient and the
// weight and bias gradients element by element.

#include "nn/conv_adaptive_pool.hpp"

#include <cmath>
#include <cstddef>
#include <functional>
#include <string>

#include "nn/activations.hpp"
#include "nn/adaptive_max_pool.hpp"
#include "nn/conv2d.hpp"
#include "test_util.hpp"

namespace magic::testing {
namespace {

constexpr std::size_t kChannels = 16;

/// Every element within 1e-12 relative error of the reference; with
/// `bitwise`, also bit-identical to it (the summation orders match).
void expect_same(const Tensor& got, const Tensor& want, const std::string& what,
                 bool bitwise = true) {
  ASSERT_EQ(got.size(), want.size()) << what;
  std::size_t inexact = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i] == want[i]) continue;
    ++inexact;
    EXPECT_LE(std::abs(got[i] - want[i]), 1e-12 * std::abs(want[i]))
        << what << " element " << i << ": " << got[i] << " vs " << want[i];
  }
  if (bitwise) {
    EXPECT_EQ(inexact, 0u) << what << ": elements not bit-identical";
  }
}

/// The fused layer and its three-module reference, initialised from the
/// same seed, so with the same weights.
struct Pair {
  Pair(std::size_t g, std::uint64_t seed)
      : fused_rng(seed), ref_rng(seed), fused(kChannels, g, fused_rng),
        conv(1, kChannels, 3, 3, 1, ref_rng), pool(g, g) {}

  /// Applies `edit` to the fused and the reference parameters alike.
  void edit_params(const std::function<void(nn::Parameter&, nn::Parameter&)>& edit) {
    edit(*fused.parameters()[0], *fused.parameters()[1]);
    edit(*conv.parameters()[0], *conv.parameters()[1]);
  }

  /// Forward + backward through both; compares everything.
  void check(const Tensor& x, util::Rng& rng, const std::string& what) {
    const std::size_t n = x.dim(0), c = x.dim(1);
    fused.zero_grad();
    conv.zero_grad();
    const Tensor want = pool.forward(relu.forward(conv.forward(x.reshape({1, n, c}))));
    const Tensor got = fused.forward(x);
    expect_same(got, want, what + " pooled");

    const Tensor grad_out = Tensor::uniform(want.shape(), rng, -1.0, 1.0);
    const Tensor want_gi =
        conv.backward(relu.backward(pool.backward(grad_out))).reshape({n, c});
    const Tensor got_gi = fused.backward(grad_out);
    expect_same(got_gi, want_gi, what + " input grad");
    // Conv2D::backward's weight-gradient sum is a reduction the compiler
    // may vectorise in order (products rounded before each add) in the
    // main loop and fuse in the scalar tail, so where its roundings fall
    // depends on the loop split; the fused sum is held to the 1e-12 floor.
    expect_same(fused.parameters()[0]->grad, conv.parameters()[0]->grad,
                what + " weight grad", /*bitwise=*/false);
    expect_same(fused.parameters()[1]->grad, conv.parameters()[1]->grad,
                what + " bias grad");
  }

  util::Rng fused_rng;
  util::Rng ref_rng;
  nn::ConvAdaptiveMaxPool fused;
  nn::Conv2D conv;
  nn::ReLU relu;
  nn::AdaptiveMaxPool2D pool;
};

std::string label(std::size_t n, std::size_t c, std::size_t g) {
  return "n=" + std::to_string(n) + " C=" + std::to_string(c) +
         " g=" + std::to_string(g);
}

TEST(ConvAdaptiveMaxPool, ParametersMatchConv2DLayoutAndDraws) {
  util::Rng a(11), b(11);
  nn::ConvAdaptiveMaxPool fused(kChannels, 3, a);
  nn::Conv2D conv(1, kChannels, 3, 3, 1, b);
  const auto fp = fused.parameters();
  const auto cp = conv.parameters();
  ASSERT_EQ(fp.size(), cp.size());
  for (std::size_t i = 0; i < fp.size(); ++i) {
    EXPECT_EQ(fp[i]->name, cp[i]->name);
    EXPECT_EQ(fp[i]->value.shape(), cp[i]->value.shape());
    expect_same(fp[i]->value, cp[i]->value, fp[i]->name);
  }
  // Both consumed the same number of draws.
  EXPECT_EQ(a.next(), b.next());
}

TEST(ConvAdaptiveMaxPool, MatchesReferenceOnRandomMaps) {
  util::Rng data(21);
  for (std::size_t n : {1u, 2u, 3u, 5u, 46u, 129u}) {
    for (std::size_t c : {128u, 256u}) {
      for (std::size_t g : {3u, 6u}) {
        Pair pair(g, 100 + n + c + g);
        // Non-zero biases so windows mix signs in every channel.
        pair.edit_params([](nn::Parameter&, nn::Parameter& bias) {
          for (std::size_t oc = 0; oc < bias.value.size(); ++oc) {
            bias.value[oc] = 0.05 * (static_cast<double>(oc % 5) - 2.0);
          }
        });
        pair.check(Tensor::uniform({n, c}, data, -1.0, 1.0), data, label(n, c, g));
      }
    }
  }
}

TEST(ConvAdaptiveMaxPool, NonPositiveWindowsPoolToZeroWithoutGradient) {
  util::Rng data(22);
  for (std::size_t n : {1u, 5u, 46u}) {
    Pair pair(6, 200 + n);
    // Every other channel is pushed far below zero: each of its windows
    // holds only negative values.
    pair.edit_params([](nn::Parameter&, nn::Parameter& bias) {
      for (std::size_t oc = 0; oc < bias.value.size(); oc += 2) bias.value[oc] = -50.0;
    });
    pair.check(Tensor::uniform({n, 128}, data, -1.0, 1.0), data,
               "negative channels " + label(n, 128, 6));
    for (std::size_t oc = 0; oc < kChannels; oc += 2) {
      EXPECT_EQ(pair.fused.parameters()[1]->grad[oc], 0.0);
    }
  }
  // An all-zero map with zero bias: every value is exactly 0, so every
  // window is non-positive and every gradient vanishes.
  Pair pair(3, 230);
  pair.edit_params([](nn::Parameter&, nn::Parameter& bias) { bias.value.fill(0.0); });
  pair.check(Tensor::zeros({7, 128}), data, "all-zero map");
}

TEST(ConvAdaptiveMaxPool, ExactTiesKeepTheFirstPosition) {
  util::Rng data(23);
  // A constant map makes every interior convolution output of a channel
  // bit-identical, so each window's maximum is tied across many positions.
  for (std::size_t n : {3u, 5u, 46u}) {
    for (std::size_t g : {3u, 6u}) {
      Pair pair(g, 300 + n + g);
      Tensor x({n, 256});
      x.fill(0.5);
      pair.check(x, data, "constant map " + label(n, 256, g));
    }
  }
  // Ties between whole rows: every row equal, columns varied.
  Pair pair(3, 330);
  Tensor row = Tensor::uniform({1, 128}, data, -1.0, 1.0);
  Tensor x({9, 128});
  for (std::size_t y = 0; y < 9; ++y) {
    for (std::size_t col = 0; col < 128; ++col) x[y * 128 + col] = row[col];
  }
  pair.check(x, data, "repeated rows");
}

TEST(ConvAdaptiveMaxPool, CellsSharingOneArgmaxAccumulateInOrder) {
  util::Rng data(24);
  // Positive weights with the largest at the kernel centre and a zero map
  // with one spike: the spike's own position is the maximum of every window
  // that contains it. Column 42 lies in two of the three windows over 128
  // columns ([0, 43) and [42, 86)); with n = 1 all three row windows share
  // row 0 (six cells, one argmax), with n = 46 row 15 lies in two.
  for (std::size_t n : {1u, 2u, 46u}) {
    Pair pair(3, 400 + n);
    pair.edit_params([](nn::Parameter& weight, nn::Parameter& bias) {
      for (std::size_t i = 0; i < weight.value.size(); ++i) {
        weight.value[i] = i % 9 == 4 ? 2.0 : 0.25 + 0.01 * static_cast<double>(i % 9);
      }
      bias.value.fill(0.0);
    });
    Tensor x = Tensor::zeros({n, 128});
    x[(n == 46 ? 15 : 0) * 128 + 42] = 3.0;
    pair.check(x, data, "spike " + label(n, 128, 3));
  }
}

TEST(ConvAdaptiveMaxPool, GradientsMatchNumeric) {
  util::Rng rng(25);
  util::Rng init(26);
  nn::ConvAdaptiveMaxPool fused(3, 3, init);
  check_module_gradients(fused, Tensor::uniform({5, 7}, rng, -1.0, 1.0), rng);
}

TEST(ConvAdaptiveMaxPool, PoolIntoMatchesForwardAndCachesNothing) {
  util::Rng init(27);
  util::Rng data(28);
  nn::ConvAdaptiveMaxPool fused(kChannels, 6, init);
  const Tensor x = Tensor::uniform({23, 96}, data, -1.0, 1.0);
  const Tensor want = fused.forward(x);
  Tensor got({kChannels, 6, 6});
  fused.pool_into(x.data(), 23, 96, got.data());
  expect_same(got, want, "pool_into");

  fused.set_grad_enabled(false);
  expect_same(fused.forward(x), want, "eval forward");
  EXPECT_THROW(fused.backward(want), std::logic_error);
}

TEST(ConvAdaptiveMaxPool, RejectsBadShapes) {
  util::Rng init(29);
  EXPECT_THROW(nn::ConvAdaptiveMaxPool(0, 3, init), std::invalid_argument);
  EXPECT_THROW(nn::ConvAdaptiveMaxPool(4, 0, init), std::invalid_argument);
  nn::ConvAdaptiveMaxPool fused(4, 3, init);
  EXPECT_ANY_THROW(fused.forward(Tensor::zeros({1, 4, 4})));
  EXPECT_ANY_THROW(fused.forward(Tensor::zeros({0, 4})));
  fused.forward(Tensor::zeros({4, 4}));
  EXPECT_THROW(fused.backward(Tensor::zeros({4, 2, 2})), std::invalid_argument);
}

}  // namespace
}  // namespace magic::testing
