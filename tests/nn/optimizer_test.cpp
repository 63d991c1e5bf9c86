#include "nn/optimizer.hpp"

#include <array>
#include <cmath>
#include <vector>

#include "test_util.hpp"

namespace magic::testing {
namespace {

// Minimizes f(w) = ||w - target||^2 with the given optimizer; returns the
// final distance to the optimum.
template <typename MakeOpt>
double optimize_quadratic(MakeOpt make_opt, std::size_t steps) {
  nn::Parameter w("w", Tensor(tensor::Shape{3}, {5.0, -4.0, 2.0}));
  const Tensor target(tensor::Shape{3}, {1.0, 2.0, -1.0});
  auto opt = make_opt(std::vector<nn::Parameter*>{&w});
  for (std::size_t s = 0; s < steps; ++s) {
    opt->zero_grad();
    for (std::size_t i = 0; i < 3; ++i) {
      w.grad[i] = 2.0 * (w.value[i] - target[i]);
    }
    opt->step();
  }
  double dist = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    dist += (w.value[i] - target[i]) * (w.value[i] - target[i]);
  }
  return std::sqrt(dist);
}

TEST(Sgd, ConvergesOnQuadratic) {
  const double d = optimize_quadratic(
      [](std::vector<nn::Parameter*> p) {
        return std::make_unique<nn::Sgd>(std::move(p), 0.1);
      },
      200);
  EXPECT_LT(d, 1e-6);
}

TEST(Sgd, MomentumConvergesOnQuadratic) {
  const double d = optimize_quadratic(
      [](std::vector<nn::Parameter*> p) {
        return std::make_unique<nn::Sgd>(std::move(p), 0.05, 0.9);
      },
      300);
  EXPECT_LT(d, 1e-6);
}

TEST(Adam, ConvergesOnQuadratic) {
  const double d = optimize_quadratic(
      [](std::vector<nn::Parameter*> p) {
        return std::make_unique<nn::Adam>(std::move(p), 0.1);
      },
      500);
  EXPECT_LT(d, 1e-4);
}

TEST(Adam, FirstStepIsLearningRateSized) {
  // With bias correction, the first Adam step has magnitude ~lr.
  nn::Parameter w("w", Tensor(tensor::Shape{1}, {0.0}));
  nn::Adam adam({&w}, 0.01);
  w.grad[0] = 123.0;  // any positive gradient
  adam.step();
  EXPECT_NEAR(w.value[0], -0.01, 1e-6);
}

TEST(Adam, SplitStepIsBitwiseEqualToStep) {
  // Two identical parameter sets: one stepped whole, one by begin_step()
  // plus step_range() over uneven pieces, some empty, taken out of order.
  util::Rng rng(17);
  const std::vector<std::size_t> sizes = {13, 1, 7};
  std::vector<nn::Parameter> whole, split;
  for (std::size_t n : sizes) {
    Tensor init(tensor::Shape{n});
    for (std::size_t j = 0; j < n; ++j) init[j] = rng.normal();
    whole.emplace_back("w", init);
    split.emplace_back("w", init);
  }
  auto pointers = [](std::vector<nn::Parameter>& params) {
    std::vector<nn::Parameter*> out;
    for (nn::Parameter& p : params) out.push_back(&p);
    return out;
  };
  nn::Adam a(pointers(whole), 0.01, 0.9, 0.999, 1e-8, /*weight_decay=*/5e-4);
  nn::Adam b(pointers(split), 0.01, 0.9, 0.999, 1e-8, /*weight_decay=*/5e-4);
  // (param, lo, hi); every element of every parameter exactly once.
  const std::vector<std::array<std::size_t, 3>> pieces = {
      {2, 4, 7}, {0, 0, 0}, {0, 9, 13}, {1, 0, 1}, {0, 0, 5},
      {2, 0, 4}, {1, 1, 1}, {0, 5, 9},  {2, 7, 7}};
  for (int step = 0; step < 6; ++step) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      for (std::size_t j = 0; j < sizes[i]; ++j) {
        const double g = rng.normal();
        whole[i].grad[j] = g;
        split[i].grad[j] = g;
      }
    }
    a.step();
    b.begin_step();
    for (const auto& [param, lo, hi] : pieces) b.step_range(param, lo, hi);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      for (std::size_t j = 0; j < sizes[i]; ++j) {
        // EXPECT_EQ on doubles: the same bits, not approximate agreement.
        EXPECT_EQ(whole[i].value[j], split[i].value[j])
            << "step " << step << " param " << i << " element " << j;
      }
    }
  }
}

TEST(Optimizer, WeightDecayPullsTowardZero) {
  nn::Parameter w("w", Tensor(tensor::Shape{1}, {10.0}));
  nn::Sgd sgd({&w}, 0.1, 0.0, /*weight_decay=*/0.5);
  for (int i = 0; i < 50; ++i) {
    sgd.zero_grad();  // zero loss gradient; only decay acts
    sgd.step();
  }
  EXPECT_LT(std::abs(w.value[0]), 1.0);
}

TEST(Optimizer, ZeroGradClearsAccumulation) {
  nn::Parameter w("w", Tensor(tensor::Shape{2}, {1.0, 1.0}));
  nn::Sgd sgd({&w}, 0.1);
  w.grad[0] = 5.0;
  sgd.zero_grad();
  EXPECT_EQ(w.grad[0], 0.0);
}

TEST(ReduceLrOnPlateau, DecaysAfterTwoConsecutiveIncreases) {
  // §V-B: "Once the validation loss increases for two continuous epochs, we
  // decrease the learning rate by a factor of ten".
  nn::Parameter w("w", Tensor(tensor::Shape{1}, {0.0}));
  nn::Adam adam({&w}, 1e-3);
  nn::ReduceLrOnPlateau sched(adam, 2, 0.1);
  EXPECT_FALSE(sched.observe(1.0));
  EXPECT_FALSE(sched.observe(0.9));   // improving
  EXPECT_FALSE(sched.observe(0.95));  // first increase
  EXPECT_TRUE(sched.observe(1.05));   // second increase -> decay
  EXPECT_NEAR(adam.lr(), 1e-4, 1e-12);
}

TEST(ReduceLrOnPlateau, ImprovementResetsCounter) {
  nn::Parameter w("w", Tensor(tensor::Shape{1}, {0.0}));
  nn::Adam adam({&w}, 1e-3);
  nn::ReduceLrOnPlateau sched(adam, 2, 0.1);
  sched.observe(1.0);
  sched.observe(1.1);   // increase #1
  sched.observe(0.5);   // improvement resets
  sched.observe(0.6);   // increase #1 again
  EXPECT_FALSE(sched.observe(0.55));  // improvement again
  EXPECT_NEAR(adam.lr(), 1e-3, 1e-12);
}

TEST(ReduceLrOnPlateau, RespectsMinLr) {
  nn::Parameter w("w", Tensor(tensor::Shape{1}, {0.0}));
  nn::Adam adam({&w}, 1e-6);
  nn::ReduceLrOnPlateau sched(adam, 1, 0.1, /*min_lr=*/1e-7);
  sched.observe(1.0);
  sched.observe(2.0);  // would decay to 1e-7 (allowed)
  EXPECT_NEAR(adam.lr(), 1e-7, 1e-15);
  sched.observe(3.0);  // further decay to 1e-8 refused
  EXPECT_NEAR(adam.lr(), 1e-7, 1e-15);
}

}  // namespace
}  // namespace magic::testing
