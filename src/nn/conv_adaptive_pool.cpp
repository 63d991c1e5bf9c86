#include "nn/conv_adaptive_pool.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "nn/init.hpp"
#include "nn/mul_add.hpp"
#include "nn/shape_contract.hpp"

namespace magic::nn {
namespace {

constexpr std::size_t kTaps = 9;  // 3 x 3 kernel, one input channel
constexpr std::size_t kNoGrad = std::numeric_limits<std::size_t>::max();

// AdaptiveMaxPool2D's window rule, clamps included:
// [floor(i*in/out), ceil((i+1)*in/out)), never empty.
void window(std::size_t i, std::size_t in, std::size_t out, std::size_t& lo,
            std::size_t& hi) noexcept {
  lo = (i * in) / out;
  hi = ((i + 1) * in + out - 1) / out;
  if (lo >= in) lo = in - 1;
  if (hi <= lo) hi = lo + 1;
}

// One output row of one channel: out[x] = b + the in-bounds taps
// w[ky*3+kx] * row_ky[x+kx-1] added in (ky, kx) order through mul_add —
// Conv2D's per-element order, so the sums are bit-identical to it.
// kUp/kDown say whether the rows above and below exist (border rows get
// their own instantiation); the first and last columns drop kx = 0 and
// kx = 2, which fall into the zero padding.
template <bool kUp, bool kDown>
void conv_row(const double* up, const double* mid, const double* down,
              const double* w, double b, std::size_t W, double* out) {
  const double w0 = w[0], w1 = w[1], w2 = w[2], w3 = w[3], w4 = w[4],
               w5 = w[5], w6 = w[6], w7 = w[7], w8 = w[8];
  if (W == 1) {
    double acc = b;
    if (kUp) acc = mul_add(w1, up[0], acc);
    acc = mul_add(w4, mid[0], acc);
    if (kDown) acc = mul_add(w7, down[0], acc);
    out[0] = acc;
    return;
  }
  {
    double acc = b;
    if (kUp) {
      acc = mul_add(w1, up[0], acc);
      acc = mul_add(w2, up[1], acc);
    }
    acc = mul_add(w4, mid[0], acc);
    acc = mul_add(w5, mid[1], acc);
    if (kDown) {
      acc = mul_add(w7, down[0], acc);
      acc = mul_add(w8, down[1], acc);
    }
    out[0] = acc;
  }
  for (std::size_t x = 1; x + 1 < W; ++x) {
    double acc = b;
    if (kUp) {
      acc = mul_add(w0, up[x - 1], acc);
      acc = mul_add(w1, up[x], acc);
      acc = mul_add(w2, up[x + 1], acc);
    }
    acc = mul_add(w3, mid[x - 1], acc);
    acc = mul_add(w4, mid[x], acc);
    acc = mul_add(w5, mid[x + 1], acc);
    if (kDown) {
      acc = mul_add(w6, down[x - 1], acc);
      acc = mul_add(w7, down[x], acc);
      acc = mul_add(w8, down[x + 1], acc);
    }
    out[x] = acc;
  }
  {
    const std::size_t x = W - 1;
    double acc = b;
    if (kUp) {
      acc = mul_add(w0, up[x - 1], acc);
      acc = mul_add(w1, up[x], acc);
    }
    acc = mul_add(w3, mid[x - 1], acc);
    acc = mul_add(w4, mid[x], acc);
    if (kDown) {
      acc = mul_add(w6, down[x - 1], acc);
      acc = mul_add(w7, down[x], acc);
    }
    out[x] = acc;
  }
}

// Folds one convolved row into the column-wise maxima of a row window:
// top[x] is the largest value column x has held so far and, with kRows,
// top_row[x] the first row that held it (strict `>`, so a later equal value
// does not move it). The row index is blended through a bit mask: written
// as `higher ? y : r`, GCC emits a branch around masked stores, which made
// this loop three times slower.
template <bool kRows>
void fold_row(const double* conv, std::size_t W, std::size_t y, double* top,
              std::size_t* top_row) noexcept {
  for (std::size_t x = 0; x < W; ++x) {
    const double v = conv[x], t = top[x];
    const bool higher = v > t;
    top[x] = higher ? v : t;
    if constexpr (kRows) {
      const std::size_t mask = std::size_t{0} - static_cast<std::size_t>(higher);
      top_row[x] = (y & mask) | (top_row[x] & ~mask);
    }
  }
}

}  // namespace

ConvAdaptiveMaxPool::ConvAdaptiveMaxPool(std::size_t channels, std::size_t grid,
                                         util::Rng& rng)
    : channels_(channels),
      grid_(grid),
      weight_("conv2d.weight",
              xavier_uniform({channels, 1, 3, 3}, kTaps, channels * kTaps, rng)),
      bias_("conv2d.bias", Tensor::zeros({channels})) {
  if (channels == 0 || grid == 0) {
    throw std::invalid_argument(
        "ConvAdaptiveMaxPool: channels and grid must be positive");
  }
}

Tensor ConvAdaptiveMaxPool::forward(const Tensor& input) {
  MAGIC_SHAPE_CONTRACT("ConvAdaptiveMaxPool::forward", input,
                       shape::at_least("H", 1), shape::at_least("W", 1));
  if (input.rank() != 2 || input.dim(0) == 0 || input.dim(1) == 0) {
    throw std::invalid_argument(
        "ConvAdaptiveMaxPool::forward: expected a non-empty (H x W) map, got " +
        input.describe());
  }
  const std::size_t H = input.dim(0), W = input.dim(1);
  Tensor out({channels_, grid_, grid_});
  cache_valid_ = grad_enabled();
  if (cache_valid_) {
    cached_input_ = input;
    argmax_.assign(out.size(), kNoGrad);
    pool_core(input.data(), H, W, out.data(), argmax_.data());
  } else {
    pool_core(input.data(), H, W, out.data(), nullptr);
  }
  return out;
}

void ConvAdaptiveMaxPool::pool_into(const double* rows, std::size_t H,
                                    std::size_t W, double* out) const {
  if (H == 0 || W == 0) {
    throw std::invalid_argument("ConvAdaptiveMaxPool::pool_into: empty map");
  }
  pool_core(rows, H, W, out, nullptr);
}

void ConvAdaptiveMaxPool::pool_core(const double* rows, std::size_t H,
                                    std::size_t W, double* out,
                                    std::size_t* argmax) const {
  const std::size_t f = channels_, g = grid_;
  std::vector<std::size_t> x_lo(g), x_hi(g), y_lo(g), y_hi(g);
  for (std::size_t i = 0; i < g; ++i) {
    window(i, W, g, x_lo[i], x_hi[i]);
    window(i, H, g, y_lo[i], y_hi[i]);
  }
  // Window bounds never decrease with i, so the row windows holding row y
  // are the range [live_lo[y], live_hi[y]).
  std::vector<std::size_t> live_lo(H, g), live_hi(H, 0);
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t y = y_lo[i]; y < y_hi[i]; ++y) {
      live_lo[y] = std::min(live_lo[y], i);
      live_hi[y] = i + 1;
    }
  }
  std::vector<double> conv(W);
  std::vector<double> top(g * W);  // column-wise maxima, one row per row window
  std::vector<std::size_t> top_row(argmax ? g * W : 0);
  const double* w = weight_.value.data();

  for (std::size_t oc = 0; oc < f; ++oc) {
    const double* wk = w + oc * kTaps;
    const double b = bias_.value[oc];
    std::fill(top.begin(), top.end(), -std::numeric_limits<double>::infinity());
    for (std::size_t y = 0; y < H; ++y) {
      const double* up = y > 0 ? rows + (y - 1) * W : nullptr;
      const double* mid = rows + y * W;
      const double* down = y + 1 < H ? rows + (y + 1) * W : nullptr;
      if (up && down) {
        conv_row<true, true>(up, mid, down, wk, b, W, conv.data());
      } else if (up) {
        conv_row<true, false>(up, mid, down, wk, b, W, conv.data());
      } else if (down) {
        conv_row<false, true>(up, mid, down, wk, b, W, conv.data());
      } else {
        conv_row<false, false>(up, mid, down, wk, b, W, conv.data());
      }
      for (std::size_t i = live_lo[y]; i < live_hi[y]; ++i) {
        if (argmax) {
          fold_row<true>(conv.data(), W, y, &top[i * W], &top_row[i * W]);
        } else {
          fold_row<false>(conv.data(), W, y, &top[i * W], nullptr);
        }
      }
    }
    // A cell's value is the largest column maximum over its column window.
    // AdaptiveMaxPool2D keeps the first maximum in (y, x) order: among the
    // columns reaching it, the one with the smallest (first row, x).
    for (std::size_t i = 0; i < g; ++i) {
      for (std::size_t j = 0; j < g; ++j) {
        double best = -std::numeric_limits<double>::infinity();
        std::size_t best_y = 0, best_x = 0;
        for (std::size_t x = x_lo[j]; x < x_hi[j]; ++x) {
          const double v = top[i * W + x];
          if (v > best || (argmax && v == best && top_row[i * W + x] < best_y)) {
            best = v;
            best_y = argmax ? top_row[i * W + x] : 0;
            best_x = x;
          }
        }
        // relu(max) = max(relu): a positive maximum passes unchanged; a
        // window with no positive value pools to 0 and passes no gradient.
        const std::size_t cell = (oc * g + i) * g + j;
        const bool live = best > 0.0;
        out[cell] = live ? best : 0.0;
        if (argmax) argmax[cell] = live ? best_y * W + best_x : kNoGrad;
      }
    }
  }
}

Tensor ConvAdaptiveMaxPool::backward(const Tensor& grad_output) {
  if (!cache_valid_) {
    throw std::logic_error(
        "ConvAdaptiveMaxPool::backward: no cached forward (grad caching disabled)");
  }
  if (grad_output.size() != argmax_.size()) {
    throw std::invalid_argument("ConvAdaptiveMaxPool::backward: grad shape mismatch");
  }
  const std::size_t H = cached_input_.dim(0), W = cached_input_.dim(1);
  const std::size_t cells = grid_ * grid_;
  const double* in = cached_input_.data();
  Tensor grad_in = Tensor::zeros(cached_input_.shape());
  double* gi = grad_in.data();
  // The dense path (pool backward -> ReLU mask -> Conv2D::backward) sees a
  // gradient map that is zero except at the cells' argmax positions. Each
  // such position carries the sum of the gradients of the cells sharing
  // it, in cell order; the convolution backward then visits positions in
  // (y, x) order for every (channel, ky, kx). Doing the same over the
  // sparse entries adds the same non-zero terms in the same order.
  std::vector<std::pair<std::size_t, double>> taps;
  taps.reserve(cells);
  for (std::size_t oc = 0; oc < channels_; ++oc) {
    taps.clear();
    for (std::size_t c = oc * cells; c < (oc + 1) * cells; ++c) {
      if (argmax_[c] != kNoGrad) taps.emplace_back(argmax_[c], grad_output[c]);
    }
    std::stable_sort(taps.begin(), taps.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    std::size_t merged = 0;
    for (std::size_t t = 0; t < taps.size(); ++t) {
      if (merged > 0 && taps[merged - 1].first == taps[t].first) {
        taps[merged - 1].second += taps[t].second;
      } else {
        taps[merged++] = taps[t];
      }
    }
    taps.resize(merged);

    double bsum = 0.0;
    for (const auto& tap : taps) bsum += tap.second;
    bias_.grad[oc] += bsum;
    for (std::size_t ky = 0; ky < 3; ++ky) {
      for (std::size_t kx = 0; kx < 3; ++kx) {
        const std::size_t widx = oc * kTaps + ky * 3 + kx;
        const double w = weight_.value[widx];
        double wgrad = 0.0;
        for (const auto& [pos, grad] : taps) {
          // Unsigned wrap-around turns the -1 offset at row/column 0 into
          // an out-of-range index.
          const std::size_t iy = pos / W + ky - 1;
          const std::size_t ix = pos % W + kx - 1;
          if (iy >= H || ix >= W) continue;
          const std::size_t src = iy * W + ix;
          wgrad += grad * in[src];
          gi[src] = mul_add(w, grad, gi[src]);
        }
        weight_.grad[widx] += wgrad;
      }
    }
  }
  return grad_in;
}

std::vector<Parameter*> ConvAdaptiveMaxPool::parameters() {
  return {&weight_, &bias_};
}

}  // namespace magic::nn
