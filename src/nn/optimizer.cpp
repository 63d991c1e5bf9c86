#include "nn/optimizer.hpp"

#include <cmath>

namespace magic::nn {

Optimizer::Optimizer(std::vector<Parameter*> params, double lr, double weight_decay)
    : params_(std::move(params)), lr_(lr), weight_decay_(weight_decay) {}

void Optimizer::zero_grad() {
  for (Parameter* p : params_) p->zero_grad();
}

Sgd::Sgd(std::vector<Parameter*> params, double lr, double momentum,
         double weight_decay)
    : Optimizer(std::move(params), lr, weight_decay), momentum_(momentum) {
  velocity_.reserve(params_.size());
  for (Parameter* p : params_) velocity_.push_back(Tensor::zeros(p->value.shape()));
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    for (std::size_t j = 0; j < p.value.size(); ++j) {
      const double g = p.grad[j] + weight_decay_ * p.value[j];
      if (momentum_ != 0.0) {
        velocity_[i][j] = momentum_ * velocity_[i][j] + g;
        p.value[j] -= lr_ * velocity_[i][j];
      } else {
        p.value[j] -= lr_ * g;
      }
    }
  }
}

Adam::Adam(std::vector<Parameter*> params, double lr, double beta1, double beta2,
           double eps, double weight_decay)
    : Optimizer(std::move(params), lr, weight_decay),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.push_back(Tensor::zeros(p->value.shape()));
    v_.push_back(Tensor::zeros(p->value.shape()));
  }
}

void Adam::step() {
  begin_step();
  for (std::size_t i = 0; i < params_.size(); ++i) {
    step_range(i, 0, params_[i]->value.size());
  }
}

void Adam::begin_step() {
  ++t_;
  bias_correction1_ = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  bias_correction2_ = 1.0 - std::pow(beta2_, static_cast<double>(t_));
}

void Adam::step_range(std::size_t param, std::size_t lo, std::size_t hi) {
  Parameter& p = *params_[param];
  Tensor& m = m_[param];
  Tensor& v = v_[param];
  for (std::size_t j = lo; j < hi; ++j) {
    const double g = p.grad[j] + weight_decay_ * p.value[j];
    m[j] = beta1_ * m[j] + (1.0 - beta1_) * g;
    v[j] = beta2_ * v[j] + (1.0 - beta2_) * g * g;
    const double mhat = m[j] / bias_correction1_;
    const double vhat = v[j] / bias_correction2_;
    p.value[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
  }
}

ReduceLrOnPlateau::ReduceLrOnPlateau(Optimizer& opt, std::size_t patience,
                                     double factor, double min_lr)
    : opt_(&opt), patience_(patience), factor_(factor), min_lr_(min_lr) {}

bool ReduceLrOnPlateau::observe(double validation_loss) {
  bool reduced = false;
  if (has_last_ && validation_loss > last_loss_) {
    if (++consecutive_increases_ >= patience_) {
      const double new_lr = opt_->lr() * factor_;
      if (new_lr >= min_lr_) {
        opt_->set_lr(new_lr);
        reduced = true;
      }
      consecutive_increases_ = 0;
    }
  } else {
    consecutive_increases_ = 0;
  }
  last_loss_ = validation_loss;
  has_last_ = true;
  return reduced;
}

}  // namespace magic::nn
