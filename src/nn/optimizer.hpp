#pragma once
// Optimizers: SGD (with momentum) and Adam (Kingma & Ba [33]), plus the
// reduce-on-plateau learning-rate policy the paper uses in §V-B ("once the
// validation loss increases for two continuous epochs, we decrease the
// learning rate by a factor of ten").

#include <vector>

#include "nn/module.hpp"

namespace magic::nn {

/// Base optimizer over a fixed parameter list. L2 regularization
/// ("Weight L2 Regularization Factor" in Table II) is applied as decoupled
/// gradient augmentation: g += weight_decay * value.
class Optimizer {
 public:
  Optimizer(std::vector<Parameter*> params, double lr, double weight_decay);
  virtual ~Optimizer() = default;

  /// Applies one update from the accumulated gradients (does not zero them).
  virtual void step() = 0;

  void zero_grad();

  double lr() const noexcept { return lr_; }
  void set_lr(double lr) noexcept { lr_ = lr; }

 protected:
  std::vector<Parameter*> params_;
  double lr_;
  double weight_decay_;
};

/// Plain SGD with optional classical momentum.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Parameter*> params, double lr, double momentum = 0.0,
      double weight_decay = 0.0);

  void step() override;

 private:
  double momentum_;
  std::vector<Tensor> velocity_;
};

/// Adam with bias correction.
///
/// One update can also be split: begin_step() advances the step count,
/// then step_range() updates elements [lo, hi) of one parameter. Every
/// element's update reads only its own gradient, value and moments, so any
/// split, in any order or across threads, gives the same bits as step(),
/// which is begin_step() plus step_range() over every whole parameter.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Parameter*> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8, double weight_decay = 0.0);

  void step() override;

  void begin_step();
  /// Updates elements [lo, hi) of parameter `param` (an index into the
  /// constructor's list); lo == hi is a no-op.
  void step_range(std::size_t param, std::size_t lo, std::size_t hi);

 private:
  double beta1_;
  double beta2_;
  double eps_;
  std::size_t t_ = 0;
  double bias_correction1_ = 1.0;  // 1 - beta1^t, set by begin_step()
  double bias_correction2_ = 1.0;  // 1 - beta2^t
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

/// Learning-rate policy: after `patience` consecutive epochs of increasing
/// validation loss, multiplies the lr by `factor` (paper: patience=2,
/// factor=0.1).
class ReduceLrOnPlateau {
 public:
  ReduceLrOnPlateau(Optimizer& opt, std::size_t patience = 2, double factor = 0.1,
                    double min_lr = 1e-7);

  /// Reports one epoch's validation loss; returns true if the lr was reduced.
  bool observe(double validation_loss);

 private:
  Optimizer* opt_;
  std::size_t patience_;
  double factor_;
  double min_lr_;
  double last_loss_ = 0.0;
  bool has_last_ = false;
  std::size_t consecutive_increases_ = 0;
};

}  // namespace magic::nn
