// First-order optimizers over a parameter list.
#ifndef CEWS_NN_OPTIMIZER_H_
#define CEWS_NN_OPTIMIZER_H_

#include <vector>

#include "nn/tensor.h"

namespace cews::nn {

/// Base optimizer: owns handles to the parameters it updates.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params);
  virtual ~Optimizer() = default;

  /// Applies one update from the currently-accumulated gradients.
  virtual void Step() = 0;

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  const std::vector<Tensor>& params() const { return params_; }

 protected:
  std::vector<Tensor> params_;
};

/// Stochastic gradient descent with optional momentum.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Tensor> params, float lr, float momentum = 0.0f);
  void Step() override;

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }

 private:
  float lr_;
  float momentum_;
  std::vector<std::vector<float>> velocity_;
};

/// Adam (Kingma & Ba), the paper's chief-side optimizer (Section VI).
/// Per element, in this order:
///   m = fmaf(beta1, m, (1 - beta1) * g)
///   v = fmaf(beta2, v, (1 - beta2) * g * g)
///   p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
/// with bc1 = 1 - beta1^t and bc2 = 1 - beta2^t; every build gives these
/// bytes (the vector lanes run the same sequence).
class Adam : public Optimizer {
 public:
  Adam(std::vector<Tensor> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);
  void Step() override;

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }

 private:
  float lr_, beta1_, beta2_, eps_;
  int64_t t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace cews::nn

#endif  // CEWS_NN_OPTIMIZER_H_
