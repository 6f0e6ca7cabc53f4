#include "agents/rnd.h"

#include "common/check.h"
#include "nn/ops.h"

namespace cews::agents {

RndCuriosity::RndCuriosity(const RndConfig& config, uint64_t seed)
    : config_(config) {
  CEWS_CHECK_GT(config_.state_size, 0);
  CEWS_CHECK_GT(config_.out_dim, 0);
  Rng rng(seed);
  target_ = std::make_unique<nn::Mlp>(
      std::vector<nn::Index>{config_.state_size, config_.hidden,
                             config_.out_dim},
      nn::Activation::kRelu, rng);
  predictor_ = std::make_unique<nn::Mlp>(
      std::vector<nn::Index>{config_.state_size, config_.hidden,
                             config_.out_dim},
      nn::Activation::kRelu, rng);
}

nn::Tensor RndCuriosity::TargetEmbedding(const nn::Tensor& x) const {
  // The target network is frozen: evaluate it without tape so its output is
  // a constant in the predictor's loss.
  nn::NoGradGuard no_grad;
  return target_->Forward(x);
}

double RndCuriosity::IntrinsicReward(const std::vector<float>& state) const {
  CEWS_CHECK_EQ(static_cast<int>(state.size()), config_.state_size);
  nn::NoGradGuard no_grad;
  const nn::Tensor x =
      nn::Tensor::FromData({1, config_.state_size}, state);
  const nn::Tensor t = target_->Forward(x);
  const nn::Tensor p = predictor_->Forward(x);
  double loss = 0.0;
  for (int i = 0; i < config_.out_dim; ++i) {
    const double d = static_cast<double>(p.data()[i]) - t.data()[i];
    loss += d * d;
  }
  // Per-dimension normalization, as in the spatial curiosity model.
  return config_.eta * loss / config_.out_dim;
}

double RndCuriosity::IntrinsicReward(const float* state) const {
  return IntrinsicReward(
      std::vector<float>(state, state + config_.state_size));
}

nn::Tensor RndCuriosity::Loss(const MiniBatch& batch) const {
  CEWS_CHECK_GT(batch.batch, 0) << "RND Loss on an empty minibatch";
  CEWS_CHECK_EQ(batch.state_size, config_.state_size);
  const nn::Index b = batch.batch;

  // The packed state block is already the [B, state_size] tensor layout.
  const nn::Tensor x =
      nn::Tensor::FromData({b, config_.state_size}, batch.states);
  const nn::Tensor target = TargetEmbedding(x);
  const nn::Tensor pred = predictor_->Forward(x);
  return nn::MulScalar(
      nn::Mean(nn::SumLastDim(nn::Square(nn::Sub(pred, target)))),
      1.0f / static_cast<float>(config_.out_dim));
}

nn::Tensor RndCuriosity::Loss(
    const std::vector<const std::vector<float>*>& states) const {
  CEWS_CHECK(!states.empty());
  const nn::Index b = static_cast<nn::Index>(states.size());
  std::vector<float> batch(static_cast<size_t>(b * config_.state_size));
  for (nn::Index i = 0; i < b; ++i) {
    const std::vector<float>& s = *states[static_cast<size_t>(i)];
    CEWS_CHECK_EQ(static_cast<int>(s.size()), config_.state_size);
    std::copy(s.begin(), s.end(), batch.begin() + i * config_.state_size);
  }
  const nn::Tensor x =
      nn::Tensor::FromData({b, config_.state_size}, std::move(batch));
  const nn::Tensor target = TargetEmbedding(x);
  const nn::Tensor pred = predictor_->Forward(x);
  return nn::MulScalar(
      nn::Mean(nn::SumLastDim(nn::Square(nn::Sub(pred, target)))),
      1.0f / static_cast<float>(config_.out_dim));
}

std::vector<nn::Tensor> RndCuriosity::Parameters() const {
  return predictor_->Parameters();
}

}  // namespace cews::agents
