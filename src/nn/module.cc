#include "nn/module.h"

#include <utility>

#include "common/check.h"
#include "nn/init.h"

namespace cews::nn {

void Module::ZeroGrad() const {
  for (Tensor t : Parameters()) t.ZeroGrad();
}

Index Module::NumParameters() const {
  Index n = 0;
  for (const Tensor& t : Parameters()) n += t.numel();
  return n;
}

Linear::Linear(Index in_features, Index out_features, cews::Rng& rng,
               float gain) {
  CEWS_CHECK_GT(in_features, 0);
  CEWS_CHECK_GT(out_features, 0);
  weight_ = Tensor::Zeros({in_features, out_features}, /*requires_grad=*/true);
  XavierUniform(weight_, in_features, out_features, rng);
  if (gain != 1.0f) {
    float* p = weight_.data();
    for (Index i = 0; i < weight_.numel(); ++i) p[i] *= gain;
  }
  bias_ = Tensor::Zeros({out_features}, /*requires_grad=*/true);
}

Tensor Linear::Forward(const Tensor& x, RowMapPtr rows) const {
  return AddBias(MatMul(x, weight_, rows), bias_, rows);
}

std::vector<Tensor> Linear::Parameters() const { return {weight_, bias_}; }

Conv2dLayer::Conv2dLayer(Index in_channels, Index out_channels, int kernel,
                         int stride, int padding, cews::Rng& rng)
    : stride_(stride), padding_(padding) {
  CEWS_CHECK_GT(in_channels, 0);
  CEWS_CHECK_GT(out_channels, 0);
  CEWS_CHECK_GT(kernel, 0);
  weight_ = Tensor::Zeros({out_channels, in_channels, kernel, kernel},
                          /*requires_grad=*/true);
  HeNormal(weight_, in_channels * kernel * kernel, rng);
  bias_ = Tensor::Zeros({out_channels}, /*requires_grad=*/true);
}

Tensor Conv2dLayer::Forward(const Tensor& x, RowMapPtr rows) const {
  return Conv2d(x, weight_, bias_, stride_, padding_, std::move(rows));
}

std::vector<Tensor> Conv2dLayer::Parameters() const {
  return {weight_, bias_};
}

LayerNormRelu::LayerNormRelu(Index features) {
  CEWS_CHECK_GT(features, 0);
  gamma_ = Tensor::Full({features}, 1.0f, /*requires_grad=*/true);
  beta_ = Tensor::Zeros({features}, /*requires_grad=*/true);
}

Tensor LayerNormRelu::Forward(const Tensor& x, RowMapPtr rows) const {
  return LayerNormReluOp(x, gamma_, beta_, std::move(rows));
}

std::vector<Tensor> LayerNormRelu::Parameters() const {
  return {gamma_, beta_};
}

Embedding::Embedding(Index vocab, Index dim, cews::Rng& rng, bool trainable)
    : trainable_(trainable) {
  CEWS_CHECK_GT(vocab, 0);
  CEWS_CHECK_GT(dim, 0);
  table_ = Tensor::Zeros({vocab, dim}, /*requires_grad=*/trainable);
  // Rows have expected unit L2 norm so downstream losses (e.g. the spatial
  // curiosity prediction error) start at O(1) regardless of `dim`.
  GaussianInit(table_, 1.0f / std::sqrt(static_cast<float>(dim)), rng);
}

Tensor Embedding::Forward(const std::vector<Index>& ids) const {
  return EmbeddingLookup(table_, ids);
}

std::vector<Tensor> Embedding::Parameters() const {
  if (!trainable_) return {};
  return {table_};
}

Tensor Activate(const Tensor& x, Activation act) {
  switch (act) {
    case Activation::kRelu:
      return Relu(x);
    case Activation::kTanh:
      return Tanh(x);
    case Activation::kNone:
      return x;
  }
  CEWS_CHECK(false) << "unknown activation";
  return x;
}

Mlp::Mlp(const std::vector<Index>& sizes, Activation hidden_act,
         cews::Rng& rng, float output_gain)
    : hidden_act_(hidden_act) {
  CEWS_CHECK_GE(sizes.size(), 2u);
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    const bool is_output = (i + 2 == sizes.size());
    layers_.emplace_back(sizes[i], sizes[i + 1], rng,
                         is_output ? output_gain : 1.0f);
  }
}

Tensor Mlp::Forward(const Tensor& x) const {
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    if (i + 1 < layers_.size()) h = Activate(h, hidden_act_);
  }
  return h;
}

std::vector<Tensor> Mlp::Parameters() const {
  std::vector<Tensor> params;
  for (const Linear& layer : layers_) {
    for (Tensor t : layer.Parameters()) params.push_back(t);
  }
  return params;
}

}  // namespace cews::nn
