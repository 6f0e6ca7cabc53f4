#include "agents/cnn_trunk.h"

#include <utility>

#include "common/check.h"
#include "nn/ops.h"

namespace cews::agents {

namespace {
/// Output side length of a 3x3 conv with the given stride and padding 1.
nn::Index ConvOut(nn::Index in, int stride) {
  return (in + 2 * 1 - 3) / stride + 1;
}
}  // namespace

CnnTrunk::CnnTrunk(const CnnTrunkConfig& config, cews::Rng& rng)
    : config_(config) {
  CEWS_CHECK_GT(config.grid, 3);
  CEWS_CHECK_GT(config.feature_dim, 0);
  conv1_ = std::make_unique<nn::Conv2dLayer>(config.in_channels,
                                             config.conv1_channels, 3,
                                             /*stride=*/1, /*padding=*/1, rng);
  conv2_ = std::make_unique<nn::Conv2dLayer>(config.conv1_channels,
                                             config.conv2_channels, 3,
                                             /*stride=*/2, /*padding=*/1, rng);
  conv3_ = std::make_unique<nn::Conv2dLayer>(config.conv2_channels,
                                             config.conv3_channels, 3,
                                             /*stride=*/2, /*padding=*/1, rng);
  const nn::Index s1 = ConvOut(config.grid, 1);
  const nn::Index s2 = ConvOut(s1, 2);
  const nn::Index s3 = ConvOut(s2, 2);
  CEWS_CHECK_GE(s3, 1);
  ln1_ = std::make_unique<nn::LayerNormRelu>(config.conv1_channels * s1 * s1);
  ln2_ = std::make_unique<nn::LayerNormRelu>(config.conv2_channels * s2 * s2);
  ln3_ = std::make_unique<nn::LayerNormRelu>(config.conv3_channels * s3 * s3);
  flat_after_conv_ = config.conv3_channels * s3 * s3;
  fc_ = std::make_unique<nn::Linear>(flat_after_conv_, config.feature_dim,
                                     rng);
}

nn::Tensor CnnTrunk::Forward(const nn::Tensor& x, nn::RowMapPtr rows) const {
  CEWS_CHECK_EQ(x.ndim(), 4);
  const nn::Index n = x.dim(0);
  nn::Tensor h = conv1_->Forward(x, rows);
  h = ln1_->Forward(h, rows);
  h = conv2_->Forward(h, rows);
  h = ln2_->Forward(h, rows);
  h = conv3_->Forward(h, rows);
  h = ln3_->Forward(h, rows);
  h = nn::Reshape(h, {n, flat_after_conv_});
  return nn::Relu(fc_->Forward(h, std::move(rows)));
}

std::vector<nn::Tensor> CnnTrunk::Parameters() const {
  std::vector<nn::Tensor> params;
  for (const nn::Module* m :
       {static_cast<const nn::Module*>(conv1_.get()),
        static_cast<const nn::Module*>(ln1_.get()),
        static_cast<const nn::Module*>(conv2_.get()),
        static_cast<const nn::Module*>(ln2_.get()),
        static_cast<const nn::Module*>(conv3_.get()),
        static_cast<const nn::Module*>(ln3_.get()),
        static_cast<const nn::Module*>(fc_.get())}) {
    for (nn::Tensor t : m->Parameters()) params.push_back(t);
  }
  return params;
}

}  // namespace cews::agents
