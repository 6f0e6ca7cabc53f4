#include "agents/cnn_trunk.h"

#include <utility>

#include "common/check.h"
#include "nn/ops.h"

namespace cews::agents {

std::vector<nn::conv::Plan> TrunkStages(const CnnTrunkConfig& config,
                                        nn::Index n) {
  constexpr int kKernel = 3;
  constexpr int kPadding = 1;
  const std::pair<int, int> convs[] = {  // (output channels, stride)
      {config.conv1_channels, 1},
      {config.conv2_channels, 2},
      {config.conv3_channels, 2}};
  std::vector<nn::conv::Plan> stages;
  nn::Index c = config.in_channels, side = config.grid;
  for (const auto& [channels, stride] : convs) {
    const nn::conv::Plan& stage = stages.emplace_back(
        n, c, side, side, channels, kKernel, kKernel, stride, kPadding);
    c = stage.oc;
    side = stage.oh;
  }
  return stages;
}

CnnTrunk::CnnTrunk(const CnnTrunkConfig& config, cews::Rng& rng)
    : config_(config) {
  CEWS_CHECK_GT(config.grid, 3);
  CEWS_CHECK_GT(config.feature_dim, 0);
  for (const nn::conv::Plan& stage : TrunkStages(config, 1)) {
    CEWS_CHECK_GE(stage.oh, 1);
    flat_after_conv_ = stage.oc * stage.ohow();
    blocks_.push_back(
        {std::make_unique<nn::Conv2dLayer>(stage.c, stage.oc, stage.kh,
                                           stage.stride, stage.padding, rng),
         std::make_unique<nn::LayerNormRelu>(flat_after_conv_)});
  }
  fc_ = std::make_unique<nn::Linear>(flat_after_conv_, config.feature_dim,
                                     rng);
}

nn::Tensor CnnTrunk::Forward(const nn::Tensor& x, nn::RowMapPtr rows) const {
  CEWS_CHECK_EQ(x.ndim(), 4);
  nn::Tensor h = x;
  for (const Block& block : blocks_) {
    h = block.norm->Forward(block.conv->Forward(h, rows), rows);
  }
  h = nn::Reshape(h, {x.dim(0), flat_after_conv_});
  return nn::Relu(fc_->Forward(h, std::move(rows)));
}

std::vector<nn::Tensor> CnnTrunk::Parameters() const {
  std::vector<nn::Tensor> params;
  const auto add = [&params](const nn::Module& m) {
    for (nn::Tensor t : m.Parameters()) params.push_back(t);
  };
  for (const Block& block : blocks_) {
    add(*block.conv);
    add(*block.norm);
  }
  add(*fc_);
  return params;
}

}  // namespace cews::agents
