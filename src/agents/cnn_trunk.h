// The shared CNN feature extractor of Fig. 1: three 3x3 convolutions with
// layer normalization after each, followed by a fully connected layer
// producing the 1-D state feature phi(s_t). Used by the PPO actor-critic
// and by the DQN baseline's Q-network.
#ifndef CEWS_AGENTS_CNN_TRUNK_H_
#define CEWS_AGENTS_CNN_TRUNK_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/module.h"

namespace cews::agents {

/// Trunk architecture knobs.
struct CnnTrunkConfig {
  int in_channels = 3;
  int grid = 20;
  int conv1_channels = 8;
  int conv2_channels = 16;
  int conv3_channels = 16;
  int feature_dim = 256;
};

/// conv3x3(s1)-LN-ReLU -> conv3x3(s2)-LN-ReLU -> conv3x3(s2)-LN-ReLU ->
/// flatten -> FC -> ReLU.
class CnnTrunk : public nn::Module {
 public:
  CnnTrunk(const CnnTrunkConfig& config, cews::Rng& rng);

  /// x: [N, in_channels, grid, grid] -> [N, feature_dim]. With `rows`, x
  /// holds the distinct states of a batch that repeats some: every layer
  /// runs on them, and so does the result hold them (nn/ops.h "RowMap").
  nn::Tensor Forward(const nn::Tensor& x, nn::RowMapPtr rows = nullptr) const;

  std::vector<nn::Tensor> Parameters() const override;

  const CnnTrunkConfig& config() const { return config_; }

 private:
  CnnTrunkConfig config_;
  std::unique_ptr<nn::Conv2dLayer> conv1_, conv2_, conv3_;
  std::unique_ptr<nn::LayerNormRelu> ln1_, ln2_, ln3_;
  std::unique_ptr<nn::Linear> fc_;
  nn::Index flat_after_conv_ = 0;
};

}  // namespace cews::agents

#endif  // CEWS_AGENTS_CNN_TRUNK_H_
