// The shared CNN feature extractor of Fig. 1: three 3x3 convolutions with
// layer normalization after each, followed by a fully connected layer
// producing the 1-D state feature phi(s_t). Used by the PPO actor-critic
// and by the DQN baseline's Q-network.
#ifndef CEWS_AGENTS_CNN_TRUNK_H_
#define CEWS_AGENTS_CNN_TRUNK_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/conv.h"
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

/// The trunk's conv stack, declared once: one stage per conv, each a 3x3
/// conv with padding 1 (strides 1, 2, 2) followed by LayerNorm + ReLU over
/// its whole output, as geometry over a batch of `n` images. A stage's
/// parameters are the conv's weight and bias, then the LayerNorm's gamma
/// and beta. CnnTrunk builds, runs and lists its blocks from this list; the
/// int8 forward (agents/quant_policy.h) runs its stages and walks its
/// bundle by it.
std::vector<nn::conv::Plan> TrunkStages(const CnnTrunkConfig& config,
                                        nn::Index n);

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
  /// One TrunkStages stage: the conv and the LayerNorm + ReLU after it.
  struct Block {
    std::unique_ptr<nn::Conv2dLayer> conv;
    std::unique_ptr<nn::LayerNormRelu> norm;
  };

  CnnTrunkConfig config_;
  std::vector<Block> blocks_;
  std::unique_ptr<nn::Linear> fc_;
  nn::Index flat_after_conv_ = 0;
};

}  // namespace cews::agents

#endif  // CEWS_AGENTS_CNN_TRUNK_H_
