// The paper's actor-critic DNN (Fig. 1, Section V-B): the shared CNN trunk
// (cnn_trunk.h) plus a policy head producing per-worker route-planning and
// charging distributions, and a value head.
#ifndef CEWS_AGENTS_POLICY_NET_H_
#define CEWS_AGENTS_POLICY_NET_H_

#include <memory>
#include <vector>

#include "agents/cnn_trunk.h"
#include "common/rng.h"
#include "nn/module.h"

namespace cews::agents {

/// Architecture hyperparameters.
struct PolicyNetConfig {
  /// Input channels (the 3-channel state of Section V).
  int in_channels = 3;
  /// Input grid side length.
  int grid = 20;
  /// Number of workers W the centralized controller commands.
  int num_workers = 2;
  /// Number of discrete route-planning options per worker.
  int num_moves = 17;
  /// Channels of the three conv layers.
  int conv1_channels = 8;
  int conv2_channels = 16;
  int conv3_channels = 16;
  /// Width of the 1-D state feature phi(s_t).
  int feature_dim = 256;

  /// The trunk slice of this config.
  CnnTrunkConfig TrunkConfig() const {
    CnnTrunkConfig trunk;
    trunk.in_channels = in_channels;
    trunk.grid = grid;
    trunk.conv1_channels = conv1_channels;
    trunk.conv2_channels = conv2_channels;
    trunk.conv3_channels = conv3_channels;
    trunk.feature_dim = feature_dim;
    return trunk;
  }
};

/// One forward pass worth of outputs.
struct PolicyOutput {
  /// Route-planning logits, [N, W, num_moves].
  nn::Tensor move_logits;
  /// Charging-decision logits, [N, W, 2] (index 1 = charge).
  nn::Tensor charge_logits;
  /// State value V(phi(s_t)), [N].
  nn::Tensor value;
  /// The shared 1-D feature phi(s_t), [N, feature_dim]; under a row map,
  /// one row per distinct state (Forward).
  nn::Tensor feature;
};

/// CNN trunk + three linear heads (per-worker moves, per-worker charging,
/// state value).
class PolicyNet : public nn::Module {
 public:
  PolicyNet(const PolicyNetConfig& config, cews::Rng& rng);

  /// x: [N, in_channels, grid, grid].
  ///
  /// With `rows`, x holds the distinct states of a batch that repeats some:
  /// the trunk and heads run on them, the logits and value have
  /// rows->logical() rows (nn::ExpandRows at the head outputs) and
  /// `feature` keeps the distinct rows.
  PolicyOutput Forward(const nn::Tensor& x,
                       nn::RowMapPtr rows = nullptr) const;

  std::vector<nn::Tensor> Parameters() const override;

  const PolicyNetConfig& config() const { return config_; }

 private:
  PolicyNetConfig config_;
  std::unique_ptr<CnnTrunk> trunk_;
  std::unique_ptr<nn::Linear> move_head_;
  std::unique_ptr<nn::Linear> charge_head_;
  std::unique_ptr<nn::Linear> value_head_;
};

}  // namespace cews::agents

#endif  // CEWS_AGENTS_POLICY_NET_H_
