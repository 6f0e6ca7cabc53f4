// Random Network Distillation (Burda et al., ICLR'19), the state-of-the-art
// curiosity baseline compared against in Fig. 4: a frozen random target
// network embeds the next state; a trained predictor chases it; the
// prediction error is the intrinsic reward.
#ifndef CEWS_AGENTS_RND_H_
#define CEWS_AGENTS_RND_H_

#include <memory>
#include <vector>

#include "agents/rollout.h"
#include "common/rng.h"
#include "nn/module.h"

namespace cews::agents {

/// RND hyperparameters.
struct RndConfig {
  /// Flat size of an encoded state.
  int state_size = 1200;
  /// Hidden width of target and predictor MLPs.
  int hidden = 128;
  /// Output embedding dimension.
  int out_dim = 32;
  /// Intrinsic-reward scale (kept equal to the spatial model's eta).
  float eta = 0.3f;
  /// Learning rate when trained standalone.
  float lr = 1e-3f;
};

/// RND curiosity module over full encoded states.
class RndCuriosity {
 public:
  RndCuriosity(const RndConfig& config, uint64_t seed);

  /// Intrinsic reward for a (next) state: eta * ||pred - target||^2.
  double IntrinsicReward(const std::vector<float>& state) const;

  /// Same, over config().state_size floats at `state` — the batched acting
  /// path hands per-instance slices of one [N, ...] encode buffer.
  double IntrinsicReward(const float* state) const;

  /// Predictor training loss over a packed minibatch: consumes
  /// `batch.states` ([B * state_size], row-major) directly — the trainer
  /// hot path; no per-transition gather.
  nn::Tensor Loss(const MiniBatch& batch) const;

  /// Predictor training loss over a batch of state pointers (row-major
  /// [batch, state_size]); the caller backpropagates.
  nn::Tensor Loss(const std::vector<const std::vector<float>*>& states) const;

  /// Trainable parameters (predictor only).
  std::vector<nn::Tensor> Parameters() const;

  const RndConfig& config() const { return config_; }

 private:
  nn::Tensor TargetEmbedding(const nn::Tensor& x) const;

  RndConfig config_;
  std::unique_ptr<nn::Mlp> target_;     // frozen
  std::unique_ptr<nn::Mlp> predictor_;  // trained
};

}  // namespace cews::agents

#endif  // CEWS_AGENTS_RND_H_
