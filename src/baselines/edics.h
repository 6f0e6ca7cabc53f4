// The Edics baseline (Liu et al., JSAC'19; Section VII-B): multi-agent DRL
// where each worker is driven by its own independent PPO agent trained on
// the dense reward (Eqn 20), without the chief-employee architecture or
// curiosity.
#ifndef CEWS_BASELINES_EDICS_H_
#define CEWS_BASELINES_EDICS_H_

#include <memory>
#include <vector>

#include "agents/trainer_config.h"  // EpisodeRecord
#include "agents/eval.h"
#include "agents/ppo.h"
#include "env/env.h"
#include "env/state_encoder.h"

namespace cews::baselines {

/// Edics training configuration.
struct EdicsConfig {
  int episodes = 200;
  int update_epochs = 4;
  size_t minibatch = 64;
  /// Multiplies the stored training reward (see TrainerConfig::reward_scale).
  float reward_scale = 1.0f;
  agents::PpoConfig ppo;
  agents::PolicyNetConfig net;  // num_workers is forced to 1 per agent
  env::EnvConfig env;
  env::StateEncoderConfig encoder;
  uint64_t seed = 1;
};

/// Trains W independent single-worker PPO agents in a shared environment.
class EdicsTrainer {
 public:
  EdicsTrainer(const EdicsConfig& config, env::Map map);

  /// Runs training; returns per-episode diagnostics.
  std::vector<agents::EpisodeRecord> Train();

  /// Evaluates the joint policy of all trained agents on a fresh episode.
  agents::EvalResult Evaluate(Rng& rng, bool deterministic = false);

  int num_agents() const { return static_cast<int>(agents_.size()); }

 private:
  /// Per-worker dense reward: q/e + sigma/b0 - tau (the terms of Eqn 20
  /// before averaging).
  static double WorkerDenseReward(const env::Env& env,
                                  const env::StepResult& step, int w);

  EdicsConfig config_;
  env::Map map_;
  env::StateEncoder encoder_;
  std::vector<std::unique_ptr<agents::PpoAgent>> agents_;
};

}  // namespace cews::baselines

#endif  // CEWS_BASELINES_EDICS_H_
