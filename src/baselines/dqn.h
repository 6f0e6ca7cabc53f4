// DQN baseline (extension beyond the paper): a value-based alternative to
// the policy-gradient methods, included because Section IV argues policy
// gradients converge better in this domain — this implementation lets that
// claim be measured. Multi-agent like Edics: one Q-network per worker, each
// trained off-policy from a replay buffer with a target network, epsilon-
// greedy exploration, and the Huber TD loss.
#ifndef CEWS_BASELINES_DQN_H_
#define CEWS_BASELINES_DQN_H_

#include <memory>
#include <vector>

#include "agents/trainer_config.h"  // EpisodeRecord
#include "agents/cnn_trunk.h"
#include "agents/eval.h"
#include "env/env.h"
#include "env/state_encoder.h"

namespace cews::baselines {

/// Q-network: shared CNN trunk + linear head over the joint
/// (move, charge) action set of one worker.
class QNetwork : public nn::Module {
 public:
  QNetwork(const agents::CnnTrunkConfig& trunk_config, int num_actions,
           cews::Rng& rng);

  /// x: [N, C, G, G] -> Q values [N, num_actions].
  nn::Tensor Forward(const nn::Tensor& x) const;

  std::vector<nn::Tensor> Parameters() const override;

  int num_actions() const { return num_actions_; }

 private:
  std::unique_ptr<agents::CnnTrunk> trunk_;
  std::unique_ptr<nn::Linear> head_;
  int num_actions_;
};

/// DQN training configuration.
struct DqnConfig {
  int episodes = 200;
  /// Replay buffer capacity (transitions per worker).
  int replay_capacity = 20000;
  /// Minibatch size per gradient step.
  int batch_size = 64;
  /// Gradient steps per episode.
  int updates_per_episode = 30;
  /// Copy online -> target network every this many gradient steps.
  int target_sync_every = 150;
  float lr = 1e-3f;
  float gamma = 0.95f;
  /// Linear epsilon-greedy schedule.
  float epsilon_start = 1.0f;
  float epsilon_end = 0.05f;
  int epsilon_decay_episodes = 150;
  /// Multiplies the stored reward (cf. TrainerConfig::reward_scale).
  float reward_scale = 0.1f;
  float huber_delta = 1.0f;
  float max_grad_norm = 5.0f;

  agents::CnnTrunkConfig trunk;
  env::EnvConfig env;
  env::StateEncoderConfig encoder;
  uint64_t seed = 1;
};

/// Multi-agent DQN over the crowdsensing environment.
class DqnTrainer {
 public:
  DqnTrainer(const DqnConfig& config, env::Map map);

  /// Runs training; returns per-episode diagnostics.
  std::vector<agents::EpisodeRecord> Train();

  /// Evaluates the greedy (argmax-Q) joint policy on a fresh episode.
  agents::EvalResult Evaluate(Rng& rng, float epsilon = 0.0f);

  int num_agents() const { return static_cast<int>(online_.size()); }

  /// Current exploration rate for the given episode index.
  float EpsilonAt(int episode) const;

 private:
  struct Replay {
    std::shared_ptr<std::vector<float>> state;
    std::shared_ptr<std::vector<float>> next_state;
    int action = 0;
    float reward = 0.0f;
    bool done = false;
  };

  /// Joint (move, charge) action index helpers.
  int ActionIndex(int move, bool charge) const;
  env::WorkerAction ActionOf(int index) const;

  /// Epsilon-greedy action for one worker.
  int SelectAction(int worker, const std::vector<float>& state, float epsilon,
                   Rng& rng) const;

  /// One TD gradient step for one worker's network.
  void UpdateStep(int worker, Rng& rng);

  DqnConfig config_;
  env::Map map_;
  env::StateEncoder encoder_;
  int num_moves_ = 0;
  std::vector<std::unique_ptr<QNetwork>> online_;
  std::vector<std::unique_ptr<QNetwork>> target_;
  std::vector<std::unique_ptr<nn::Adam>> optimizers_;
  std::vector<std::vector<Replay>> replay_;  // ring buffer per worker
  std::vector<size_t> replay_next_;
  int64_t gradient_steps_ = 0;
};

}  // namespace cews::baselines

#endif  // CEWS_BASELINES_DQN_H_
