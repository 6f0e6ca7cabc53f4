// PPO actor-critic agent (Section IV, Eqns 8/11/12): action sampling at
// rollout time and the clipped-surrogate loss for updates. The agent owns a
// PolicyNet; in the chief-employee architecture each employee holds a local
// PpoAgent whose gradients are shipped to the chief, while standalone use
// (tests, Edics per-worker agents) can call UpdateStandalone.
#ifndef CEWS_AGENTS_PPO_H_
#define CEWS_AGENTS_PPO_H_

#include <memory>
#include <vector>

#include "agents/policy_net.h"
#include "agents/rollout.h"
#include "common/rng.h"
#include "env/action_space.h"
#include "nn/optimizer.h"

namespace cews::agents {

/// PPO hyperparameters.
struct PpoConfig {
  float gamma = 0.99f;          ///< Discount.
  float gae_lambda = 0.95f;     ///< GAE lambda.
  float clip_eps = 0.2f;        ///< Clip range epsilon (Eqn 8).
  float value_coef = 0.5f;      ///< Weight of the value loss (Eqn 11).
  float entropy_coef = 0.01f;   ///< Entropy bonus weight.
  float lr = 1e-3f;             ///< Adam learning rate.
  float max_grad_norm = 0.5f;   ///< Global-norm gradient clip.
  bool normalize_advantages = true;  ///< Per-batch advantage normalization.
};

/// Result of sampling the policy once.
struct ActResult {
  std::vector<env::WorkerAction> actions;  // a_t = [u_t, v_t] (Eqn 9)
  std::vector<int> moves;                  // v_t^w indices
  std::vector<int> charges;                // u_t^w in {0, 1}
  float log_prob = 0.0f;                   // joint log pi(a_t | s_t)
  float value = 0.0f;                      // V(s_t)
};

/// Aggregate loss diagnostics of one minibatch update.
struct LossStats {
  float policy_loss = 0.0f;
  float value_loss = 0.0f;
  float entropy = 0.0f;
  float total = 0.0f;
  /// Mean (logp_old - logp_new): the standard first-order KL estimate
  /// between behavior and updated policy over the minibatch.
  float approx_kl = 0.0f;
  /// Fraction of samples whose probability ratio hit the clip band —
  /// a healthy PPO run keeps this well below ~0.3.
  float clip_fraction = 0.0f;
};

/// The PPO agent.
class PpoAgent {
 public:
  PpoAgent(const PolicyNetConfig& net_config, const PpoConfig& ppo_config,
           uint64_t seed);

  /// Samples actions for all workers from the current policy (no tape).
  /// `deterministic` picks the argmax instead (testing process, VI-D).
  ActResult Act(const std::vector<float>& state, Rng& rng,
                bool deterministic = false) const;

  /// Value estimate for a state (no tape), used to bootstrap GAE.
  float Value(const std::vector<float>& state) const;

  /// Builds the PPO loss over a packed minibatch: J_clip (Eqn 12) +
  /// value_coef * Loss^v (Eqn 11) - entropy bonus. Caller backpropagates.
  /// The minibatch must carry advantages (source buffer had
  /// ComputeAdvantages run). Takes the batch by value and adopts its
  /// arrays, so pass a freshly sampled batch (e.g. buffer.SampleBatch)
  /// without copying. When the batch's buffer indices repeat (a batch
  /// larger than its buffer draws with replacement), the policy net runs
  /// once per distinct transition; the loss and every gradient keep the
  /// bytes of running every row (nn/ops.h "RowMap").
  nn::Tensor ComputeLoss(MiniBatch batch, LossStats* stats = nullptr) const;

  /// Convenience overload: gathers `idx` of `buffer` into a MiniBatch
  /// first. The packed overload above is the hot path.
  nn::Tensor ComputeLoss(const RolloutBuffer& buffer,
                         const std::vector<size_t>& idx,
                         LossStats* stats = nullptr) const;

  /// Standalone training: K epochs of minibatch updates applied with the
  /// agent's own Adam (used by tests and the Edics baseline).
  void UpdateStandalone(const RolloutBuffer& buffer, Rng& rng, int epochs,
                        size_t minibatch);

  PolicyNet& net() { return *net_; }
  const PolicyNet& net() const { return *net_; }
  std::vector<nn::Tensor> Parameters() const { return net_->Parameters(); }
  const PpoConfig& config() const { return config_; }
  nn::Adam& optimizer() { return *optimizer_; }

 private:
  PpoConfig config_;
  std::unique_ptr<PolicyNet> net_;
  std::unique_ptr<nn::Adam> optimizer_;
};

}  // namespace cews::agents

#endif  // CEWS_AGENTS_PPO_H_
