// Asynchronous actor-learner trainer with optional V-trace off-policy
// correction (Espeholt et al., IMPALA — reference [18] of the paper).
//
// Section V-A argues for the *synchronous* chief-employee design because
// asynchronous updates introduce policy-lag between the behavior policy that
// generated a rollout and the policy being updated. This module implements
// the asynchronous alternative — employees push gradients and pull
// parameters whenever they finish an episode, with no barrier — so the
// paper's design choice can be measured (bench_ablation_async):
//  * plain asynchronous actor-critic (suffers the lag), and
//  * the same with V-trace importance-weighted corrections.
#ifndef CEWS_AGENTS_ASYNC_TRAINER_H_
#define CEWS_AGENTS_ASYNC_TRAINER_H_

#include <memory>
#include <mutex>
#include <vector>

#include "agents/trainer_config.h"
#include "agents/policy_net.h"
#include "env/env.h"
#include "env/state_encoder.h"
#include "nn/optimizer.h"

namespace cews::agents {

/// V-trace targets for one episode.
struct VtraceResult {
  /// Corrected value targets v_s.
  std::vector<float> vs;
  /// Policy-gradient advantages rho_t (r_t + gamma v_{s+1} - V(x_t)).
  std::vector<float> pg_advantages;
};

/// Computes V-trace targets (Espeholt et al., Eqn 1).
///
/// `rewards`, `dones`, `ratios` have length T; `values` has length T + 1
/// (the trailing entry bootstraps a truncated episode; pass 0 after a
/// terminal step). `ratios` are current/behavior policy probability ratios;
/// they are clipped at rho_bar for the deltas and c_bar for the trace.
VtraceResult ComputeVtrace(const std::vector<float>& rewards,
                           const std::vector<bool>& dones,
                           const std::vector<float>& values,
                           const std::vector<float>& ratios, float gamma,
                           float rho_bar = 1.0f, float c_bar = 1.0f);

/// Asynchronous trainer configuration.
struct AsyncTrainerConfig {
  int num_employees = 4;
  /// Episodes per employee.
  int episodes = 100;
  /// Intra-op NN kernel threads; see TrainerConfig::runtime_threads.
  int runtime_threads = 1;
  /// Env instances per employee on the vectorized acting path; see
  /// TrainerConfig::envs_per_employee. 1 ≡ the legacy single-env loop.
  int envs_per_employee = 1;
  bool use_vtrace = true;
  float rho_bar = 1.0f;
  float c_bar = 1.0f;

  PolicyNetConfig net;
  float lr = 3e-3f;
  float gamma = 0.95f;
  float entropy_coef = 0.01f;
  float value_coef = 0.5f;
  float max_grad_norm = 0.5f;
  float reward_scale = 0.1f;
  RewardMode reward_mode = RewardMode::kDense;

  env::EnvConfig env;
  env::StateEncoderConfig encoder;
  uint64_t seed = 1;
};

/// The asynchronous actor-learner. Employees roll out and update the global
/// model without synchronization barriers; the update applies each
/// employee's gradient the moment it is ready.
class AsyncTrainer {
 public:
  AsyncTrainer(const AsyncTrainerConfig& config, env::Map map);
  ~AsyncTrainer();

  AsyncTrainer(const AsyncTrainer&) = delete;
  AsyncTrainer& operator=(const AsyncTrainer&) = delete;

  /// Runs training (blocking). History entries arrive in completion order.
  TrainResult Train();

  PolicyNet& global_net() { return *global_net_; }
  const AsyncTrainerConfig& config() const { return config_; }

 private:
  void EmployeeLoop(int employee_id);

  AsyncTrainerConfig config_;
  env::Map map_;
  env::StateEncoder encoder_;
  std::unique_ptr<PolicyNet> global_net_;
  std::unique_ptr<nn::Adam> optimizer_;
  std::mutex model_mu_;
  std::mutex stats_mu_;
  std::vector<EpisodeRecord> history_;
};

}  // namespace cews::agents

#endif  // CEWS_AGENTS_ASYNC_TRAINER_H_
