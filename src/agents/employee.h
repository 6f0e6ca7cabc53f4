// The employee of the chief-employee architecture (Section V-A, Algorithm
// 1), written once for both trainers that run it. The in-process
// ChiefEmployeeTrainer (agents/chief_employee.h) runs one Employee per
// thread and sums their minibatch gradients; the multi-process dist trainer
// (dist/trainer.h) runs one per process as a rollout actor and takes the
// minibatch gradients in a single learner on the merged rollouts. Both
// build their models, explore and take gradients through the code here, so
// they agree bit for bit by construction:
//   - NormalizeConfig fills the dimensions that follow from the map;
//   - ModelSet builds the PPO agent and the configured intrinsic module;
//   - Employee explores (lines 4-15) with its own environments and Rng;
//   - MinibatchGradient takes one minibatch gradient (lines 17-19).
//
// Seeds (employee.cc holds each derivation once): an employee's policy
// init (overwritten by the first parameter copy) and its rollout Rng derive
// from config.seed and its rank. Every intrinsic module, global or local,
// derives from config.seed and its kind alone, so the frozen parts
// (curiosity embedding, RND target) agree in every thread and process
// without being copied.
#ifndef CEWS_AGENTS_EMPLOYEE_H_
#define CEWS_AGENTS_EMPLOYEE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "agents/curiosity.h"
#include "agents/ppo.h"
#include "agents/reward_normalizer.h"
#include "agents/rnd.h"
#include "agents/rollout.h"
#include "agents/trainer_config.h"
#include "common/rng.h"
#include "env/map.h"
#include "env/state_encoder.h"
#include "env/vec_env.h"
#include "nn/optimizer.h"

namespace cews::agents {

/// Fills the TrainerConfig dimensions that follow from the map, the action
/// space and the encoder (net.num_workers/num_moves/grid, the curiosity
/// model's cells/moves/workers, rnd.state_size), so callers cannot
/// desynchronize them. Every trainer builds from the normalized config; the
/// dist chief and employees also hash it.
TrainerConfig NormalizeConfig(const TrainerConfig& config,
                              const env::Map& map);

/// The models of one trainer role (Fig. 1): the PPO actor-critic (with the
/// agent's Adam) and the configured intrinsic module (spatial curiosity,
/// RND or none). The chief's global models, each employee's local copy and
/// the dist learner's models are each one ModelSet.
struct ModelSet {
  /// `config` must be normalized. The policy starts from `policy_seed`.
  ModelSet(const TrainerConfig& config, uint64_t policy_seed);

  /// Trainable intrinsic parameters; empty without an intrinsic module.
  std::vector<nn::Tensor> IntrinsicParameters() const;

  PpoAgent agent;
  std::unique_ptr<SpatialCuriosity> curiosity;
  std::unique_ptr<RndCuriosity> rnd;
};

/// Adam over `models`' intrinsic parameters at the module's learning rate,
/// for the role that steps them (the chief, the dist learner); null without
/// an intrinsic module.
std::unique_ptr<nn::Adam> MakeIntrinsicOptimizer(const TrainerConfig& config,
                                                 const ModelSet& models);

/// One employee's episode aggregates.
struct RolloutStats {
  double extrinsic_sum = 0.0;  ///< Summed over all instances.
  double intrinsic_sum = 0.0;
  double kappa = 0.0;  ///< Instance means (VecEnv::MeanKappa etc.).
  double xi = 1.0;
  double rho = 0.0;
  int64_t env_steps = 0;
};

/// What one exploration phase (Algorithm 1, lines 4-15) produced.
struct EmployeeRollout {
  /// One buffer per environment instance with its advantages computed (GAE
  /// runs per instance, so advantages never bridge two episodes).
  std::vector<RolloutBuffer> buffers;
  /// Every worker transition the spatial curiosity model saw, its training
  /// pool (empty without spatial curiosity).
  std::vector<CuriositySample> samples;
  RolloutStats stats;
};

/// Per-cell sums of the spatial-curiosity reward and visit counts, indexed
/// by StateEncoder::CellIndex: the raw material of a Fig. 9 heat map.
struct HeatmapSums {
  std::vector<double> sum;
  std::vector<int64_t> count;
};

/// One employee: a local ModelSet, `envs_per_employee` environments, the
/// rollout Rng and one reward normalizer per environment.
class Employee {
 public:
  /// `config` must be normalized; `rank` is in [0, num_employees).
  Employee(const TrainerConfig& config, const env::Map& map, int rank);

  /// Runs every environment through one episode with the local models
  /// (RunVecRollout, agents/trainer_core.h): the intrinsic module adds its
  /// reward per step, and GAE completes per instance. When `heatmap` is
  /// non-null (sized to the encoder's cells), each worker's curiosity reward
  /// is added to the cell it moved from.
  EmployeeRollout Rollout(HeatmapSums* heatmap = nullptr);

  ModelSet& models() { return models_; }
  /// The rollout Rng; the in-process employee continues it into its
  /// minibatch draws.
  Rng& rng() { return rng_; }
  int rank() const { return rank_; }

 private:
  TrainerConfig config_;
  env::StateEncoder encoder_;
  ModelSet models_;
  env::VecEnv vec_;
  Rng rng_;
  std::vector<RewardNormalizer> normalizers_;
  int rank_ = 0;
};

/// One minibatch gradient (Algorithm 1, lines 17-19). Draws a minibatch of
/// config.batch_size transitions from `buffer`, then, with spatial
/// curiosity, as many curiosity samples from `samples`, both from `rng`.
/// Backpropagates the intrinsic loss into `models`' intrinsic parameters
/// (RND distills the minibatch states), then the PPO loss into the policy,
/// and clips the policy gradient at ppo.max_grad_norm. Steps no optimizer.
/// Returns whether it took an intrinsic gradient (none without an
/// intrinsic module or, with spatial curiosity, without samples).
bool MinibatchGradient(const TrainerConfig& config, ModelSet& models,
                       const RolloutBuffer& buffer,
                       const std::vector<CuriositySample>& samples, Rng& rng,
                       LossStats* stats = nullptr);

}  // namespace cews::agents

#endif  // CEWS_AGENTS_EMPLOYEE_H_
