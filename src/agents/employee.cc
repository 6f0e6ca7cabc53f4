#include "agents/employee.h"

#include <utility>

#include "agents/trainer_core.h"
#include "common/check.h"
#include "nn/params.h"

namespace cews::agents {

namespace {

/// Worker `w`'s position in both curiosity representations.
PositionObs MakeObs(const env::StateEncoder& encoder, const env::Env& env,
                    int w) {
  const env::Position& p = env.workers()[static_cast<size_t>(w)].pos;
  const env::Map& map = env.map();
  PositionObs obs;
  obs.cell = encoder.CellIndex(map, p);
  obs.sx = static_cast<float>(p.x / map.config.size_x);
  obs.sy = static_cast<float>(p.y / map.config.size_y);
  return obs;
}

/// Bridges the intrinsic-reward modules into the shared vectorized rollout
/// (trainer_core.h): captures per-worker "from" observations before each
/// lockstep step and computes r^int after it — per-worker spatial curiosity
/// (collecting the curiosity samples and, when asked, the heat-map sums) or
/// RND on the freshly encoded next state.
class IntrinsicObserver : public StepObserver {
 public:
  IntrinsicObserver(const env::StateEncoder& encoder, const ModelSet& models,
                    int num_envs, int num_workers,
                    std::vector<CuriositySample>* samples,
                    HeatmapSums* heatmap)
      : encoder_(encoder),
        curiosity_(models.curiosity.get()),
        rnd_(models.rnd.get()),
        samples_(samples),
        heatmap_(heatmap),
        from_(static_cast<size_t>(num_envs),
              std::vector<PositionObs>(static_cast<size_t>(num_workers))) {}

  void BeforeStep(int env_index, const env::Env& env,
                  const ActResult& /*act*/) override {
    if (curiosity_ == nullptr) return;
    std::vector<PositionObs>& from = from_[static_cast<size_t>(env_index)];
    for (size_t w = 0; w < from.size(); ++w) {
      from[w] = MakeObs(encoder_, env, static_cast<int>(w));
    }
  }

  double IntrinsicReward(int env_index, const env::Env& env,
                         const ActResult& act,
                         const float* next_state) override {
    if (curiosity_ != nullptr) {
      const std::vector<PositionObs>& from =
          from_[static_cast<size_t>(env_index)];
      const int num_workers = static_cast<int>(from.size());
      double r_int = 0.0;
      for (int w = 0; w < num_workers; ++w) {
        const size_t wi = static_cast<size_t>(w);
        const PositionObs to = MakeObs(encoder_, env, w);
        const double r =
            curiosity_->IntrinsicReward(w, from[wi], act.moves[wi], to);
        r_int += r;
        samples_->push_back(CuriositySample{w, from[wi], act.moves[wi], to});
        if (heatmap_ != nullptr) {
          const size_t cell = static_cast<size_t>(from[wi].cell);
          heatmap_->sum[cell] += r;
          ++heatmap_->count[cell];
        }
      }
      return r_int / num_workers;
    }
    if (rnd_ != nullptr) return rnd_->IntrinsicReward(next_state);
    return 0.0;
  }

 private:
  const env::StateEncoder& encoder_;
  const SpatialCuriosity* curiosity_;
  const RndCuriosity* rnd_;
  std::vector<CuriositySample>* samples_;
  HeatmapSums* heatmap_;
  std::vector<std::vector<PositionObs>> from_;
};

}  // namespace

TrainerConfig NormalizeConfig(const TrainerConfig& config,
                              const env::Map& map) {
  TrainerConfig out = config;
  const env::StateEncoder encoder(config.encoder);
  out.net.num_workers = static_cast<int>(map.worker_spawns.size());
  out.net.num_moves = out.env.action_space.num_moves();
  out.net.grid = out.encoder.grid;
  out.curiosity.num_cells = encoder.NumCells();
  out.curiosity.num_moves = out.net.num_moves;
  out.curiosity.num_workers = out.net.num_workers;
  out.rnd.state_size = encoder.StateSize();
  return out;
}

ModelSet::ModelSet(const TrainerConfig& config, uint64_t policy_seed)
    : agent(config.net, config.ppo, policy_seed) {
  if (config.intrinsic == IntrinsicMode::kSpatialCuriosity) {
    curiosity = std::make_unique<SpatialCuriosity>(
        config.curiosity, config.seed * 0x9E3779B9ULL + 17);
  } else if (config.intrinsic == IntrinsicMode::kRnd) {
    rnd = std::make_unique<RndCuriosity>(config.rnd,
                                         config.seed * 0x9E3779B9ULL + 29);
  }
}

std::vector<nn::Tensor> ModelSet::IntrinsicParameters() const {
  if (curiosity != nullptr) return curiosity->Parameters();
  if (rnd != nullptr) return rnd->Parameters();
  return {};
}

std::unique_ptr<nn::Adam> MakeIntrinsicOptimizer(const TrainerConfig& config,
                                                 const ModelSet& models) {
  if (models.curiosity == nullptr && models.rnd == nullptr) return nullptr;
  return std::make_unique<nn::Adam>(
      models.IntrinsicParameters(),
      models.curiosity != nullptr ? config.curiosity.lr : config.rnd.lr);
}

Employee::Employee(const TrainerConfig& config, const env::Map& map,
                   int rank)
    : config_(config),
      encoder_(config.encoder),
      models_(config, config.seed + static_cast<uint64_t>(rank) + 1000),
      vec_(config.env, map, config.envs_per_employee),
      rng_(config.seed * 7919 + static_cast<uint64_t>(rank)),
      normalizers_(static_cast<size_t>(config.envs_per_employee),
                   RewardNormalizer(config.ppo.gamma)),
      rank_(rank) {
  CEWS_CHECK_GE(rank, 0);
  CEWS_CHECK_LT(rank, config.num_employees);
}

EmployeeRollout Employee::Rollout(HeatmapSums* heatmap) {
  EmployeeRollout out;
  IntrinsicObserver observer(encoder_, models_, vec_.size(),
                             vec_.num_workers(), &out.samples, heatmap);
  VecRolloutOptions options;
  options.sparse_reward = config_.reward_mode == RewardMode::kSparse;
  options.add_intrinsic_to_reward = config_.add_intrinsic_to_reward;
  options.reward_scale = config_.reward_scale;

  VecRolloutResult rollout = RunVecRollout(
      models_.agent.net(), vec_, encoder_, rng_, options, &observer,
      config_.normalize_rewards ? &normalizers_ : nullptr);
  for (RolloutBuffer& b : rollout.buffers) {
    b.ComputeAdvantages(config_.ppo.gamma, config_.ppo.gae_lambda,
                        /*last_value=*/0.0f);
  }
  out.buffers = std::move(rollout.buffers);
  for (size_t i = 0; i < rollout.extrinsic_sums.size(); ++i) {
    out.stats.extrinsic_sum += rollout.extrinsic_sums[i];
    out.stats.intrinsic_sum += rollout.intrinsic_sums[i];
  }
  out.stats.kappa = vec_.MeanKappa();
  out.stats.xi = vec_.MeanXi();
  out.stats.rho = vec_.MeanRho();
  out.stats.env_steps = rollout.env_steps;
  return out;
}

bool MinibatchGradient(const TrainerConfig& config, ModelSet& models,
                       const RolloutBuffer& buffer,
                       const std::vector<CuriositySample>& samples, Rng& rng,
                       LossStats* stats) {
  const size_t batch = static_cast<size_t>(config.batch_size);
  // One packed minibatch; every model trains from its flat arrays.
  MiniBatch mb = buffer.SampleBatch(batch, rng);

  // The intrinsic module first, because ComputeLoss adopts the minibatch.
  // The RND predictor distills the minibatch states (s_{t+1} of step t is
  // s_t of step t+1, so that is the rollout's state distribution up to the
  // episode's boundary states).
  bool intrinsic = false;
  if (models.curiosity != nullptr && !samples.empty()) {
    const std::vector<nn::Tensor> params = models.curiosity->Parameters();
    nn::ZeroGradients(params);
    nn::Tensor loss = models.curiosity->SampleLoss(samples, batch, rng);
    loss.Backward();
    intrinsic = true;
  } else if (models.rnd != nullptr) {
    const std::vector<nn::Tensor> params = models.rnd->Parameters();
    nn::ZeroGradients(params);
    nn::Tensor loss = models.rnd->Loss(mb);
    loss.Backward();
    intrinsic = true;
  }

  const std::vector<nn::Tensor> params = models.agent.Parameters();
  nn::ZeroGradients(params);
  nn::Tensor loss = models.agent.ComputeLoss(std::move(mb), stats);
  loss.Backward();
  nn::ClipGradByGlobalNorm(params, config.ppo.max_grad_norm);
  return intrinsic;
}

}  // namespace cews::agents
