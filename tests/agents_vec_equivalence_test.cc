// The envs_per_employee=1 determinism contract: the vectorized acting path
// must reproduce the pre-vectorization trainers bitwise. Each test
// hand-rolls the legacy single-env employee loop (the exact code the shared
// trainer core replaced) and checks per-episode rewards and final global
// parameters against the refactored trainer. The chief-employee reference
// also runs Algorithm 1 at two employees with spatial curiosity.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "agents/async_trainer.h"
#include "agents/chief_employee.h"
#include "agents/curiosity.h"
#include "agents/eval.h"
#include "agents/ppo.h"
#include "agents/rollout.h"
#include "env/map.h"
#include "env/state_encoder.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/params.h"

namespace cews::agents {
namespace {

env::Map SmallMap(uint64_t seed = 42) {
  env::MapConfig config;
  config.num_pois = 30;
  config.num_workers = 2;
  config.num_stations = 2;
  config.num_obstacles = 2;
  Rng rng(seed);
  auto result = env::GenerateMap(config, rng);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

/// Applies the chief-employee constructor's dependent-dimension autofill so
/// the reference models match the trainer's exactly.
void AutoFill(TrainerConfig& config, const env::Map& map) {
  const env::StateEncoder encoder(config.encoder);
  config.net.num_workers = static_cast<int>(map.worker_spawns.size());
  config.net.num_moves = config.env.action_space.num_moves();
  config.net.grid = config.encoder.grid;
  config.curiosity.num_cells = encoder.NumCells();
  config.curiosity.num_moves = config.net.num_moves;
  config.curiosity.num_workers = config.net.num_workers;
}

TrainerConfig TinyChiefConfig() {
  TrainerConfig config;
  config.num_employees = 1;
  config.episodes = 3;
  config.batch_size = 16;
  config.update_epochs = 2;
  config.env.horizon = 12;
  config.encoder.grid = 10;
  config.net.grid = 10;
  config.net.conv1_channels = 4;
  config.net.conv2_channels = 4;
  config.net.conv3_channels = 4;
  config.net.feature_dim = 32;
  config.intrinsic = IntrinsicMode::kNone;
  config.reward_mode = RewardMode::kSparse;
  config.seed = 3;
  return config;
}

PositionObs ObsAt(const env::StateEncoder& encoder, const env::Map& map,
                  const env::Position& p) {
  PositionObs obs;
  obs.cell = encoder.CellIndex(map, p);
  obs.sx = static_cast<float>(p.x / map.config.size_x);
  obs.sy = static_cast<float>(p.y / map.config.size_y);
  return obs;
}

/// One employee of the reference: the legacy single-env loop's state, with
/// the trainer's per-employee seeds written out.
struct RefEmployee {
  RefEmployee(const TrainerConfig& config, const env::Map& map, int id)
      : agent(config.net, config.ppo,
              config.seed + static_cast<uint64_t>(id) + 1000),
        curiosity(config.curiosity, config.seed * 0x9E3779B9ULL + 17),
        env(config.env, map),
        rng(config.seed * 7919 + static_cast<uint64_t>(id)) {}

  PpoAgent agent;
  SpatialCuriosity curiosity;
  env::Env env;
  Rng rng;
  RolloutBuffer buffer;
  std::vector<CuriositySample> samples;
};

/// Algorithm 1 at `employees` employees, hand-rolled with one employee after
/// the other: each runs the legacy single-env rollout with its own seeds and
/// rollout Rng (spatial curiosity adds its mean per-worker r^int to the
/// reward and collects its samples), then every update round each employee
/// takes its clipped PPO gradient and its curiosity gradient, the chief adds
/// them in employee order, clips the PPO sum at employees * max_grad_norm,
/// steps both Adam optimizers and copies the globals back. The trainer must
/// match its rewards and final global parameters bit for bit.
void ExpectChiefTrainerMatchesReference(int employees,
                                        IntrinsicMode intrinsic) {
  const env::Map map = SmallMap();
  TrainerConfig config = TinyChiefConfig();
  config.num_employees = employees;
  config.intrinsic = intrinsic;
  AutoFill(config, map);
  const bool curious = intrinsic == IntrinsicMode::kSpatialCuriosity;
  const size_t batch = static_cast<size_t>(config.batch_size);

  // ---- Reference: the chief's global models ----
  Rng global_rng(config.seed);
  PolicyNet global(config.net, global_rng);
  nn::Adam optimizer(global.Parameters(), config.ppo.lr);
  SpatialCuriosity global_curiosity(config.curiosity,
                                    config.seed * 0x9E3779B9ULL + 17);
  nn::Adam curiosity_optimizer(global_curiosity.Parameters(),
                               config.curiosity.lr);

  const env::StateEncoder encoder(config.encoder);
  std::vector<std::unique_ptr<RefEmployee>> staff;
  for (int id = 0; id < employees; ++id) {
    staff.push_back(std::make_unique<RefEmployee>(config, map, id));
  }
  const auto copy_globals = [&]() {
    for (const std::unique_ptr<RefEmployee>& e : staff) {
      nn::CopyParameters(global.Parameters(), e->agent.Parameters());
      nn::CopyParameters(global_curiosity.Parameters(),
                         e->curiosity.Parameters());
    }
  };
  copy_globals();

  std::vector<double> expected_extrinsic;
  std::vector<double> expected_intrinsic;
  for (int episode = 0; episode < config.episodes; ++episode) {
    double ext_total = 0.0;
    double int_total = 0.0;
    for (const std::unique_ptr<RefEmployee>& e : staff) {
      e->env.Reset();
      e->buffer.Clear();
      e->samples.clear();
      double ext_sum = 0.0;
      double int_sum = 0.0;
      std::vector<float> state = encoder.Encode(e->env);
      while (!e->env.Done()) {
        const ActResult act = e->agent.Act(state, e->rng);
        std::vector<PositionObs> from;
        for (const env::WorkerState& w : e->env.workers()) {
          from.push_back(ObsAt(encoder, map, w.pos));
        }
        const env::StepResult step = e->env.Step(act.actions);
        std::vector<float> next_state = encoder.Encode(e->env);
        const double r_ext = step.sparse_reward;
        double r_int = 0.0;
        if (curious) {
          const int num_workers = static_cast<int>(from.size());
          for (int w = 0; w < num_workers; ++w) {
            const size_t wi = static_cast<size_t>(w);
            const PositionObs to =
                ObsAt(encoder, map, e->env.workers()[wi].pos);
            r_int += e->curiosity.IntrinsicReward(w, from[wi],
                                                  act.moves[wi], to);
            e->samples.push_back(
                CuriositySample{w, from[wi], act.moves[wi], to});
          }
          r_int = r_int / num_workers;
        }
        Transition t;
        t.state = std::move(state);
        t.moves = act.moves;
        t.charges = act.charges;
        t.log_prob = act.log_prob;
        t.value = act.value;
        t.reward = config.reward_scale * static_cast<float>(r_ext + r_int);
        t.done = step.done;
        e->buffer.Add(std::move(t));
        state = std::move(next_state);
        ext_sum += r_ext;
        int_sum += r_int;
      }
      e->buffer.ComputeAdvantages(config.ppo.gamma, config.ppo.gae_lambda,
                                  0.0f);
      ext_total += ext_sum / config.env.horizon;
      int_total += int_sum / config.env.horizon;
    }
    expected_extrinsic.push_back(ext_total * (1.0 / employees));
    expected_intrinsic.push_back(int_total * (1.0 / employees));

    for (int k = 0; k < config.update_epochs; ++k) {
      std::vector<std::vector<float>> ppo_grads;
      std::vector<std::vector<float>> curiosity_grads;
      for (const std::unique_ptr<RefEmployee>& e : staff) {
        MiniBatch mb = e->buffer.SampleBatch(batch, e->rng);
        if (curious) {
          const std::vector<nn::Tensor> cparams = e->curiosity.Parameters();
          nn::ZeroGradients(cparams);
          nn::Tensor closs = e->curiosity.SampleLoss(e->samples, batch,
                                                     e->rng);
          closs.Backward();
          curiosity_grads.push_back(nn::FlattenGradients(cparams));
        }
        const std::vector<nn::Tensor> local_params = e->agent.Parameters();
        nn::ZeroGradients(local_params);
        nn::Tensor loss = e->agent.ComputeLoss(std::move(mb));
        loss.Backward();
        nn::ClipGradByGlobalNorm(local_params, config.ppo.max_grad_norm);
        ppo_grads.push_back(nn::FlattenGradients(local_params));
      }

      // Chief apply: the employees' gradients in employee order.
      const std::vector<nn::Tensor> global_params = global.Parameters();
      nn::ZeroGradients(global_params);
      for (const std::vector<float>& g : ppo_grads) {
        nn::AccumulateFlatGradients(global_params, g);
      }
      nn::ClipGradByGlobalNorm(global_params,
                               config.ppo.max_grad_norm * employees);
      optimizer.Step();
      if (curious) {
        const std::vector<nn::Tensor> cparams = global_curiosity.Parameters();
        nn::ZeroGradients(cparams);
        for (const std::vector<float>& g : curiosity_grads) {
          nn::AccumulateFlatGradients(cparams, g);
        }
        curiosity_optimizer.Step();
      }
      copy_globals();
    }
  }

  // ---- The refactored trainer at envs_per_employee = 1 ----
  TrainerConfig vec_config = TinyChiefConfig();
  vec_config.num_employees = employees;
  vec_config.intrinsic = intrinsic;
  vec_config.envs_per_employee = 1;
  ChiefEmployeeTrainer trainer(vec_config, map);
  const TrainResult result = trainer.Train();

  ASSERT_EQ(result.history.size(), expected_extrinsic.size());
  for (size_t e = 0; e < expected_extrinsic.size(); ++e) {
    EXPECT_DOUBLE_EQ(result.history[e].extrinsic_reward,
                     expected_extrinsic[e])
        << "episode " << e;
    EXPECT_DOUBLE_EQ(result.history[e].intrinsic_reward,
                     expected_intrinsic[e])
        << "episode " << e;
  }
  if (curious) {
    EXPECT_GT(expected_intrinsic.back(), 0.0);
  }
  const std::vector<float> got =
      nn::FlattenValues(trainer.global_net().Parameters());
  const std::vector<float> want = nn::FlattenValues(global.Parameters());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "parameter " << i;  // bitwise
  }
}

TEST(VecEquivalenceTest, ChiefTrainerMatchesLegacyLoopBitwise) {
  ExpectChiefTrainerMatchesReference(/*employees=*/1, IntrinsicMode::kNone);
}

TEST(VecEquivalenceTest, TwoEmployeeCuriosityChiefMatchesReferenceBitwise) {
  ExpectChiefTrainerMatchesReference(/*employees=*/2,
                                     IntrinsicMode::kSpatialCuriosity);
}

AsyncTrainerConfig TinyAsyncConfig() {
  AsyncTrainerConfig config;
  config.num_employees = 1;
  config.episodes = 3;
  config.env.horizon = 12;
  config.encoder.grid = 10;
  config.net.grid = 10;
  config.net.conv1_channels = 4;
  config.net.conv2_channels = 4;
  config.net.conv3_channels = 4;
  config.net.feature_dim = 32;
  config.seed = 3;
  return config;
}

TEST(VecEquivalenceTest, AsyncTrainerMatchesLegacyLoopBitwise) {
  const env::Map map = SmallMap();
  AsyncTrainerConfig config = TinyAsyncConfig();
  config.net.num_workers = static_cast<int>(map.worker_spawns.size());
  config.net.num_moves = config.env.action_space.num_moves();
  config.net.grid = config.encoder.grid;

  // ---- Reference: the legacy single-env async employee loop ----
  Rng global_rng(config.seed);
  PolicyNet global(config.net, global_rng);
  nn::Adam optimizer(global.Parameters(), config.lr);

  Rng init_rng(config.seed + 5000);
  PolicyNet local(config.net, init_rng);
  const std::vector<nn::Tensor> local_params = local.Parameters();
  const env::StateEncoder encoder(config.encoder);
  env::Env env(config.env, map);
  Rng rng(config.seed * 6131);
  nn::CopyParameters(global.Parameters(), local_params);

  std::vector<double> expected_rewards;
  for (int episode = 0; episode < config.episodes; ++episode) {
    env.Reset();
    RolloutBuffer buffer;
    std::vector<float> state = encoder.Encode(env);
    while (!env.Done()) {
      const ActResult act = SamplePolicy(local, state, rng, false);
      const env::StepResult step = env.Step(act.actions);
      const double r_ext = config.reward_mode == RewardMode::kSparse
                               ? step.sparse_reward
                               : step.dense_reward;
      Transition t;
      t.state = std::move(state);
      t.moves = act.moves;
      t.charges = act.charges;
      t.log_prob = act.log_prob;
      t.value = act.value;
      t.reward = config.reward_scale * static_cast<float>(r_ext);
      t.done = step.done;
      buffer.Add(std::move(t));
      state = encoder.Encode(env);
    }
    MiniBatch mb = buffer.PackAll();
    const size_t t_max = static_cast<size_t>(mb.batch);
    nn::CopyParameters(global.Parameters(), local_params);

    double reward_sum = 0.0;
    for (float r : mb.rewards) reward_sum += r;
    expected_rewards.push_back(
        reward_sum / (config.reward_scale * config.env.horizon));

    const PolicyNetConfig& cfg = config.net;
    nn::ZeroGradients(local_params);
    const nn::Tensor x = nn::Tensor::FromData(
        {static_cast<nn::Index>(t_max), cfg.in_channels, cfg.grid,
         cfg.grid},
        std::move(mb.states));
    const PolicyOutput out = local.Forward(x);
    nn::Tensor move_logp = nn::LogSoftmax(out.move_logits);
    nn::Tensor charge_logp = nn::LogSoftmax(out.charge_logits);
    nn::Tensor logp = nn::Add(
        nn::SumLastDim(nn::GatherLastDim(move_logp, mb.move_indices)),
        nn::SumLastDim(nn::GatherLastDim(charge_logp, mb.charge_indices)));
    std::vector<float> values(t_max + 1, 0.0f);
    std::vector<float> ratios(t_max, 1.0f);
    std::vector<bool> dones(t_max);
    for (size_t t = 0; t < t_max; ++t) {
      values[t] = out.value.data()[t];
      dones[t] = mb.dones[t] != 0;
      if (config.use_vtrace) {
        ratios[t] = std::exp(logp.data()[t] - mb.log_probs[t]);
      }
    }
    const VtraceResult vtrace =
        ComputeVtrace(mb.rewards, dones, values, ratios, config.gamma,
                      config.rho_bar, config.c_bar);
    const nn::Tensor advantages = nn::Tensor::FromData(
        {static_cast<nn::Index>(t_max)}, vtrace.pg_advantages);
    const nn::Tensor value_targets =
        nn::Tensor::FromData({static_cast<nn::Index>(t_max)}, vtrace.vs);
    nn::Tensor policy_loss = nn::Neg(nn::Mean(nn::Mul(logp, advantages)));
    nn::Tensor value_loss =
        nn::Mean(nn::Square(nn::Sub(out.value, value_targets)));
    const float inv_t = 1.0f / static_cast<float>(t_max);
    nn::Tensor entropy = nn::MulScalar(
        nn::Add(nn::Sum(nn::Mul(nn::Softmax(out.move_logits), move_logp)),
                nn::Sum(nn::Mul(nn::Softmax(out.charge_logits),
                                charge_logp))),
        -inv_t);
    nn::Tensor total = nn::Add(
        nn::Add(policy_loss, nn::MulScalar(value_loss, config.value_coef)),
        nn::MulScalar(entropy, -config.entropy_coef));
    total.Backward();
    nn::ClipGradByGlobalNorm(local_params, config.max_grad_norm);
    const std::vector<float> grads = nn::FlattenGradients(local_params);

    const std::vector<nn::Tensor> global_params = global.Parameters();
    nn::ZeroGradients(global_params);
    nn::AccumulateFlatGradients(global_params, grads);
    optimizer.Step();
    nn::CopyParameters(global_params, local_params);
  }

  // ---- The refactored trainer at envs_per_employee = 1 ----
  AsyncTrainerConfig vec_config = TinyAsyncConfig();
  vec_config.envs_per_employee = 1;
  AsyncTrainer trainer(vec_config, map);
  const TrainResult result = trainer.Train();

  ASSERT_EQ(result.history.size(), expected_rewards.size());
  for (size_t e = 0; e < expected_rewards.size(); ++e) {
    EXPECT_DOUBLE_EQ(result.history[e].extrinsic_reward,
                     expected_rewards[e])
        << "episode " << e;
  }
  const std::vector<float> got =
      nn::FlattenValues(trainer.global_net().Parameters());
  const std::vector<float> want = nn::FlattenValues(global.Parameters());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "parameter " << i;  // bitwise
  }
}

TEST(VecEquivalenceTest, MultiEnvChiefTrainerRunsAndRecordsHistory) {
  TrainerConfig config = TinyChiefConfig();
  config.envs_per_employee = 3;
  config.episodes = 2;
  ChiefEmployeeTrainer trainer(config, SmallMap());
  const TrainResult result = trainer.Train();
  ASSERT_EQ(result.history.size(), 2u);
  for (const EpisodeRecord& rec : result.history) {
    EXPECT_GE(rec.kappa, 0.0);
    EXPECT_LE(rec.kappa, 1.0 + 1e-9);
  }
}

TEST(VecEquivalenceTest, MultiEnvAsyncTrainerEmitsPerInstanceRecords) {
  AsyncTrainerConfig config = TinyAsyncConfig();
  config.envs_per_employee = 2;
  config.episodes = 2;
  AsyncTrainer trainer(config, SmallMap());
  const TrainResult result = trainer.Train();
  // One record per instance episode: episodes * envs_per_employee.
  ASSERT_EQ(result.history.size(), 4u);
}

}  // namespace
}  // namespace cews::agents
