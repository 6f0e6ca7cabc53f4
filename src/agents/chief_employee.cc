#include "agents/chief_employee.h"

#include <thread>

#include "agents/eval.h"
#include "agents/reward_normalizer.h"
#include "agents/trainer_core.h"
#include "agents/trainer_obs.h"
#include "common/check.h"
#include "common/log.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "nn/params.h"
#include "nn/serialize.h"
#include "obs/stats_reporter.h"
#include "obs/trace.h"

namespace cews::agents {

namespace {

/// Position observation in both curiosity representations.
env::Position WorkerPos(const env::Env& e, int w) {
  return e.workers()[static_cast<size_t>(w)].pos;
}

PositionObs MakeObs(const env::StateEncoder& encoder, const env::Map& map,
                    const env::Position& p) {
  PositionObs obs;
  obs.cell = encoder.CellIndex(map, p);
  obs.sx = static_cast<float>(p.x / map.config.size_x);
  obs.sy = static_cast<float>(p.y / map.config.size_y);
  return obs;
}

/// Bridges the intrinsic-reward modules into the shared vectorized rollout
/// (trainer_core.h): captures per-worker "from" observations before each
/// lockstep step and computes r^int after it — per-worker spatial curiosity
/// (with curiosity-sample collection and heat-map accumulation) or RND on
/// the freshly encoded next state.
class IntrinsicObserver : public StepObserver {
 public:
  IntrinsicObserver(const env::StateEncoder& encoder, const env::Map& map,
                    SpatialCuriosity* curiosity, RndCuriosity* rnd,
                    std::vector<CuriositySample>* samples,
                    std::mutex& stats_mu, std::vector<double>& heatmap_sum,
                    std::vector<int64_t>& heatmap_count, int num_envs,
                    int num_workers)
      : encoder_(encoder),
        map_(map),
        curiosity_(curiosity),
        rnd_(rnd),
        samples_(samples),
        stats_mu_(stats_mu),
        heatmap_sum_(heatmap_sum),
        heatmap_count_(heatmap_count),
        from_(static_cast<size_t>(num_envs),
              std::vector<PositionObs>(static_cast<size_t>(num_workers))) {}

  void BeforeStep(int env_index, const env::Env& env,
                  const ActResult& /*act*/) override {
    if (curiosity_ == nullptr) return;
    std::vector<PositionObs>& from = from_[static_cast<size_t>(env_index)];
    for (size_t w = 0; w < from.size(); ++w) {
      from[w] = MakeObs(encoder_, map_, WorkerPos(env, static_cast<int>(w)));
    }
  }

  double IntrinsicReward(int env_index, const env::Env& env,
                         const ActResult& act,
                         const float* next_state) override {
    if (curiosity_ != nullptr) {
      std::vector<PositionObs>& from =
          from_[static_cast<size_t>(env_index)];
      const int num_workers = static_cast<int>(from.size());
      double r_int = 0.0;
      for (int w = 0; w < num_workers; ++w) {
        const PositionObs to = MakeObs(encoder_, map_, WorkerPos(env, w));
        const double r = curiosity_->IntrinsicReward(
            w, from[static_cast<size_t>(w)],
            act.moves[static_cast<size_t>(w)], to);
        r_int += r;
        samples_->push_back(CuriositySample{w, from[static_cast<size_t>(w)],
                                            act.moves[static_cast<size_t>(w)],
                                            to});
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          heatmap_sum_[static_cast<size_t>(
              from[static_cast<size_t>(w)].cell)] += r;
          ++heatmap_count_[static_cast<size_t>(
              from[static_cast<size_t>(w)].cell)];
        }
      }
      return r_int / num_workers;
    }
    if (rnd_ != nullptr) return rnd_->IntrinsicReward(next_state);
    return 0.0;
  }

 private:
  const env::StateEncoder& encoder_;
  const env::Map& map_;
  SpatialCuriosity* curiosity_;
  RndCuriosity* rnd_;
  std::vector<CuriositySample>* samples_;
  std::mutex& stats_mu_;
  std::vector<double>& heatmap_sum_;
  std::vector<int64_t>& heatmap_count_;
  std::vector<std::vector<PositionObs>> from_;
};

}  // namespace

ChiefEmployeeTrainer::ChiefEmployeeTrainer(const TrainerConfig& config,
                                           env::Map map)
    : config_(config),
      map_(std::move(map)),
      encoder_(config.encoder),
      barrier_(static_cast<size_t>(config.num_employees)) {
  CEWS_CHECK_GT(config_.num_employees, 0);
  CEWS_CHECK_GT(config_.episodes, 0);
  CEWS_CHECK_GT(config_.batch_size, 0);
  CEWS_CHECK_GT(config_.update_epochs, 0);
  CEWS_CHECK_GT(config_.envs_per_employee, 0);

  // Auto-fill dependent dimensions so callers cannot desynchronize them.
  config_.net.num_workers = static_cast<int>(map_.worker_spawns.size());
  config_.net.num_moves = config_.env.action_space.num_moves();
  config_.net.grid = config_.encoder.grid;
  config_.curiosity.num_cells = encoder_.NumCells();
  config_.curiosity.num_moves = config_.net.num_moves;
  config_.curiosity.num_workers = config_.net.num_workers;
  config_.rnd.state_size = encoder_.StateSize();

  curiosity_seed_ = config_.seed * 0x9E3779B9ULL + 17;
  rnd_seed_ = config_.seed * 0x9E3779B9ULL + 29;

  Rng rng(config_.seed);
  global_net_ = std::make_unique<PolicyNet>(config_.net, rng);
  ppo_optimizer_ =
      std::make_unique<nn::Adam>(global_net_->Parameters(), config_.ppo.lr);
  if (config_.intrinsic == IntrinsicMode::kSpatialCuriosity) {
    global_curiosity_ =
        std::make_unique<SpatialCuriosity>(config_.curiosity, curiosity_seed_);
    intrinsic_optimizer_ = std::make_unique<nn::Adam>(
        global_curiosity_->Parameters(), config_.curiosity.lr);
  } else if (config_.intrinsic == IntrinsicMode::kRnd) {
    global_rnd_ = std::make_unique<RndCuriosity>(config_.rnd, rnd_seed_);
    intrinsic_optimizer_ = std::make_unique<nn::Adam>(
        global_rnd_->Parameters(), config_.rnd.lr);
  }

  ppo_grad_slots_.resize(static_cast<size_t>(config_.num_employees));
  intrinsic_grad_slots_.resize(static_cast<size_t>(config_.num_employees));

  episode_accum_.assign(static_cast<size_t>(config_.episodes),
                        EpisodeAccumulator{});
  heatmap_sum_.assign(static_cast<size_t>(encoder_.NumCells()), 0.0);
  heatmap_count_.assign(static_cast<size_t>(encoder_.NumCells()), 0);
}

ChiefEmployeeTrainer::~ChiefEmployeeTrainer() = default;

void ChiefEmployeeTrainer::ChiefApplyGradients() {
  // Sum the employees' gradients into the global models, in employee order
  // (Algorithm 2, lines 3-7), and step. An empty slot (no curiosity samples
  // this round) adds nothing.
  const auto apply_slots = [](const std::vector<nn::Tensor>& params,
                              std::vector<std::vector<float>>& slots) {
    nn::ZeroGradients(params);
    for (std::vector<float>& slot : slots) {
      if (!slot.empty()) nn::AccumulateFlatGradients(params, slot);
      slot.clear();
    }
  };
  {
    const std::vector<nn::Tensor> params = global_net_->Parameters();
    apply_slots(params, ppo_grad_slots_);
    nn::ClipGradByGlobalNorm(
        params, config_.ppo.max_grad_norm * config_.num_employees);
    ppo_optimizer_->Step();
  }
  if (intrinsic_optimizer_ != nullptr) {
    const std::vector<nn::Tensor> params =
        global_curiosity_ != nullptr ? global_curiosity_->Parameters()
                                     : global_rnd_->Parameters();
    apply_slots(params, intrinsic_grad_slots_);
    intrinsic_optimizer_->Step();
  }
}

void ChiefEmployeeTrainer::MaybeSnapshotHeatmap(int episode) {
  if (config_.heatmap_snapshot_every <= 0) return;
  if ((episode + 1) % config_.heatmap_snapshot_every != 0) return;
  HeatmapSnapshot snap;
  snap.episode = episode + 1;
  snap.cell_values.assign(heatmap_sum_.size(), 0.0);
  for (size_t i = 0; i < heatmap_sum_.size(); ++i) {
    if (heatmap_count_[i] > 0) {
      snap.cell_values[i] =
          heatmap_sum_[i] / static_cast<double>(heatmap_count_[i]);
    }
  }
  heatmap_snapshots_.push_back(std::move(snap));
  std::fill(heatmap_sum_.begin(), heatmap_sum_.end(), 0.0);
  std::fill(heatmap_count_.begin(), heatmap_count_.end(), 0);
}

void ChiefEmployeeTrainer::EmployeeLoop(int employee_id) {
  // Local models: the PPO weights are overwritten by the first parameter
  // copy; the curiosity model is seeded identically to the global one so
  // the *frozen* embedding matches across threads.
  PpoAgent agent(config_.net, config_.ppo,
                 config_.seed + static_cast<uint64_t>(employee_id) + 1000);
  std::unique_ptr<SpatialCuriosity> curiosity;
  std::unique_ptr<RndCuriosity> rnd;
  if (config_.intrinsic == IntrinsicMode::kSpatialCuriosity) {
    curiosity =
        std::make_unique<SpatialCuriosity>(config_.curiosity, curiosity_seed_);
  } else if (config_.intrinsic == IntrinsicMode::kRnd) {
    rnd = std::make_unique<RndCuriosity>(config_.rnd, rnd_seed_);
  }
  env::VecEnv vec(config_.env, map_, config_.envs_per_employee);
  Rng rng(config_.seed * 7919 + static_cast<uint64_t>(employee_id));
  std::vector<RewardNormalizer> normalizers(
      static_cast<size_t>(config_.envs_per_employee),
      RewardNormalizer(config_.ppo.gamma));

  std::vector<CuriositySample> curiosity_samples;
  IntrinsicObserver observer(encoder_, map_, curiosity.get(), rnd.get(),
                             &curiosity_samples, stats_mu_, heatmap_sum_,
                             heatmap_count_, vec.size(), vec.num_workers());

  VecRolloutOptions rollout_options;
  rollout_options.sparse_reward =
      config_.reward_mode == RewardMode::kSparse;
  rollout_options.add_intrinsic_to_reward = config_.add_intrinsic_to_reward;
  rollout_options.reward_scale = config_.reward_scale;

  auto copy_globals = [&]() {
    nn::CopyParameters(global_net_->Parameters(), agent.Parameters());
    if (curiosity != nullptr) {
      nn::CopyParameters(global_curiosity_->Parameters(),
                         curiosity->Parameters());
    } else if (rnd != nullptr) {
      nn::CopyParameters(global_rnd_->Parameters(), rnd->Parameters());
    }
  };
  copy_globals();

  TrainerPhaseMetrics& phase_metrics = TrainerMetrics();
  for (int episode = 0; episode < config_.episodes; ++episode) {
    // ---- Exploration (Algorithm 1, lines 4-15), via the shared
    // vectorized rollout: all envs_per_employee instances act through one
    // batched Forward per lockstep step. ----
    Stopwatch episode_watch;
    curiosity_samples.clear();

    VecRolloutResult rollout = RunVecRollout(
        agent.net(), vec, encoder_, rng, rollout_options, &observer,
        config_.normalize_rewards ? &normalizers : nullptr);
    const int64_t episode_steps = rollout.env_steps;
    // GAE per instance buffer — advantages must not bridge episodes.
    for (RolloutBuffer& b : rollout.buffers) {
      b.ComputeAdvantages(config_.ppo.gamma, config_.ppo.gae_lambda,
                          /*last_value=*/0.0f);
    }

    double ext_sum = 0.0, int_sum = 0.0;
    for (size_t i = 0; i < rollout.extrinsic_sums.size(); ++i) {
      ext_sum += rollout.extrinsic_sums[i];
      int_sum += rollout.intrinsic_sums[i];
    }

    // Record this employee's episode diagnostics (instance means, so the
    // accumulator keeps the legacy per-employee scale at any
    // envs_per_employee).
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      EpisodeAccumulator& acc =
          episode_accum_[static_cast<size_t>(episode)];
      acc.kappa += vec.MeanKappa();
      acc.xi += vec.MeanXi();
      acc.rho += vec.MeanRho();
      acc.extrinsic +=
          ext_sum / (config_.env.horizon * config_.envs_per_employee);
      acc.intrinsic +=
          int_sum / (config_.env.horizon * config_.envs_per_employee);
    }

    // All instance episodes train as one pool of transitions.
    RolloutBuffer buffer = MergeBuffers(std::move(rollout.buffers));

    // ---- Exploitation (Algorithm 1, lines 16-23) ----
    const std::vector<nn::Tensor> local_ppo_params = agent.Parameters();
    for (int k = 0; k < config_.update_epochs; ++k) {
      {
        CEWS_TRACE_SCOPE("trainer.learn");
        obs::ScopedTimerNs learn_timer(phase_metrics.learn_ns);
        // Draw one packed minibatch; every model trains from its flat
        // arrays (single gather per epoch instead of per-consumer index
        // loops).
        MiniBatch mb =
            buffer.SampleBatch(static_cast<size_t>(config_.batch_size), rng);

        // Curiosity/RND gradients. The RND predictor distills the minibatch
        // states directly (formerly a separately accumulated next-state
        // pool; s_{t+1} of step t is s_t of step t+1, so the training
        // distribution is the same up to the episode's boundary states).
        std::vector<float> intrinsic_flat;
        if (curiosity != nullptr && !curiosity_samples.empty()) {
          const std::vector<nn::Tensor> cparams = curiosity->Parameters();
          nn::ZeroGradients(cparams);
          nn::Tensor closs = curiosity->SampleLoss(
              curiosity_samples, static_cast<size_t>(config_.batch_size),
              rng);
          closs.Backward();
          intrinsic_flat = nn::FlattenGradients(cparams);
        } else if (rnd != nullptr) {
          const std::vector<nn::Tensor> rparams = rnd->Parameters();
          nn::ZeroGradients(rparams);
          nn::Tensor rloss = rnd->Loss(mb);
          rloss.Backward();
          intrinsic_flat = nn::FlattenGradients(rparams);
        }

        // PPO gradients on the same packed minibatch (adopts its arrays).
        // Employee 0 reports the loss gauge: one writer, no averaging race.
        LossStats loss_stats;
        nn::ZeroGradients(local_ppo_params);
        nn::Tensor loss = agent.ComputeLoss(
            std::move(mb), employee_id == 0 ? &loss_stats : nullptr);
        loss.Backward();
        if (employee_id == 0) {
          phase_metrics.loss->Set(loss_stats.total);
        }
        nn::ClipGradByGlobalNorm(local_ppo_params,
                                 config_.ppo.max_grad_norm);

        // Send gradients to the global buffers (Algorithm 1, line 20): this
        // employee's own slots, which the chief sums in employee order.
        const size_t slot = static_cast<size_t>(employee_id);
        ppo_grad_slots_[slot] = nn::FlattenGradients(local_ppo_params);
        intrinsic_grad_slots_[slot] = std::move(intrinsic_flat);
      }

      // Wait for the chief to update the global models (lines 21-22), then
      // copy the fresh parameters.
      {
        CEWS_TRACE_SCOPE("trainer.barrier");
        obs::ScopedTimerNs barrier_timer(phase_metrics.barrier_ns);
        barrier_.ArriveAndWait([this]() { ChiefApplyGradients(); });
      }
      {
        CEWS_TRACE_SCOPE("trainer.sync");
        obs::ScopedTimerNs sync_timer(phase_metrics.sync_ns);
        copy_globals();
      }
    }

    // Heat-map snapshotting, checkpointing, and the episode-level metrics
    // are serial chief work done once per episode.
    {
      CEWS_TRACE_SCOPE("trainer.barrier");
      obs::ScopedTimerNs barrier_timer(phase_metrics.barrier_ns);
      barrier_.ArriveAndWait([this, episode, &phase_metrics]() {
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          MaybeSnapshotHeatmap(episode);
          const EpisodeAccumulator& acc =
              episode_accum_[static_cast<size_t>(episode)];
          const double inv_e = 1.0 / config_.num_employees;
          phase_metrics.episodes->Increment();
          phase_metrics.kappa->Set(acc.kappa * inv_e);
          phase_metrics.xi->Set(acc.xi * inv_e);
          phase_metrics.rho->Set(acc.rho * inv_e);
        }
        if (config_.checkpoint_every > 0 &&
            (episode + 1) % config_.checkpoint_every == 0) {
          const std::string path = config_.checkpoint_prefix +
                                   std::to_string(episode + 1) + ".bin";
          nn::SaveInfo info;
          const Status status =
              nn::SaveParameters(path, global_net_->Parameters(), &info);
          if (!status.ok()) {
            CEWS_LOG(Warning) << "checkpoint failed: " << status.ToString();
          } else {
            CEWS_LOG(Info) << "checkpoint -> " << path << " (" << info.bytes
                           << " bytes, crc32 " << std::hex << info.crc32
                           << ")";
          }
        }
      });
    }

    // Wall time covers the whole synchronized episode (rollout + updates +
    // barriers), so steps/s reflects delivered end-to-end throughput.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      EpisodeAccumulator& acc = episode_accum_[static_cast<size_t>(episode)];
      acc.wall += episode_watch.ElapsedSeconds();
      acc.steps += episode_steps;
    }
  }
}

TrainResult ChiefEmployeeTrainer::Train() {
  Stopwatch watch;
  // Size the shared intra-op kernel pool before any employee touches it.
  runtime::SetGlobalPoolThreads(
      runtime::ResolveNumThreads(config_.runtime_threads));
  std::unique_ptr<obs::StatsReporter> reporter;
  if (config_.heartbeat_seconds > 0.0) {
    reporter = std::make_unique<obs::StatsReporter>(config_.heartbeat_seconds);
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(config_.num_employees));
  for (int i = 0; i < config_.num_employees; ++i) {
    threads.emplace_back([this, i]() { EmployeeLoop(i); });
  }
  for (std::thread& t : threads) t.join();
  if (reporter != nullptr) reporter->Stop();

  TrainResult result;
  result.seconds = watch.ElapsedSeconds();
  result.history.reserve(static_cast<size_t>(config_.episodes));
  const double inv_e = 1.0 / config_.num_employees;
  for (int e = 0; e < config_.episodes; ++e) {
    const EpisodeAccumulator& acc = episode_accum_[static_cast<size_t>(e)];
    EpisodeRecord rec;
    rec.episode = e;
    rec.kappa = acc.kappa * inv_e;
    rec.xi = acc.xi * inv_e;
    rec.rho = acc.rho * inv_e;
    rec.extrinsic_reward = acc.extrinsic * inv_e;
    rec.intrinsic_reward = acc.intrinsic * inv_e;
    rec.wall_seconds = acc.wall * inv_e;
    if (rec.wall_seconds > 0.0) {
      rec.steps_per_sec = static_cast<double>(acc.steps) / rec.wall_seconds;
    }
    result.history.push_back(rec);
  }
  return result;
}

}  // namespace cews::agents
