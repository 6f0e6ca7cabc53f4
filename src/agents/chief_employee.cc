#include "agents/chief_employee.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

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

ChiefEmployeeTrainer::ChiefEmployeeTrainer(const TrainerConfig& config,
                                           env::Map map)
    : config_(NormalizeConfig(config, map)),
      map_(std::move(map)),
      global_(config_, config_.seed),
      intrinsic_optimizer_(MakeIntrinsicOptimizer(config_, global_)),
      barrier_(static_cast<size_t>(config.num_employees)) {
  CEWS_CHECK_GT(config_.num_employees, 0);
  CEWS_CHECK_GT(config_.episodes, 0);
  CEWS_CHECK_GT(config_.batch_size, 0);
  CEWS_CHECK_GT(config_.update_epochs, 0);
  CEWS_CHECK_GT(config_.envs_per_employee, 0);
  ppo_grad_slots_.resize(static_cast<size_t>(config_.num_employees));
  intrinsic_grad_slots_.resize(static_cast<size_t>(config_.num_employees));
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
  const std::vector<nn::Tensor> params = global_.agent.Parameters();
  apply_slots(params, ppo_grad_slots_);
  nn::ClipGradByGlobalNorm(params,
                           config_.ppo.max_grad_norm * config_.num_employees);
  global_.agent.optimizer().Step();
  if (intrinsic_optimizer_ != nullptr) {
    apply_slots(global_.IntrinsicParameters(), intrinsic_grad_slots_);
    intrinsic_optimizer_->Step();
  }
}

EpisodeRecord ChiefEmployeeTrainer::SumEpisode(int episode) const {
  // Rewards are per step and per instance within each employee, so the
  // record keeps the single-env scale at any envs_per_employee.
  const int employee_steps = config_.env.horizon * config_.envs_per_employee;
  double kappa = 0.0, xi = 0.0, rho = 0.0, extrinsic = 0.0, intrinsic = 0.0;
  double wall = 0.0;
  int64_t steps = 0;
  for (const std::vector<EpisodeSlot>& slots : episode_slots_) {
    const EpisodeSlot& slot = slots[static_cast<size_t>(episode)];
    kappa += slot.stats.kappa;
    xi += slot.stats.xi;
    rho += slot.stats.rho;
    extrinsic += slot.stats.extrinsic_sum / employee_steps;
    intrinsic += slot.stats.intrinsic_sum / employee_steps;
    wall += slot.wall_seconds;
    steps += slot.stats.env_steps;
  }
  const double inv_e = 1.0 / config_.num_employees;
  EpisodeRecord rec;
  rec.episode = episode;
  rec.kappa = kappa * inv_e;
  rec.xi = xi * inv_e;
  rec.rho = rho * inv_e;
  rec.extrinsic_reward = extrinsic * inv_e;
  rec.intrinsic_reward = intrinsic * inv_e;
  rec.wall_seconds = wall * inv_e;
  if (rec.wall_seconds > 0.0) {
    rec.steps_per_sec = static_cast<double>(steps) / rec.wall_seconds;
  }
  return rec;
}

void ChiefEmployeeTrainer::MaybeSnapshotHeatmap(int episode) {
  if (config_.heatmap_snapshot_every <= 0) return;
  if ((episode + 1) % config_.heatmap_snapshot_every != 0) return;
  // Add the employees' window sums in employee order, then restart them.
  const size_t cells = static_cast<size_t>(config_.curiosity.num_cells);
  std::vector<double> sum(cells, 0.0);
  std::vector<int64_t> count(cells, 0);
  for (HeatmapSums& slot : heatmap_slots_) {
    for (size_t i = 0; i < cells; ++i) {
      sum[i] += slot.sum[i];
      count[i] += slot.count[i];
    }
    std::fill(slot.sum.begin(), slot.sum.end(), 0.0);
    std::fill(slot.count.begin(), slot.count.end(), 0);
  }
  HeatmapSnapshot snap;
  snap.episode = episode + 1;
  snap.cell_values.assign(cells, 0.0);
  for (size_t i = 0; i < cells; ++i) {
    if (count[i] > 0) {
      snap.cell_values[i] = sum[i] / static_cast<double>(count[i]);
    }
  }
  heatmap_snapshots_.push_back(std::move(snap));
}

void ChiefEmployeeTrainer::MaybeCheckpoint(int episode) {
  if (config_.checkpoint_every <= 0) return;
  if ((episode + 1) % config_.checkpoint_every != 0) return;
  const std::string path =
      config_.checkpoint_prefix + std::to_string(episode + 1) + ".bin";
  nn::SaveInfo info;
  const Status status =
      nn::SaveParameters(path, global_.agent.Parameters(), &info);
  if (!status.ok()) {
    CEWS_LOG(Warning) << "checkpoint failed: " << status.ToString();
  } else {
    CEWS_LOG(Info) << "checkpoint -> " << path << " (" << info.bytes
                   << " bytes, crc32 " << std::hex << info.crc32 << ")";
  }
}

void ChiefEmployeeTrainer::EmployeeLoop(int employee_id) {
  // The employee builds its local models, environments and rollout Rng on
  // its own thread. The first parameter copy overwrites its policy weights;
  // its intrinsic module already shares the global one's frozen parts.
  Employee employee(config_, map_, employee_id);
  ModelSet& local = employee.models();
  const auto copy_globals = [&]() {
    nn::CopyParameters(global_.agent.Parameters(), local.agent.Parameters());
    nn::CopyParameters(global_.IntrinsicParameters(),
                       local.IntrinsicParameters());
  };
  copy_globals();

  const size_t slot = static_cast<size_t>(employee_id);
  HeatmapSums* heatmap =
      heatmap_slots_.empty() ? nullptr : &heatmap_slots_[slot];
  TrainerPhaseMetrics& phase_metrics = TrainerMetrics();
  for (int episode = 0; episode < config_.episodes; ++episode) {
    // ---- Exploration (Algorithm 1, lines 4-15): all envs_per_employee
    // instances act through one batched Forward per lockstep step. ----
    Stopwatch episode_watch;
    EmployeeRollout rollout = employee.Rollout(heatmap);
    EpisodeSlot& record = episode_slots_[slot][static_cast<size_t>(episode)];
    record.stats = rollout.stats;
    // All instance episodes train as one pool of transitions.
    const RolloutBuffer buffer = MergeBuffers(std::move(rollout.buffers));

    // ---- Exploitation (Algorithm 1, lines 16-23) ----
    for (int k = 0; k < config_.update_epochs; ++k) {
      {
        CEWS_TRACE_SCOPE("trainer.learn");
        obs::ScopedTimerNs learn_timer(phase_metrics.learn_ns);
        // The rollout Rng runs on into the minibatch draws. Employee 0
        // reports the loss gauge: one writer, no averaging race.
        LossStats loss_stats;
        const bool intrinsic = MinibatchGradient(
            config_, local, buffer, rollout.samples, employee.rng(),
            employee_id == 0 ? &loss_stats : nullptr);
        if (employee_id == 0) {
          phase_metrics.loss->Set(loss_stats.total);
        }
        // Send gradients to the global buffers (Algorithm 1, line 20): this
        // employee's own slots, which the chief sums in employee order.
        ppo_grad_slots_[slot] = nn::FlattenGradients(local.agent.Parameters());
        intrinsic_grad_slots_[slot] =
            intrinsic ? nn::FlattenGradients(local.IntrinsicParameters())
                      : std::vector<float>();
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
        MaybeSnapshotHeatmap(episode);
        const EpisodeRecord rec = SumEpisode(episode);
        phase_metrics.episodes->Increment();
        phase_metrics.kappa->Set(rec.kappa);
        phase_metrics.xi->Set(rec.xi);
        phase_metrics.rho->Set(rec.rho);
        MaybeCheckpoint(episode);
      });
    }

    // Wall time covers the whole synchronized episode (rollout + updates +
    // barriers), so steps/s reflects delivered end-to-end throughput.
    record.wall_seconds = episode_watch.ElapsedSeconds();
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
  const size_t employees = static_cast<size_t>(config_.num_employees);
  episode_slots_.assign(employees, std::vector<EpisodeSlot>(
                                       static_cast<size_t>(config_.episodes)));
  heatmap_slots_.clear();
  if (config_.heatmap_snapshot_every > 0) {
    const size_t cells = static_cast<size_t>(config_.curiosity.num_cells);
    heatmap_slots_.assign(employees,
                          HeatmapSums{std::vector<double>(cells, 0.0),
                                      std::vector<int64_t>(cells, 0)});
  }
  std::vector<std::thread> threads;
  threads.reserve(employees);
  for (int i = 0; i < config_.num_employees; ++i) {
    threads.emplace_back([this, i]() { EmployeeLoop(i); });
  }
  for (std::thread& t : threads) t.join();
  if (reporter != nullptr) reporter->Stop();

  TrainResult result;
  result.seconds = watch.ElapsedSeconds();
  result.history.reserve(static_cast<size_t>(config_.episodes));
  for (int e = 0; e < config_.episodes; ++e) {
    result.history.push_back(SumEpisode(e));
  }
  return result;
}

}  // namespace cews::agents
