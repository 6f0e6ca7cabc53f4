// The in-process chief-employee trainer (Section V-A, Algorithm 2): one
// thread per employee (agents/employee.h) explores with local model copies
// and leaves each minibatch gradient in its own slot of two global gradient
// buffers (PPO + intrinsic); the chief sums the slots in employee order,
// steps the global Adam optimizers, and releases the employees to copy the
// parameters back. Episode diagnostics and heat-map sums also go to
// per-employee slots that the chief adds in employee order, so the history
// and the Fig. 9 snapshots do not depend on thread timing.
#ifndef CEWS_AGENTS_CHIEF_EMPLOYEE_H_
#define CEWS_AGENTS_CHIEF_EMPLOYEE_H_

#include <memory>
#include <vector>

#include "agents/employee.h"
#include "agents/policy_net.h"
#include "agents/trainer_config.h"
#include "common/barrier.h"
#include "env/map.h"
#include "nn/optimizer.h"

namespace cews::agents {

/// The synchronous distributed trainer. DRL-CEWS is this trainer with
/// sparse reward + spatial curiosity; the DPPO baseline is the same trainer
/// with dense reward and no intrinsic module.
class ChiefEmployeeTrainer {
 public:
  /// The map is copied into every employee's local environment so all
  /// employees train on the same scenario with independent stochasticity.
  ChiefEmployeeTrainer(const TrainerConfig& config, env::Map map);
  ~ChiefEmployeeTrainer();

  ChiefEmployeeTrainer(const ChiefEmployeeTrainer&) = delete;
  ChiefEmployeeTrainer& operator=(const ChiefEmployeeTrainer&) = delete;

  /// Runs the full synchronous training. Blocking; spawns
  /// config.num_employees threads.
  TrainResult Train();

  /// The global policy model (Section VI-D testing uses only this).
  PolicyNet& global_net() { return global_.agent.net(); }
  const PolicyNet& global_net() const { return global_.agent.net(); }

  /// Heat-map snapshots collected when heatmap_snapshot_every > 0.
  const std::vector<HeatmapSnapshot>& heatmap_snapshots() const {
    return heatmap_snapshots_;
  }

  const TrainerConfig& config() const { return config_; }

 private:
  /// One employee's diagnostics for one episode.
  struct EpisodeSlot {
    RolloutStats stats;
    double wall_seconds = 0.0;  ///< Rollout + updates + barriers.
  };

  void EmployeeLoop(int employee_id);
  /// Runs on the last barrier arriver: applies both gradient buffers.
  /// The barrier orders every employee's slot writes before it.
  void ChiefApplyGradients();
  /// Episode `episode`'s record, summed over the slots in employee order.
  EpisodeRecord SumEpisode(int episode) const;
  void MaybeSnapshotHeatmap(int episode);
  void MaybeCheckpoint(int episode);

  TrainerConfig config_;
  env::Map map_;

  ModelSet global_;
  std::unique_ptr<nn::Adam> intrinsic_optimizer_;

  // Global gradient buffers (Fig. 1 center): one flat gradient slot per
  // employee, written by that employee before the barrier and summed in
  // employee order by the chief, so the sum does not depend on which
  // employee finished first.
  std::vector<std::vector<float>> ppo_grad_slots_;
  std::vector<std::vector<float>> intrinsic_grad_slots_;

  // Per-employee diagnostics of the current Train(): episode slots
  // [employee][episode], and each employee's curiosity heat-map sums over
  // the current snapshot window (only when snapshots are enabled).
  std::vector<std::vector<EpisodeSlot>> episode_slots_;
  std::vector<HeatmapSums> heatmap_slots_;
  std::vector<HeatmapSnapshot> heatmap_snapshots_;

  Barrier barrier_;
};

}  // namespace cews::agents

#endif  // CEWS_AGENTS_CHIEF_EMPLOYEE_H_
