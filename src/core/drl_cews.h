// DRL-CEWS: the paper's headline system. A façade over the chief-employee
// trainer configured with the sparse extrinsic reward (Eqns 18-19) plus the
// shared-embedding spatial curiosity model (Eqns 15-17) — the combination
// Section VII selects — with checkpointing and result-export conveniences.
#ifndef CEWS_CORE_DRL_CEWS_H_
#define CEWS_CORE_DRL_CEWS_H_

#include <memory>
#include <string>

#include "agents/chief_employee.h"
#include "agents/eval.h"
#include "common/result.h"
#include "common/status.h"
#include "env/env.h"
#include "env/map.h"
#include "env/state_encoder.h"

namespace cews::core {

/// The DRL-CEWS system.
class DrlCews {
 public:
  /// The paper's configuration: sparse reward, shared-embedding spatial
  /// curiosity (eta = 0.3), 8 employees, batch 250, Section VII-A
  /// environment constants.
  static agents::TrainerConfig DefaultConfig();

  /// Builds the system for a given scenario after validating the
  /// configuration against the map: positive employee/episode/batch/epoch
  /// counts, a consistent grid between encoder and policy network, and
  /// per-worker EnvConfig overrides sized to the fleet. Returns
  /// InvalidArgument describing the first problem instead of aborting —
  /// the entry point for callers handling untrusted configs (CLI, tests).
  /// Any valid TrainerConfig is accepted (ablations flip reward/intrinsic
  /// modes); DefaultConfig() is DRL-CEWS proper. The only way to build one.
  static Result<std::unique_ptr<DrlCews>> Create(
      const agents::TrainerConfig& config, env::Map map);

  ~DrlCews();

  DrlCews(const DrlCews&) = delete;
  DrlCews& operator=(const DrlCews&) = delete;

  /// Trains with the synchronous chief-employee architecture (blocking).
  agents::TrainResult Train();

  /// Testing process (Section VI-D): runs the trained policy network alone.
  agents::EvalResult Evaluate(int episodes = 1, bool deterministic = false);

  /// Saves / restores the global policy network.
  Status SaveCheckpoint(const std::string& path) const;
  Status LoadCheckpoint(const std::string& path);

  /// Curiosity heat-map snapshots (Fig. 9); non-empty only when
  /// config.heatmap_snapshot_every > 0 and Train() has run.
  const std::vector<agents::HeatmapSnapshot>& heatmap_snapshots() const;

  /// Writes heat-map snapshots as CSV (episode, cell_y, cell_x, value).
  Status ExportHeatmapCsv(const std::string& path) const;

  /// Runs one evaluation episode and writes worker trajectories as CSV
  /// (worker, t, x, y) — the Fig. 2(c) artifact.
  Status ExportTrajectoryCsv(const std::string& path);

  agents::PolicyNet& net();
  const agents::TrainerConfig& config() const;
  const env::Map& map() const { return map_; }

 private:
  /// `config` is valid for `map` (Create checked it).
  DrlCews(const agents::TrainerConfig& config, env::Map map);

  env::Map map_;
  env::StateEncoder encoder_;
  std::unique_ptr<agents::ChiefEmployeeTrainer> trainer_;
  Rng eval_rng_;
};

}  // namespace cews::core

#endif  // CEWS_CORE_DRL_CEWS_H_
