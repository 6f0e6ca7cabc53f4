#include "core/drl_cews.h"

#include <fstream>
#include <string>

#include "common/check.h"
#include "common/log.h"
#include "env/vec_env.h"
#include "nn/serialize.h"

namespace cews::core {

namespace {

/// The validation behind Create().
Status ValidateTrainerConfig(const agents::TrainerConfig& config,
                             const env::Map& map) {
  if (config.num_employees <= 0) {
    return Status::InvalidArgument(
        "num_employees must be positive, got " +
        std::to_string(config.num_employees));
  }
  if (config.episodes <= 0) {
    return Status::InvalidArgument(
        "episodes must be positive, got " +
        std::to_string(config.episodes));
  }
  if (config.batch_size <= 0) {
    return Status::InvalidArgument(
        "batch_size must be positive, got " +
        std::to_string(config.batch_size));
  }
  if (config.update_epochs <= 0) {
    return Status::InvalidArgument(
        "update_epochs must be positive, got " +
        std::to_string(config.update_epochs));
  }
  if (config.runtime_threads < 0) {
    return Status::InvalidArgument(
        "runtime_threads must be non-negative (0 = hardware cores), got " +
        std::to_string(config.runtime_threads));
  }
  if (config.envs_per_employee <= 0) {
    return Status::InvalidArgument(
        "envs_per_employee must be positive, got " +
        std::to_string(config.envs_per_employee));
  }
  if (config.encoder.grid <= 0) {
    return Status::InvalidArgument(
        "encoder.grid must be positive, got " +
        std::to_string(config.encoder.grid));
  }
  // The trainer auto-fills net.grid from the encoder, so a conflicting
  // explicit value is a config error rather than something to silently
  // overwrite.
  if (config.net.grid != config.encoder.grid) {
    return Status::InvalidArgument(
        "net.grid (" + std::to_string(config.net.grid) +
        ") does not match encoder.grid (" +
        std::to_string(config.encoder.grid) +
        "); leave net.grid at the encoder's value");
  }
  if (map.worker_spawns.empty()) {
    return Status::InvalidArgument("map has no worker spawns");
  }
  if (map.pois.empty()) {
    return Status::InvalidArgument("map has no PoIs");
  }
  CEWS_RETURN_IF_ERROR(config.env.Validate(map.worker_spawns.size()));
  return Status::OK();
}

}  // namespace

agents::TrainerConfig DrlCews::DefaultConfig() {
  agents::TrainerConfig config;
  config.num_employees = 8;
  config.batch_size = 250;
  config.update_epochs = 4;
  config.reward_mode = agents::RewardMode::kSparse;
  config.intrinsic = agents::IntrinsicMode::kSpatialCuriosity;
  config.curiosity.feature = agents::CuriosityFeature::kEmbedding;
  config.curiosity.structure = agents::CuriosityStructure::kShared;
  config.curiosity.eta = 0.3f;
  // env/encoder defaults already carry the Section VII-A constants
  // (b0 = 40, g = 0.8, lambda = 0.2, alpha = 1, beta = 0.1, eps1 = 5%,
  //  eps2 = 40%, charge range 0.8).
  return config;
}

Result<std::unique_ptr<DrlCews>> DrlCews::Create(
    const agents::TrainerConfig& config, env::Map map) {
  CEWS_RETURN_IF_ERROR(ValidateTrainerConfig(config, map));
  return std::unique_ptr<DrlCews>(new DrlCews(config, std::move(map)));
}

DrlCews::DrlCews(const agents::TrainerConfig& config, env::Map map)
    : map_(std::move(map)),
      encoder_(config.encoder),
      trainer_(std::make_unique<agents::ChiefEmployeeTrainer>(config, map_)),
      eval_rng_(config.seed * 0xC0FFEEULL + 1) {}

DrlCews::~DrlCews() = default;

agents::TrainResult DrlCews::Train() { return trainer_->Train(); }

agents::EvalResult DrlCews::Evaluate(int episodes, bool deterministic) {
  CEWS_CHECK_GT(episodes, 0);
  // One VecEnv instance per episode: the whole evaluation is a single pass
  // through the batched acting path instead of `episodes` sequential runs.
  env::VecEnv vec(trainer_->config().env, map_, episodes);
  const std::vector<agents::EvalResult> per_episode =
      agents::EvaluatePolicyVec(trainer_->global_net(), vec, encoder_,
                                eval_rng_, deterministic);
  agents::EvalResult total;
  total.xi = 0.0;
  for (const agents::EvalResult& r : per_episode) {
    total.kappa += r.kappa;
    total.xi += r.xi;
    total.rho += r.rho;
    total.mean_sparse_reward += r.mean_sparse_reward;
    total.mean_dense_reward += r.mean_dense_reward;
  }
  total.kappa /= episodes;
  total.xi /= episodes;
  total.rho /= episodes;
  total.mean_sparse_reward /= episodes;
  total.mean_dense_reward /= episodes;
  return total;
}

Status DrlCews::SaveCheckpoint(const std::string& path) const {
  nn::SaveInfo info;
  CEWS_RETURN_IF_ERROR(
      nn::SaveParameters(path, trainer_->global_net().Parameters(), &info));
  // Path + size + checksum, so operators can correlate a server-side hot
  // reload (serve::Fleet::PublishFromFile) with this trainer output.
  CEWS_LOG(Info) << "checkpoint -> " << path << " (" << info.bytes
                 << " bytes, crc32 " << std::hex << info.crc32 << ")";
  return Status::OK();
}

Status DrlCews::LoadCheckpoint(const std::string& path) {
  return nn::LoadParameters(path, trainer_->global_net().Parameters());
}

const std::vector<agents::HeatmapSnapshot>& DrlCews::heatmap_snapshots()
    const {
  return trainer_->heatmap_snapshots();
}

Status DrlCews::ExportHeatmapCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path);
  out << "episode,cell_y,cell_x,curiosity\n";
  const int g = encoder_.grid();
  for (const agents::HeatmapSnapshot& snap : heatmap_snapshots()) {
    for (int y = 0; y < g; ++y) {
      for (int x = 0; x < g; ++x) {
        const double v = snap.cell_values[static_cast<size_t>(y * g + x)];
        if (v != 0.0) {
          out << snap.episode << "," << y << "," << x << "," << v << "\n";
        }
      }
    }
  }
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

Status DrlCews::ExportTrajectoryCsv(const std::string& path) {
  env::Env env(trainer_->config().env, map_);
  agents::EvaluatePolicy(trainer_->global_net(), env, encoder_, eval_rng_);
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path);
  out << "worker,t,x,y\n";
  const auto& trajectories = env.trajectories();
  for (size_t w = 0; w < trajectories.size(); ++w) {
    for (size_t t = 0; t < trajectories[w].size(); ++t) {
      out << w << "," << t << "," << trajectories[w][t].x << ","
          << trajectories[w][t].y << "\n";
    }
  }
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

agents::PolicyNet& DrlCews::net() { return trainer_->global_net(); }

const agents::TrainerConfig& DrlCews::config() const {
  return trainer_->config();
}

}  // namespace cews::core
