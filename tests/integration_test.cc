// Cross-module integration: the DrlCews façade, the algorithm registry, and
// checkpoint round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "core/algorithms.h"
#include "core/drl_cews.h"
#include "core/scenarios.h"
#include "core/training_log.h"
#include "core/visualize.h"
#include "env/map_io.h"
#include "env/state_encoder.h"

namespace cews::core {
namespace {

env::Map TestMap(uint64_t seed = 21) {
  env::MapConfig config;
  config.num_pois = 50;
  config.num_workers = 2;
  config.num_stations = 3;
  Rng rng(seed);
  auto result = env::GenerateMap(config, rng);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

agents::TrainerConfig TinyConfig() {
  agents::TrainerConfig config = DrlCews::DefaultConfig();
  config.num_employees = 2;
  config.episodes = 4;
  config.batch_size = 16;
  config.update_epochs = 2;
  config.env.horizon = 20;
  config.encoder.grid = 10;
  config.net.grid = 10;
  config.net.conv1_channels = 4;
  config.net.conv2_channels = 4;
  config.net.conv3_channels = 4;
  config.net.feature_dim = 32;
  config.seed = 2;
  return config;
}

/// DrlCews::Create on a config the test knows to be valid.
std::unique_ptr<DrlCews> MakeSystem(const agents::TrainerConfig& config,
                                    const env::Map& map) {
  Result<std::unique_ptr<DrlCews>> system = DrlCews::Create(config, map);
  EXPECT_TRUE(system.ok()) << system.status().ToString();
  return std::move(system).value();
}

TEST(DrlCewsTest, DefaultConfigIsThePaperSetup) {
  const agents::TrainerConfig config = DrlCews::DefaultConfig();
  EXPECT_EQ(config.reward_mode, agents::RewardMode::kSparse);
  EXPECT_EQ(config.intrinsic, agents::IntrinsicMode::kSpatialCuriosity);
  EXPECT_EQ(config.curiosity.feature, agents::CuriosityFeature::kEmbedding);
  EXPECT_EQ(config.curiosity.structure,
            agents::CuriosityStructure::kShared);
  EXPECT_FLOAT_EQ(config.curiosity.eta, 0.3f);
  EXPECT_EQ(config.num_employees, 8);
  EXPECT_EQ(config.batch_size, 250);
  // Section VII-A environment constants.
  EXPECT_DOUBLE_EQ(config.env.initial_energy, 40.0);
  EXPECT_DOUBLE_EQ(config.env.sensing_range, 0.8);
  EXPECT_DOUBLE_EQ(config.env.collection_rate, 0.2);
  EXPECT_DOUBLE_EQ(config.env.alpha, 1.0);
  EXPECT_DOUBLE_EQ(config.env.beta, 0.1);
  EXPECT_DOUBLE_EQ(config.env.charge_range, 0.8);
  EXPECT_DOUBLE_EQ(config.env.epsilon1, 0.05);
  EXPECT_DOUBLE_EQ(config.env.epsilon2, 0.40);
}

TEST(DrlCewsTest, TrainEvaluateRoundTrip) {
  const std::unique_ptr<DrlCews> system = MakeSystem(TinyConfig(), TestMap());
  const agents::TrainResult train = system->Train();
  EXPECT_EQ(train.history.size(), 4u);
  const agents::EvalResult eval = system->Evaluate(/*episodes=*/2);
  EXPECT_GE(eval.kappa, 0.0);
  EXPECT_LE(eval.kappa, 1.0 + 1e-9);
  EXPECT_GE(eval.rho, 0.0);
}

TEST(DrlCewsTest, CheckpointRoundTripPreservesPolicy) {
  const env::Map map = TestMap();
  const std::string path = ::testing::TempDir() + "/cews_ckpt_test.bin";
  agents::TrainerConfig config = TinyConfig();

  const std::unique_ptr<DrlCews> a = MakeSystem(config, map);
  a->Train();
  ASSERT_TRUE(a->SaveCheckpoint(path).ok());

  config.seed = 777;  // different init; must be overwritten by the load
  const std::unique_ptr<DrlCews> b = MakeSystem(config, map);
  ASSERT_TRUE(b->LoadCheckpoint(path).ok());

  // Identical policies: same deterministic evaluation.
  const agents::EvalResult ea = a->Evaluate(1, /*deterministic=*/true);
  const agents::EvalResult eb = b->Evaluate(1, /*deterministic=*/true);
  EXPECT_DOUBLE_EQ(ea.kappa, eb.kappa);
  EXPECT_DOUBLE_EQ(ea.xi, eb.xi);
  std::remove(path.c_str());
}

TEST(DrlCewsTest, ExportsHeatmapCsv) {
  agents::TrainerConfig config = TinyConfig();
  config.heatmap_snapshot_every = 2;
  const std::unique_ptr<DrlCews> system = MakeSystem(config, TestMap());
  system->Train();
  const std::string path = ::testing::TempDir() + "/cews_heatmap_test.csv";
  ASSERT_TRUE(system->ExportHeatmapCsv(path).ok());
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "episode,cell_y,cell_x,curiosity");
  std::string row;
  EXPECT_TRUE(static_cast<bool>(std::getline(in, row)));  // at least one cell
  std::remove(path.c_str());
}

TEST(DrlCewsTest, ExportsTrajectoryCsv) {
  const std::unique_ptr<DrlCews> system = MakeSystem(TinyConfig(), TestMap());
  const std::string path = ::testing::TempDir() + "/cews_traj_test.csv";
  ASSERT_TRUE(system->ExportTrajectoryCsv(path).ok());
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "worker,t,x,y");
  int rows = 0;
  std::string row;
  while (std::getline(in, row)) ++rows;
  // 2 workers x (horizon + 1 spawn points).
  EXPECT_EQ(rows, 2 * 21);
  std::remove(path.c_str());
}

TEST(FullPipelineTest, MapFileToTrainedPolicyToArtifacts) {
  // The whole user journey: persist a scenario, reload it, train, write a
  // checkpoint + history + SVG, reload the checkpoint, evaluate.
  const std::string dir = ::testing::TempDir();
  const std::string map_path = dir + "/pipeline.map";
  const std::string ckpt_path = dir + "/pipeline.ckpt";
  const std::string history_path = dir + "/pipeline_history.csv";
  const std::string svg_path = dir + "/pipeline.svg";

  // 1. Scenario -> disk -> back.
  auto scenario = core::MakeScenario(core::Scenario::kEarthquakeSite, 40, 2,
                                     3, 77);
  ASSERT_TRUE(scenario.ok());
  ASSERT_TRUE(env::SaveMap(*scenario, map_path).ok());
  auto map_or = env::LoadMap(map_path);
  ASSERT_TRUE(map_or.ok());
  const env::Map map = std::move(map_or).value();

  // 2. Train (tiny) and export artifacts.
  agents::TrainerConfig config = TinyConfig();
  const std::unique_ptr<DrlCews> system = MakeSystem(config, map);
  const agents::TrainResult train = system->Train();
  ASSERT_TRUE(system->SaveCheckpoint(ckpt_path).ok());
  ASSERT_TRUE(core::WriteHistoryCsv(train.history, history_path).ok());

  env::Env env(config.env, map);
  env::StateEncoder encoder(config.encoder);
  Rng rng(5);
  agents::EvaluatePolicy(system->net(), env, encoder, rng);
  ASSERT_TRUE(
      core::WriteTrajectorySvg(map, env.trajectories(), svg_path).ok());

  // 3. A fresh system restores the exact policy from the checkpoint.
  config.seed = 31337;
  const std::unique_ptr<DrlCews> restored = MakeSystem(config, map);
  ASSERT_TRUE(restored->LoadCheckpoint(ckpt_path).ok());
  const agents::EvalResult a = system->Evaluate(1, /*deterministic=*/true);
  const agents::EvalResult b = restored->Evaluate(1, /*deterministic=*/true);
  EXPECT_DOUBLE_EQ(a.kappa, b.kappa);

  for (const std::string& path :
       {map_path, ckpt_path, history_path, svg_path}) {
    std::remove(path.c_str());
  }
}

TEST(AlgorithmsTest, NamesAndEnumeration) {
  EXPECT_EQ(AlgorithmName(Algorithm::kDrlCews), "DRL-CEWS");
  EXPECT_EQ(AlgorithmName(Algorithm::kGreedy), "Greedy");
  EXPECT_EQ(AlgorithmName(Algorithm::kDnc), "D&C");
  EXPECT_EQ(AllAlgorithms().size(), 5u);
}

TEST(AlgorithmsTest, PlannerAlgorithmsRun) {
  const env::Map map = TestMap();
  env::EnvConfig env_config;
  env_config.horizon = 30;
  BenchmarkOptions options;
  for (const Algorithm algorithm : {Algorithm::kGreedy, Algorithm::kDnc}) {
    const agents::EvalResult r =
        RunAlgorithm(algorithm, map, env_config, options);
    EXPECT_GE(r.kappa, 0.0) << AlgorithmName(algorithm);
    EXPECT_LE(r.kappa, 1.0 + 1e-9);
    EXPECT_LE(r.xi, 1.0 + 1e-9);
  }
}

TEST(AlgorithmsTest, DrlAlgorithmsRunScaledDown) {
  const env::Map map = TestMap();
  env::EnvConfig env_config;
  env_config.horizon = 15;
  BenchmarkOptions options;
  options.episodes = 2;
  options.num_employees = 1;
  options.batch_size = 8;
  options.update_epochs = 1;
  options.eval_episodes = 1;
  options.grid = 10;
  options.net.conv1_channels = 4;
  options.net.conv2_channels = 4;
  options.net.conv3_channels = 4;
  options.net.feature_dim = 32;
  for (const Algorithm algorithm :
       {Algorithm::kDrlCews, Algorithm::kDppo, Algorithm::kEdics}) {
    const agents::EvalResult r =
        RunAlgorithm(algorithm, map, env_config, options);
    EXPECT_GE(r.kappa, 0.0) << AlgorithmName(algorithm);
    EXPECT_LE(r.kappa, 1.0 + 1e-9);
  }
}

TEST(AlgorithmsTest, MakeTrainerConfigDistinguishesModes) {
  env::EnvConfig env_config;
  BenchmarkOptions options;
  const agents::TrainerConfig cews =
      MakeTrainerConfig(Algorithm::kDrlCews, env_config, options);
  EXPECT_EQ(cews.reward_mode, agents::RewardMode::kSparse);
  EXPECT_EQ(cews.intrinsic, agents::IntrinsicMode::kSpatialCuriosity);
  const agents::TrainerConfig dppo =
      MakeTrainerConfig(Algorithm::kDppo, env_config, options);
  EXPECT_EQ(dppo.reward_mode, agents::RewardMode::kDense);
  EXPECT_EQ(dppo.intrinsic, agents::IntrinsicMode::kNone);
  // Bench options override the paper's 8/250 for scaled-down runs.
  EXPECT_EQ(dppo.num_employees, options.num_employees);
  EXPECT_EQ(dppo.batch_size, options.batch_size);
}

}  // namespace
}  // namespace cews::core
