#include "agents/chief_employee.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/dppo.h"
#include "env/map.h"
#include "nn/params.h"

namespace cews::agents {
namespace {

env::Map SmallMap(uint64_t seed = 42) {
  env::MapConfig config;
  config.num_pois = 40;
  config.num_workers = 2;
  config.num_stations = 2;
  config.num_obstacles = 2;
  Rng rng(seed);
  auto result = env::GenerateMap(config, rng);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TrainerConfig TinyTrainer(int employees = 2, int episodes = 4) {
  TrainerConfig config;
  config.num_employees = employees;
  config.episodes = episodes;
  config.batch_size = 16;
  config.update_epochs = 2;
  config.env.horizon = 20;
  config.encoder.grid = 10;
  config.net.grid = 10;
  config.net.conv1_channels = 4;
  config.net.conv2_channels = 4;
  config.net.conv3_channels = 4;
  config.net.feature_dim = 32;
  config.seed = 3;
  return config;
}

TEST(TrainerTest, ProducesFullHistory) {
  ChiefEmployeeTrainer trainer(TinyTrainer(), SmallMap());
  const TrainResult result = trainer.Train();
  ASSERT_EQ(result.history.size(), 4u);
  EXPECT_GT(result.seconds, 0.0);
  for (const EpisodeRecord& rec : result.history) {
    EXPECT_GE(rec.kappa, 0.0);
    EXPECT_LE(rec.kappa, 1.0 + 1e-9);
    EXPECT_GE(rec.xi, 0.0);
    EXPECT_LE(rec.xi, 1.0 + 1e-9);
    EXPECT_GE(rec.rho, 0.0);
    EXPECT_GE(rec.intrinsic_reward, 0.0);  // curiosity active by default
  }
}

TEST(TrainerTest, AutoFillsDependentDimensions) {
  TrainerConfig config = TinyTrainer();
  config.net.num_workers = 99;  // wrong on purpose; trainer must fix it
  config.curiosity.num_cells = 1;
  ChiefEmployeeTrainer trainer(config, SmallMap());
  EXPECT_EQ(trainer.config().net.num_workers, 2);
  EXPECT_EQ(trainer.config().curiosity.num_cells, 100);
  EXPECT_EQ(trainer.config().curiosity.num_moves,
            trainer.config().env.action_space.num_moves());
  EXPECT_EQ(trainer.config().rnd.state_size, 300);
}

TEST(TrainerTest, SingleEmployeeIsDeterministic) {
  const TrainerConfig config = TinyTrainer(/*employees=*/1, /*episodes=*/3);
  const env::Map map = SmallMap();
  ChiefEmployeeTrainer a(config, map);
  ChiefEmployeeTrainer b(config, map);
  const TrainResult ra = a.Train();
  const TrainResult rb = b.Train();
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (size_t i = 0; i < ra.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.history[i].kappa, rb.history[i].kappa);
    EXPECT_DOUBLE_EQ(ra.history[i].extrinsic_reward,
                     rb.history[i].extrinsic_reward);
  }
}

/// Every EpisodeRecord field but the two wall-clock ones, bit for bit.
void ExpectSameRecords(const std::vector<EpisodeRecord>& a,
                       const std::vector<EpisodeRecord>& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].episode, b[i].episode) << what;
    const double fa[] = {a[i].kappa, a[i].xi, a[i].rho, a[i].extrinsic_reward,
                         a[i].intrinsic_reward};
    const double fb[] = {b[i].kappa, b[i].xi, b[i].rho, b[i].extrinsic_reward,
                         b[i].intrinsic_reward};
    EXPECT_EQ(std::memcmp(fa, fb, sizeof(fa)), 0)
        << what << ", episode " << i << ": kappa " << fa[0] << "/" << fb[0]
        << " xi " << fa[1] << "/" << fb[1] << " rho " << fa[2] << "/"
        << fb[2] << " extrinsic " << fa[3] << "/" << fb[3] << " intrinsic "
        << fa[4] << "/" << fb[4];
  }
}

TEST(TrainerTest, ManyEmployeesAreDeterministic) {
  // The chief sums the employees' gradient slots and their episode
  // diagnostics in employee order, so neither an update nor the history
  // depends on which employee reached the barrier first: two trainings end
  // at the same parameter bytes and the same records with 3 and 8
  // employees.
  for (const int employees : {3, 8}) {
    const TrainerConfig config = TinyTrainer(employees, /*episodes=*/3);
    const env::Map map = SmallMap();
    std::vector<float> params[2];
    TrainResult results[2];
    for (int run = 0; run < 2; ++run) {
      ChiefEmployeeTrainer trainer(config, map);
      results[run] = trainer.Train();
      params[run] = nn::FlattenValues(trainer.global_net().Parameters());
    }
    ASSERT_EQ(params[0].size(), params[1].size());
    EXPECT_EQ(std::memcmp(params[0].data(), params[1].data(),
                          params[0].size() * sizeof(float)),
              0)
        << employees << " employees";
    ExpectSameRecords(results[0].history, results[1].history,
                      std::to_string(employees) + " employees");
  }
}

TEST(TrainerTest, HeatmapSnapshotsAreDeterministic) {
  // Each employee keeps its own per-cell sums for the snapshot window and
  // the chief adds them in employee order, so the snapshot bytes do not
  // depend on thread timing.
  TrainerConfig config = TinyTrainer(/*employees=*/2, /*episodes=*/4);
  config.heatmap_snapshot_every = 2;
  const env::Map map = SmallMap();
  std::vector<HeatmapSnapshot> first;
  for (int run = 0; run < 3; ++run) {
    ChiefEmployeeTrainer trainer(config, map);
    trainer.Train();
    const std::vector<HeatmapSnapshot>& snaps = trainer.heatmap_snapshots();
    ASSERT_EQ(snaps.size(), 2u);
    if (run == 0) {
      first = snaps;
      continue;
    }
    for (size_t s = 0; s < snaps.size(); ++s) {
      EXPECT_EQ(snaps[s].episode, first[s].episode);
      ASSERT_EQ(snaps[s].cell_values.size(), first[s].cell_values.size());
      EXPECT_EQ(std::memcmp(snaps[s].cell_values.data(),
                            first[s].cell_values.data(),
                            snaps[s].cell_values.size() * sizeof(double)),
                0)
          << "run " << run << ", snapshot " << s;
    }
  }
}

TEST(TrainerTest, SecondTrainReportsFreshMetrics) {
  // A second Train() on the same trainer reports its own episodes' metrics,
  // not sums over both calls.
  ChiefEmployeeTrainer trainer(TinyTrainer(/*employees=*/2, /*episodes=*/2),
                               SmallMap());
  trainer.Train();
  const TrainResult second = trainer.Train();
  ASSERT_EQ(second.history.size(), 2u);
  for (const EpisodeRecord& rec : second.history) {
    EXPECT_GE(rec.kappa, 0.0);
    EXPECT_LE(rec.kappa, 1.0 + 1e-9);
    EXPECT_GE(rec.xi, 0.0);
    EXPECT_LE(rec.xi, 1.0 + 1e-9);
    EXPECT_GE(rec.rho, 0.0);
    EXPECT_LE(rec.rho, 1.0 + 1e-9);
  }
}

TEST(TrainerTest, DenseRewardModeRuns) {
  TrainerConfig config = TinyTrainer();
  config.reward_mode = RewardMode::kDense;
  config.intrinsic = IntrinsicMode::kNone;
  ChiefEmployeeTrainer trainer(config, SmallMap());
  const TrainResult result = trainer.Train();
  for (const EpisodeRecord& rec : result.history) {
    EXPECT_EQ(rec.intrinsic_reward, 0.0);
  }
}

TEST(TrainerTest, RndIntrinsicModeRuns) {
  TrainerConfig config = TinyTrainer(1, 2);
  config.intrinsic = IntrinsicMode::kRnd;
  ChiefEmployeeTrainer trainer(config, SmallMap());
  const TrainResult result = trainer.Train();
  double total_intrinsic = 0.0;
  for (const EpisodeRecord& rec : result.history) {
    total_intrinsic += rec.intrinsic_reward;
  }
  EXPECT_GT(total_intrinsic, 0.0);
}

TEST(TrainerTest, HeatmapSnapshotsWhenEnabled) {
  TrainerConfig config = TinyTrainer(2, 6);
  config.heatmap_snapshot_every = 2;
  ChiefEmployeeTrainer trainer(config, SmallMap());
  trainer.Train();
  const auto& snaps = trainer.heatmap_snapshots();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].episode, 2);
  EXPECT_EQ(snaps[2].episode, 6);
  for (const HeatmapSnapshot& snap : snaps) {
    ASSERT_EQ(snap.cell_values.size(), 100u);
    double total = 0.0;
    for (double v : snap.cell_values) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_GT(total, 0.0);  // workers visited somewhere
  }
}

TEST(TrainerTest, HeatmapDisabledByDefault) {
  ChiefEmployeeTrainer trainer(TinyTrainer(), SmallMap());
  trainer.Train();
  EXPECT_TRUE(trainer.heatmap_snapshots().empty());
}

TEST(TrainerTest, CuriosityVariantsAllRun) {
  for (const CuriosityFeature feature :
       {CuriosityFeature::kEmbedding, CuriosityFeature::kDirect}) {
    for (const CuriosityStructure structure :
         {CuriosityStructure::kShared, CuriosityStructure::kIndependent}) {
      TrainerConfig config = TinyTrainer(1, 2);
      config.curiosity.feature = feature;
      config.curiosity.structure = structure;
      ChiefEmployeeTrainer trainer(config, SmallMap());
      const TrainResult result = trainer.Train();
      EXPECT_EQ(result.history.size(), 2u);
    }
  }
}

TEST(TrainerTest, PeriodicCheckpointsWritten) {
  TrainerConfig config = TinyTrainer(1, 4);
  config.checkpoint_every = 2;
  config.checkpoint_prefix = ::testing::TempDir() + "/cews_trainer_ckpt_";
  ChiefEmployeeTrainer trainer(config, SmallMap());
  trainer.Train();
  for (const int episode : {2, 4}) {
    const std::string path =
        config.checkpoint_prefix + std::to_string(episode) + ".bin";
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    in.close();
    std::remove(path.c_str());
  }
  // The checkpoint is loadable into a compatible net.
  // (Round-trip correctness is covered by nn serialize tests.)
}

TEST(DppoConfigTest, FactorySetsPaperSettings) {
  TrainerConfig base;
  base.reward_mode = RewardMode::kSparse;
  base.intrinsic = IntrinsicMode::kSpatialCuriosity;
  const TrainerConfig dppo = cews::baselines::MakeDppoConfig(base);
  EXPECT_EQ(dppo.reward_mode, RewardMode::kDense);
  EXPECT_EQ(dppo.intrinsic, IntrinsicMode::kNone);
  EXPECT_EQ(dppo.num_employees, 8);
  EXPECT_EQ(dppo.batch_size, 250);
  EXPECT_TRUE(dppo.ppo.normalize_advantages);
}

}  // namespace
}  // namespace cews::agents
