#include "agents/async_trainer.h"

#include <gtest/gtest.h>

#include "agents/chief_employee.h"
#include "agents/reward_normalizer.h"
#include "env/map.h"

namespace cews::agents {
namespace {

TEST(VtraceTest, ReducesToDiscountedReturnsOnPolicy) {
  // ratios = 1 everywhere and V = 0: vs_t = discounted return.
  const std::vector<float> rewards = {1.0f, 0.0f, 2.0f};
  const std::vector<bool> dones = {false, false, true};
  const std::vector<float> values = {0.0f, 0.0f, 0.0f, 0.0f};
  const std::vector<float> ratios = {1.0f, 1.0f, 1.0f};
  const VtraceResult r =
      ComputeVtrace(rewards, dones, values, ratios, 0.5f);
  EXPECT_NEAR(r.vs[2], 2.0f, 1e-6);
  EXPECT_NEAR(r.vs[1], 0.0f + 0.5f * 2.0f, 1e-6);
  EXPECT_NEAR(r.vs[0], 1.0f + 0.5f * 1.0f, 1e-6);
  // With V = 0, pg advantage equals r + gamma * vs_{t+1}.
  EXPECT_NEAR(r.pg_advantages[0], 1.0f + 0.5f * 1.0f, 1e-6);
}

TEST(VtraceTest, PerfectValueFunctionGivesZeroCorrections) {
  // When V already equals the true return, vs == V and advantages vanish.
  const std::vector<float> rewards = {1.0f, 1.0f};
  const std::vector<bool> dones = {false, true};
  const std::vector<float> values = {1.0f + 0.9f, 1.0f, 0.0f};
  const std::vector<float> ratios = {1.0f, 1.0f};
  const VtraceResult r =
      ComputeVtrace(rewards, dones, values, ratios, 0.9f);
  EXPECT_NEAR(r.vs[0], values[0], 1e-6);
  EXPECT_NEAR(r.vs[1], values[1], 1e-6);
  EXPECT_NEAR(r.pg_advantages[0], 0.0f, 1e-6);
  EXPECT_NEAR(r.pg_advantages[1], 0.0f, 1e-6);
}

TEST(VtraceTest, RhoBarClipsLargeRatios) {
  const std::vector<float> rewards = {1.0f};
  const std::vector<bool> dones = {true};
  const std::vector<float> values = {0.0f, 0.0f};
  const std::vector<float> big = {10.0f};
  const VtraceResult clipped =
      ComputeVtrace(rewards, dones, values, big, 0.9f, /*rho_bar=*/1.0f);
  EXPECT_NEAR(clipped.vs[0], 1.0f, 1e-6);  // delta clipped to rho=1
  const VtraceResult loose =
      ComputeVtrace(rewards, dones, values, big, 0.9f, /*rho_bar=*/20.0f);
  EXPECT_NEAR(loose.vs[0], 10.0f, 1e-6);
}

TEST(VtraceTest, SmallRatiosShrinkCorrections) {
  const std::vector<float> rewards = {1.0f, 1.0f};
  const std::vector<bool> dones = {false, true};
  const std::vector<float> values = {0.0f, 0.0f, 0.0f};
  const std::vector<float> tiny = {0.1f, 0.1f};
  const VtraceResult r = ComputeVtrace(rewards, dones, values, tiny, 0.9f);
  // delta_1 = 0.1; vs_0 = 0.1*(1) + 0.9*0.1*(0.1) = 0.109.
  EXPECT_NEAR(r.vs[1], 0.1f, 1e-6);
  EXPECT_NEAR(r.vs[0], 0.1f + 0.9f * 0.1f * 0.1f, 1e-6);
}

TEST(VtraceTest, DoneCutsTheTrace) {
  const std::vector<float> rewards = {0.0f, 5.0f};
  const std::vector<bool> dones = {true, true};
  const std::vector<float> values = {0.0f, 0.0f, 0.0f};
  const std::vector<float> ratios = {1.0f, 1.0f};
  const VtraceResult r = ComputeVtrace(rewards, dones, values, ratios, 0.9f);
  EXPECT_NEAR(r.vs[0], 0.0f, 1e-6);  // sees none of the 5
}

env::Map SmallMap() {
  env::MapConfig config;
  config.num_pois = 30;
  config.num_workers = 2;
  Rng rng(6);
  auto result = env::GenerateMap(config, rng);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

AsyncTrainerConfig TinyAsync(bool vtrace) {
  AsyncTrainerConfig config;
  config.num_employees = 2;
  config.episodes = 3;
  config.use_vtrace = vtrace;
  config.env.horizon = 15;
  config.encoder.grid = 10;
  config.net.grid = 10;
  config.net.conv1_channels = 4;
  config.net.conv2_channels = 4;
  config.net.conv3_channels = 4;
  config.net.feature_dim = 32;
  config.seed = 4;
  return config;
}

TEST(AsyncTrainerTest, RunsWithVtrace) {
  AsyncTrainer trainer(TinyAsync(true), SmallMap());
  const TrainResult result = trainer.Train();
  EXPECT_EQ(result.history.size(), 6u);  // 2 employees x 3 episodes
  for (const EpisodeRecord& rec : result.history) {
    EXPECT_GE(rec.kappa, 0.0);
    EXPECT_LE(rec.kappa, 1.0 + 1e-9);
  }
}

TEST(AsyncTrainerTest, RunsWithoutVtrace) {
  AsyncTrainer trainer(TinyAsync(false), SmallMap());
  const TrainResult result = trainer.Train();
  EXPECT_EQ(result.history.size(), 6u);
  EXPECT_GT(result.seconds, 0.0);
}

TEST(RunningStatTest, MatchesClosedForm) {
  RunningStat stat;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.Push(x);
  EXPECT_EQ(stat.count(), 8);
  EXPECT_NEAR(stat.mean(), 5.0, 1e-12);
  EXPECT_NEAR(stat.variance(), 4.0, 1e-12);
  EXPECT_NEAR(stat.stddev(), 2.0, 1e-12);
}

TEST(RunningStatTest, DegenerateCases) {
  RunningStat stat;
  EXPECT_EQ(stat.variance(), 0.0);
  stat.Push(3.0);
  EXPECT_EQ(stat.variance(), 0.0);
  EXPECT_EQ(stat.mean(), 3.0);
}

TEST(RewardNormalizerTest, PassesThroughEarlySamples) {
  RewardNormalizer normalizer(0.99f);
  EXPECT_FLOAT_EQ(normalizer.Normalize(5.0f), 5.0f);
}

TEST(RewardNormalizerTest, ShrinksLargeRewardsEventually) {
  RewardNormalizer normalizer(0.9f);
  Rng rng(2);
  float last = 0.0f;
  for (int i = 0; i < 500; ++i) {
    last = normalizer.Normalize(
        static_cast<float>(rng.Uniform(5.0, 15.0)));
  }
  // Discounted-return proxy of ~10/(1-0.9) = 100 -> rewards scaled well
  // below their raw magnitude.
  EXPECT_LT(std::abs(last), 2.0f);
  EXPECT_GT(normalizer.stat().stddev(), 1.0);
}

TEST(RewardNormalizerTest, EndEpisodeResetsTheReturnOnly) {
  RewardNormalizer normalizer(1.0f);
  for (int i = 0; i < 50; ++i) normalizer.Normalize(1.0f);
  const int64_t count = normalizer.stat().count();
  normalizer.EndEpisode();
  EXPECT_EQ(normalizer.stat().count(), count);  // stats persist
}

TEST(RewardNormalizerTest, TrainerIntegration) {
  TrainerConfig config;
  config.num_employees = 1;
  config.episodes = 2;
  config.batch_size = 8;
  config.update_epochs = 1;
  config.env.horizon = 10;
  config.encoder.grid = 10;
  config.net.grid = 10;
  config.net.conv1_channels = 4;
  config.net.conv2_channels = 4;
  config.net.conv3_channels = 4;
  config.net.feature_dim = 32;
  config.normalize_rewards = true;
  ChiefEmployeeTrainer trainer(config, SmallMap());
  const TrainResult result = trainer.Train();
  EXPECT_EQ(result.history.size(), 2u);
}

}  // namespace
}  // namespace cews::agents
