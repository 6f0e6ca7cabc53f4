// Int8 quantized serving: hot-swap correctness and fp32 action agreement.
//
// The hot-swap tests use bias-dominated parameter sets (all GEMM weights
// zero, decisions forced through the fp32-exact dense biases) so the action
// a response carries identifies EXACTLY which published epoch's quantized
// bundle served it: a torn or stale bundle would produce an action that
// contradicts the response's epoch. The agreement harness runs the ISSUE's
// acceptance gate — quantized vs fp32 argmax match rate >= 99% — over
// deterministic rollouts on every core scenario, with head-scaled
// (decisive) nets standing in for trained policies.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agents/policy_net.h"
#include "agents/quant_policy.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/scenarios.h"
#include "env/env.h"
#include "env/state_encoder.h"
#include "env/vec_env.h"
#include "nn/quant.h"
#include "serve/fleet.h"
#include "serve_one_shard.h"

namespace cews::serve {
namespace {

agents::PolicyNetConfig TinyNet() {
  agents::PolicyNetConfig net;
  net.in_channels = 3;
  net.grid = 8;
  net.num_workers = 2;
  net.num_moves = 17;
  net.conv1_channels = 4;
  net.conv2_channels = 4;
  net.conv3_channels = 4;
  net.feature_dim = 32;
  return net;
}

std::vector<float> FixedState(const agents::PolicyNetConfig& net) {
  std::vector<float> state(
      static_cast<size_t>(net.in_channels * net.grid * net.grid));
  for (size_t i = 0; i < state.size(); ++i) {
    state[i] = 0.01f * static_cast<float>(i % 37);
  }
  return state;
}

/// A parameter set whose argmax decisions are forced by the head BIASES
/// (dense fp32 in the quantized bundle, hence exact): every GEMM-fed head
/// weight is zeroed, the move bias picks `move_target` for every worker and
/// the charge bias picks `charge_target`. The trunk stays random — its
/// output is irrelevant once the head weights are zero.
std::vector<nn::Tensor> BiasForcedParams(const agents::PolicyNetConfig& cfg,
                                         uint64_t seed, int move_target,
                                         int charge_target) {
  Rng rng(seed);
  const agents::PolicyNet net(cfg, rng);
  std::vector<nn::Tensor> params = net.Parameters();
  CEWS_CHECK_EQ(params.size(), 20u);
  auto zero = [](nn::Tensor& t) {
    std::fill(t.data(), t.data() + t.numel(), 0.0f);
  };
  zero(params[14]);  // move head W
  zero(params[15]);  // move head b
  zero(params[16]);  // charge head W
  zero(params[17]);  // charge head b
  for (int w = 0; w < cfg.num_workers; ++w) {
    params[15].data()[w * cfg.num_moves + move_target] = 5.0f;
    params[17].data()[w * 2 + charge_target] = 5.0f;
  }
  return params;
}

/// A "trained-looking" net: head weights scaled up 50x post-init so the
/// argmax gaps are decisive, as they are after PPO training — the regime
/// the >= 99% agreement gate is specified for (near-uniform random-init
/// heads have sub-quantization-step logit gaps by construction).
std::unique_ptr<agents::PolicyNet> DecisiveNet(
    const agents::PolicyNetConfig& cfg, uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<agents::PolicyNet>(cfg, rng);
  const std::vector<nn::Tensor> params = net->Parameters();
  for (const size_t head_w : {size_t{14}, size_t{16}, size_t{18}}) {
    nn::Tensor t = params[head_w];
    for (nn::Index i = 0; i < t.numel(); ++i) t.data()[i] *= 50.0f;
  }
  return net;
}

FleetConfig Int8ServerConfig(int threads) {
  return OneShardConfig(TinyNet(), threads, /*max_batch=*/4,
                        /*delay_us=*/100, Precision::kInt8);
}

TEST(PrecisionTest, ParseAndName) {
  EXPECT_EQ(ParsePrecision("fp32").value(), Precision::kFp32);
  EXPECT_EQ(ParsePrecision("int8").value(), Precision::kInt8);
  EXPECT_FALSE(ParsePrecision("bf16").ok());
  EXPECT_STREQ(PrecisionName(Precision::kFp32), "fp32");
  EXPECT_STREQ(PrecisionName(Precision::kInt8), "int8");
}

TEST(QuantServeTest, HotSwapServesNewQuantizedWeights) {
  const FleetConfig config = Int8ServerConfig(/*threads=*/2);
  std::unique_ptr<Fleet> fleet = MakeOneShardFleet(config);

  ASSERT_TRUE(fleet
                  ->Publish("default", BiasForcedParams(config.net, 7,
                                                        /*move=*/3,
                                                        /*charge=*/1))
                  .ok());
  ScheduleRequest request;
  request.state = FixedState(config.net);
  request.deterministic = true;
  ScheduleResponse response = fleet->Submit(std::move(request)).get();
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(response.epoch, 1u);
  for (const int move : response.act.moves) EXPECT_EQ(move, 3);
  for (const int charge : response.act.charges) EXPECT_EQ(charge, 1);

  // Second publish: the very next response must serve the NEW bundle.
  ASSERT_TRUE(fleet
                  ->Publish("default", BiasForcedParams(config.net, 9,
                                                        /*move=*/7,
                                                        /*charge=*/0))
                  .ok());
  ScheduleRequest second;
  second.state = FixedState(config.net);
  second.deterministic = true;
  response = fleet->Submit(std::move(second)).get();
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(response.epoch, 2u);
  for (const int move : response.act.moves) EXPECT_EQ(move, 7);
  for (const int charge : response.act.charges) EXPECT_EQ(charge, 0);
}

TEST(QuantServeTest, ConcurrentPublishesNeverServeTornBundles) {
  const FleetConfig config = Int8ServerConfig(/*threads=*/3);
  std::unique_ptr<Fleet> fleet = MakeOneShardFleet(config);

  // Odd epochs serve move 3 / charge 1, even epochs move 7 / charge 0.
  const std::vector<nn::Tensor> odd =
      BiasForcedParams(config.net, 7, /*move=*/3, /*charge=*/1);
  const std::vector<nn::Tensor> even =
      BiasForcedParams(config.net, 9, /*move=*/7, /*charge=*/0);

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (int p = 0; p < 40 && !stop.load(); ++p) {
      ASSERT_TRUE(fleet->Publish("default", p % 2 == 0 ? odd : even).ok());
      std::this_thread::yield();
    }
    stop.store(true);
  });

  uint64_t last_epoch = 0;
  int served = 0;
  while (!stop.load() || served == 0) {
    ScheduleRequest request;
    request.state = FixedState(config.net);
    request.deterministic = true;
    const ScheduleResponse response =
        fleet->Submit(std::move(request)).get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    if (response.epoch == 0) continue;  // before the first publish landed
    ++served;
    // Epochs move forward for a single client stream...
    EXPECT_GE(response.epoch, last_epoch);
    last_epoch = response.epoch;
    // ...and the served actions must be EXACTLY the publishing epoch's:
    // a torn/stale bundle would mix move targets or disagree with epoch.
    const int want_move = response.epoch % 2 == 1 ? 3 : 7;
    const int want_charge = response.epoch % 2 == 1 ? 1 : 0;
    for (const int move : response.act.moves) EXPECT_EQ(move, want_move);
    for (const int charge : response.act.charges) {
      EXPECT_EQ(charge, want_charge);
    }
  }
  publisher.join();
  EXPECT_GT(served, 0);
}

TEST(QuantServeTest, Int8FleetServesAllScenarios) {
  FleetConfig config;
  config.net = TinyNet();
  config.num_shards = 2;
  config.threads_per_shard = 1;
  config.runtime_threads = 1;
  config.seed = 5;
  config.precision = Precision::kInt8;
  config.scenarios = {"default", "earthquake-site"};
  Result<std::unique_ptr<Fleet>> created = Fleet::Create(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const std::unique_ptr<Fleet> fleet = std::move(created).value();
  EXPECT_EQ(fleet->precision(), Precision::kInt8);
  for (const std::string& scenario : config.scenarios) {
    ScheduleRequest request;
    request.state = FixedState(config.net);
    request.scenario = scenario;
    request.deterministic = true;
    const ScheduleResponse response =
        fleet->Submit(std::move(request)).get();
    ASSERT_TRUE(response.ok())
        << scenario << ": " << response.status.ToString();
    EXPECT_EQ(response.epoch, 0u);
  }
}

TEST(QuantServeTest, AgreementAtLeast99PercentAcrossScenarioSuite) {
  const agents::PolicyNetConfig cfg = TinyNet();
  const std::unique_ptr<agents::PolicyNet> net = DecisiveNet(cfg, 1234);
  const nn::quant::QuantizedParams qp =
      agents::QuantizePolicyParams(net->Parameters());
  const env::StateEncoder encoder(env::StateEncoderConfig{cfg.grid});

  agents::AgreementStats total;
  for (const core::Scenario scenario : core::AllScenarios()) {
    Result<env::Map> map = core::MakeScenario(
        scenario, /*pois=*/12, /*workers=*/cfg.num_workers, /*stations=*/2,
        /*seed=*/99);
    ASSERT_TRUE(map.ok()) << map.status().ToString();
    // Greedy rollout under the fp32 policy, scoring agreement on every
    // visited state.
    env::VecEnv envs(env::EnvConfig{}, map.value(), 1);
    const agents::AgreementStats stats =
        agents::ProbeActionAgreement(*net, qp, encoder, envs, /*steps=*/24);
    ASSERT_GT(stats.states, 0) << core::ScenarioName(scenario);
    // Per-scenario floor: with ~96 decisions per rollout a 99% bar would
    // demand a perfect score (one near-tie argmax flip = 98.96%), so each
    // scenario only guards against collapse; the >= 99% acceptance gate is
    // enforced suite-wide below, where the sample is 4x larger.
    EXPECT_GE(stats.rate(), 0.97)
        << core::ScenarioName(scenario) << ": " << stats.matched << "/"
        << stats.decisions;
    total.decisions += stats.decisions;
    total.matched += stats.matched;
  }
  EXPECT_GE(total.rate(), 0.99)
      << "suite-wide: " << total.matched << "/" << total.decisions;
}

}  // namespace
}  // namespace cews::serve
