// The distributed trainer's headline contract: a chief + N forked employee
// processes exchanging parameters and rollouts over real sockets produce
// BITWISE-identical final parameters to TrainDistReference (the same cores
// driven in rank order in one process, no transport). Everything the wire
// touches — float bit patterns, merge order, seed derivations — has to be
// exact for this to hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agents/eval.h"
#include "agents/policy_net.h"
#include "common/rng.h"
#include "dist/channel.h"
#include "dist/deploy_loop.h"
#include "dist/trainer.h"
#include "dist/wire.h"
#include "env/map.h"
#include "env/state_encoder.h"
#include "nn/params.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "serve/fleet.h"

namespace cews::dist {
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

std::string TempAddress(const char* tag) {
  return std::string("unix:/tmp/cews_dist_eq_") + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

DistTrainerConfig TinyDistConfig(agents::IntrinsicMode intrinsic,
                                 int envs_per_employee, const char* tag) {
  DistTrainerConfig cfg;
  cfg.trainer.num_employees = 2;
  cfg.trainer.episodes = 3;
  cfg.trainer.batch_size = 16;
  cfg.trainer.update_epochs = 2;
  cfg.trainer.envs_per_employee = envs_per_employee;
  cfg.trainer.runtime_threads = 1;  // fork safety: no kernel pool threads
  cfg.trainer.env.horizon = 10;
  cfg.trainer.encoder.grid = 10;
  cfg.trainer.net.grid = 10;
  cfg.trainer.net.conv1_channels = 4;
  cfg.trainer.net.conv2_channels = 4;
  cfg.trainer.net.conv3_channels = 4;
  cfg.trainer.net.feature_dim = 32;
  cfg.trainer.intrinsic = intrinsic;
  cfg.trainer.seed = 5;
  cfg.address = TempAddress(tag);
  return cfg;
}

void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what << " size mismatch";
  if (a.empty()) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << " values are not bitwise identical";
}

/// Runs the reference, then the real multi-process version, and demands
/// bitwise-identical results.
void RunEquivalence(DistTrainerConfig cfg, const env::Map& map) {
  auto ref = TrainDistReference(cfg, map);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  ChiefServer server(cfg, map);
  ASSERT_TRUE(server.Bind().ok());
  cfg.address = server.address();  // resolved (tcp port 0 -> real port)
  auto pids = SpawnEmployees(cfg, map);
  ASSERT_TRUE(pids.ok()) << pids.status().ToString();

  DistTrainResult result;
  const Status run_status = server.Run(&result);
  const Status reap_status = ReapEmployees(*pids);
  ASSERT_TRUE(run_status.ok()) << run_status.ToString();
  ASSERT_TRUE(reap_status.ok()) << reap_status.ToString();

  ExpectBitwiseEqual(result.final_policy, ref->final_policy, "final_policy");
  ExpectBitwiseEqual(result.final_intrinsic, ref->final_intrinsic,
                     "final_intrinsic");

  // The per-iteration records must agree exactly too (same merged buffers,
  // same metrics) — only wall-clock fields may differ.
  ASSERT_EQ(result.history.size(), ref->history.size());
  for (size_t i = 0; i < result.history.size(); ++i) {
    EXPECT_EQ(result.history[i].kappa, ref->history[i].kappa) << "iter " << i;
    EXPECT_EQ(result.history[i].xi, ref->history[i].xi) << "iter " << i;
    EXPECT_EQ(result.history[i].extrinsic_reward,
              ref->history[i].extrinsic_reward)
        << "iter " << i;
    EXPECT_EQ(result.history[i].intrinsic_reward,
              ref->history[i].intrinsic_reward)
        << "iter " << i;
  }
  EXPECT_GT(result.bytes_tx, 0u);
  EXPECT_GT(result.bytes_rx, 0u);
}

TEST(DistEquivalenceTest, SpatialCuriositySingleEnvBitwise) {
  const env::Map map = SmallMap();
  RunEquivalence(
      TinyDistConfig(agents::IntrinsicMode::kSpatialCuriosity, 1, "spatial"),
      map);
}

TEST(DistEquivalenceTest, RndTwoEnvsPerEmployeeBitwise) {
  const env::Map map = SmallMap();
  RunEquivalence(TinyDistConfig(agents::IntrinsicMode::kRnd, 2, "rnd"), map);
}

TEST(DistEquivalenceTest, NoIntrinsicOverTcpBitwise) {
  const env::Map map = SmallMap();
  DistTrainerConfig cfg =
      TinyDistConfig(agents::IntrinsicMode::kNone, 1, "unused");
  cfg.address = "tcp:127.0.0.1:0";  // ephemeral port, resolved by Bind
  RunEquivalence(cfg, map);
}

TEST(DistEquivalenceTest, HandshakeRejectsConfigMismatch) {
  const env::Map map = SmallMap();
  DistTrainerConfig cfg =
      TinyDistConfig(agents::IntrinsicMode::kNone, 1, "mismatch");
  cfg.trainer.num_employees = 1;
  cfg.handshake_timeout_ms = 5000;

  ChiefServer server(cfg, map);
  ASSERT_TRUE(server.Bind().ok());
  cfg.address = server.address();

  // The employee trains a different problem (different seed -> different
  // hash): the chief must refuse it during the handshake.
  DistTrainerConfig skewed = cfg;
  skewed.trainer.seed += 1;
  auto pids = SpawnEmployees(skewed, map);
  ASSERT_TRUE(pids.ok());
  DistTrainResult result;
  const Status run_status = server.Run(&result);
  (void)ReapEmployees(*pids);  // the refused employee exits non-zero
  ASSERT_FALSE(run_status.ok());
  EXPECT_EQ(run_status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(run_status.message().find("hash mismatch"), std::string::npos);
}

TEST(DistEquivalenceTest, ChiefRejectsRolloutThatDoesNotFitItsConfig) {
  const env::Map map = SmallMap();
  DistTrainerConfig cfg =
      TinyDistConfig(agents::IntrinsicMode::kNone, 1, "misfit");
  cfg.trainer.num_employees = 1;
  cfg.handshake_timeout_ms = 5000;
  cfg.liveness_timeout_ms = 5000;

  ChiefServer server(cfg, map);
  ASSERT_TRUE(server.Bind().ok());
  const std::string address = server.address();
  const agents::TrainerConfig norm = NormalizeConfig(cfg.trainer, map);

  // A fake employee: the real handshake, then a CRC-valid rollout frame
  // whose states are one float short of the encoder's size. The learner
  // CHECK-aborts on such a buffer; the chief must refuse it first.
  std::jthread employee([&address, &norm, &map] {
    auto ch_or = Channel::Dial(address);
    ASSERT_TRUE(ch_or.ok()) << ch_or.status().ToString();
    Channel ch = std::move(*ch_or);
    Hello hello;
    hello.rank = 0;
    hello.config_hash = ConfigHash(norm, map);
    ASSERT_TRUE(ch.Send(FrameType::kHello, PackHello(hello)).ok());
    ASSERT_TRUE(ExpectFrame(ch, FrameType::kWelcome, 5000).ok());
    ASSERT_TRUE(ExpectFrame(ch, FrameType::kParams, 5000).ok());

    RolloutPayload payload;
    agents::RolloutBuffer buffer;
    const int state_size = env::StateEncoder(norm.encoder).StateSize();
    for (int t = 0; t < norm.env.horizon; ++t) {
      agents::Transition tr;
      tr.state.assign(static_cast<size_t>(state_size - 1), 0.5f);
      tr.moves.assign(static_cast<size_t>(norm.net.num_workers), 0);
      tr.charges.assign(static_cast<size_t>(norm.net.num_workers), 0);
      tr.done = t == norm.env.horizon - 1;
      buffer.Add(std::move(tr));
    }
    buffer.ComputeAdvantages(0.99f, 0.95f, 0.0f);
    payload.buffers.push_back(std::move(buffer));
    ASSERT_TRUE(ch.Send(FrameType::kRollout, PackRollout(payload)).ok());
    // Wait for the chief to hang up.
    (void)ch.Recv(5000);
  });

  DistTrainResult result;
  const Status run_status = server.Run(&result);
  ASSERT_FALSE(run_status.ok());
  EXPECT_EQ(run_status.code(), StatusCode::kIOError);
  EXPECT_NE(run_status.message().find("does not fit"), std::string::npos)
      << run_status.ToString();
}

TEST(DistEquivalenceTest, MergeRolloutsIsRankMajor) {
  // Two payloads whose buffers carry distinguishable rewards: after the
  // merge, rank 0's transitions must come first, in order.
  auto make = [](uint32_t rank, float tag) {
    RolloutPayload p;
    p.rank = rank;
    p.iteration = 0;
    agents::RolloutBuffer buffer;
    for (int t = 0; t < 3; ++t) {
      agents::Transition tr;
      tr.state = {tag + static_cast<float>(t)};
      tr.moves = {0};
      tr.charges = {0};
      tr.reward = tag + static_cast<float>(t);
      tr.done = t == 2;
      buffer.Add(std::move(tr));
    }
    buffer.ComputeAdvantages(0.99f, 0.95f, 0.0f);
    p.buffers.push_back(std::move(buffer));
    p.stats.env_steps = 3;
    return p;
  };
  std::vector<RolloutPayload> payloads;
  payloads.push_back(make(0, 100.0f));
  payloads.push_back(make(1, 200.0f));
  const MergedRollout merged = MergeRollouts(std::move(payloads));
  ASSERT_EQ(merged.buffer.size(), 6u);
  EXPECT_EQ(merged.buffer[0].reward, 100.0f);
  EXPECT_EQ(merged.buffer[2].reward, 102.0f);
  EXPECT_EQ(merged.buffer[3].reward, 200.0f);
  EXPECT_EQ(merged.buffer[5].reward, 202.0f);
  EXPECT_EQ(merged.totals.env_steps, 6);
}

// ---------------------------------------------------------------------------
// The deploy gate (DeployLoop) in front of a live fleet. These cases start
// fleet threads, so they stay after every case that forks employees.
// ---------------------------------------------------------------------------

/// A gate over SmallMap's tiny-net problem, publishing into a one-shard
/// fleet at `precision` (built first, by MakeFleet) every 2 iterations.
struct GateRig {
  GateRig(serve::Precision precision, double agreement_min, const char* tag)
      : map(SmallMap()),
        config(NormalizeConfig(
            TinyDistConfig(agents::IntrinsicMode::kNone, 1, tag).trainer,
            map)) {
    options.publish_every = 2;
    options.snapshot_path = ::testing::TempDir() + "cews_gate_" + tag + "_" +
                            std::to_string(::getpid()) + ".bin";
    options.agreement_min = agreement_min;
    serve::FleetConfig fleet_config;
    fleet_config.net = config.net;
    fleet_config.scenarios = {options.scenario};
    fleet_config.precision = precision;
    auto created = serve::Fleet::Create(fleet_config);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    fleet = std::move(created).value();
    loop = std::make_unique<DeployLoop>(options, config, map, fleet.get());
  }
  ~GateRig() { std::remove(options.snapshot_path.c_str()); }

  uint64_t epoch() const { return fleet->Epoch(options.scenario).value(); }

  /// The gate's score of `net`: the mean kappa of its greedy eval.
  double Score(const agents::PolicyNet& net) const {
    env::VecEnv envs(config.env, map, options.eval_envs);
    Rng rng(options.eval_seed);
    double score = 0.0;
    for (const agents::EvalResult& r : agents::EvaluatePolicyVec(
             net, envs, env::StateEncoder(config.encoder), rng, true)) {
      score += r.kappa / options.eval_envs;
    }
    return score;
  }

  env::Map map;
  agents::TrainerConfig config;
  DeployOptions options;
  std::unique_ptr<serve::Fleet> fleet;
  std::unique_ptr<DeployLoop> loop;
};

TEST(DeployGateTest, OffCadenceIterationIsANoOp) {
  GateRig rig(serve::Precision::kFp32, 0.99, "offcadence");
  Rng rng(1);
  const agents::PolicyNet net(rig.config.net, rng);
  ASSERT_TRUE(rig.loop->MaybePublish(/*iteration=*/0, net).ok());
  EXPECT_EQ(rig.loop->accepted(), 0);
  EXPECT_EQ(rig.loop->rejected(), 0);
  EXPECT_EQ(rig.epoch(), 0u);
  EXPECT_FALSE(nn::LoadParameters(rig.options.snapshot_path,
                                  net.Parameters())
                   .ok());  // nothing was saved
}

TEST(DeployGateTest, ScoreRegressionIsRejected) {
  GateRig rig(serve::Precision::kFp32, 0.99, "regression");
  // A freshly initialized net, then one with every parameter zeroed: its
  // logits all tie, so every worker always takes move 0 (stay), and it
  // scores lower.
  Rng rng(1);
  const agents::PolicyNet good(rig.config.net, rng);
  const agents::PolicyNet idle(rig.config.net, rng);
  for (nn::Tensor t : idle.Parameters()) {
    std::fill(t.data(), t.data() + t.numel(), 0.0f);
  }
  ASSERT_GT(rig.Score(good), rig.Score(idle));

  ASSERT_TRUE(rig.loop->MaybePublish(1, good).ok());
  EXPECT_EQ(rig.loop->accepted(), 1);
  EXPECT_EQ(rig.epoch(), 1u);
  ASSERT_TRUE(rig.loop->MaybePublish(3, idle).ok());
  EXPECT_EQ(rig.loop->rejected(), 1);
  EXPECT_EQ(rig.loop->accepted(), 1);
  EXPECT_EQ(rig.epoch(), 1u);
  EXPECT_EQ(rig.loop->published_score(), rig.Score(good));
}

TEST(DeployGateTest, Int8AgreementBelowTheBarIsRejected) {
  GateRig rig(serve::Precision::kInt8, 1.01, "int8reject");
  obs::Gauge* const agreement = obs::GetGauge("dist.publish.agreement");
  agreement->Set(-1.0);
  Rng rng(1);
  const agents::PolicyNet net(rig.config.net, rng);
  ASSERT_TRUE(rig.loop->MaybePublish(1, net).ok());
  EXPECT_EQ(rig.loop->rejected(), 1);
  EXPECT_EQ(rig.loop->accepted(), 0);
  EXPECT_EQ(rig.epoch(), 0u);
  EXPECT_GE(agreement->Get(), 0.0);
  EXPECT_LE(agreement->Get(), 1.0);
}

TEST(DeployGateTest, Int8AgreementAtTheBarPublishesTheSnapshot) {
  GateRig rig(serve::Precision::kInt8, 0.0, "int8accept");
  Rng rng(1);
  const agents::PolicyNet net(rig.config.net, rng);
  ASSERT_TRUE(rig.loop->MaybePublish(1, net).ok());
  EXPECT_EQ(rig.loop->accepted(), 1);
  EXPECT_EQ(rig.loop->rejected(), 0);
  EXPECT_EQ(rig.epoch(), 1u);
  Rng other(2);
  const agents::PolicyNet loaded(rig.config.net, other);
  ASSERT_TRUE(
      nn::LoadParameters(rig.options.snapshot_path, loaded.Parameters()).ok());
  EXPECT_EQ(nn::FlattenValues(loaded.Parameters()),
            nn::FlattenValues(net.Parameters()));
}

}  // namespace
}  // namespace cews::dist
