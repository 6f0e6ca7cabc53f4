// The single-shard serving cases: one shard of a serve::Fleet
// (serve_one_shard.h) serving pre-encoded and server-encoded states,
// rejecting malformed requests, batching by size and by timeout, and
// hot-swapping its default scenario's parameters without ever serving a
// torn set.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "agents/eval.h"
#include "agents/policy_net.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"
#include "env/env.h"
#include "env/state_encoder.h"
#include "nn/params.h"
#include "nn/serialize.h"
#include "serve/fleet.h"
#include "serve/loadgen.h"
#include "serve_one_shard.h"

namespace cews::serve {
namespace {

/// Small net matching the default 17-move action space; grid 8 keeps the
/// forward cheap enough for sanitizer runs.
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

FleetConfig ServerConfig(int threads, int max_batch, int64_t delay_us) {
  return OneShardConfig(TinyNet(), threads, max_batch, delay_us);
}

/// 10x10 two-worker map (matches TinyNet().num_workers).
env::Map TinyMap() {
  env::Map map;
  map.config.size_x = 10.0;
  map.config.size_y = 10.0;
  map.config.hard_corner = false;
  map.pois = {env::Poi{{3.0, 3.0}, 1.0}, env::Poi{{7.0, 6.0}, 1.0}};
  map.stations = {env::ChargingStation{{1.0, 1.0}}};
  map.worker_spawns = {{2.0, 2.0}, {8.0, 8.0}};
  return map;
}

/// An arbitrary (but fixed) pre-encoded state for TinyNet.
std::vector<float> FixedState() {
  std::vector<float> state(3 * 8 * 8);
  for (size_t i = 0; i < state.size(); ++i) {
    state[i] = 0.01f * static_cast<float>(i % 37);
  }
  return state;
}

TEST(PolicyServerTest, ServesPreEncodedState) {
  std::unique_ptr<Fleet> fleet = MakeOneShardFleet(
      ServerConfig(/*threads=*/1, /*max_batch=*/4, /*delay_us=*/100));
  ScheduleRequest request;
  request.state = FixedState();
  const ScheduleResponse response = fleet->Submit(std::move(request)).get();
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(response.epoch, 0u);
  EXPECT_EQ(response.act.moves.size(), 2u);
  EXPECT_EQ(response.act.charges.size(), 2u);
  EXPECT_EQ(response.act.actions.size(), 2u);
  EXPECT_EQ(response.move_logits.size(), 2u * 17u);
  EXPECT_EQ(response.charge_logits.size(), 2u * 2u);
  EXPECT_TRUE(std::isfinite(response.act.value));
  EXPECT_GE(response.batch_size, 1);
  EXPECT_GT(response.latency_ns, 0u);
}

TEST(PolicyServerTest, ServerSideEncodingMatchesPreEncoded) {
  std::unique_ptr<Fleet> fleet = MakeOneShardFleet(
      ServerConfig(/*threads=*/1, /*max_batch=*/4, /*delay_us=*/100));
  const env::Map map = TinyMap();
  env::Env env(env::EnvConfig{}, map);
  const env::StateEncoder encoder(env::StateEncoderConfig{8});

  ScheduleRequest pre;
  pre.state = encoder.Encode(env);
  pre.deterministic = true;
  ScheduleRequest raw;
  raw.env = &env;
  raw.deterministic = true;

  const ScheduleResponse a = fleet->Submit(std::move(pre)).get();
  const ScheduleResponse b = fleet->Submit(std::move(raw)).get();
  ASSERT_TRUE(a.ok()) << a.status.ToString();
  ASSERT_TRUE(b.ok()) << b.status.ToString();
  // Same snapshot, same observation, argmax decisions: the two encoding
  // paths must agree bitwise.
  EXPECT_EQ(a.act.moves, b.act.moves);
  EXPECT_EQ(a.act.charges, b.act.charges);
  EXPECT_EQ(a.act.value, b.act.value);
  EXPECT_EQ(a.move_logits, b.move_logits);
  EXPECT_EQ(a.charge_logits, b.charge_logits);
}

TEST(PolicyServerTest, RejectsMalformedRequests) {
  std::unique_ptr<Fleet> fleet = MakeOneShardFleet(
      ServerConfig(/*threads=*/1, /*max_batch=*/4, /*delay_us=*/100));

  {
    ScheduleRequest request;  // neither state nor env
    const ScheduleResponse response =
        fleet->Submit(std::move(request)).get();
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  }
  {
    ScheduleRequest request;
    request.state = {1.0f, 2.0f};  // wrong size
    const ScheduleResponse response =
        fleet->Submit(std::move(request)).get();
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  }
  {
    ScheduleRequest request;
    request.state = FixedState();
    request.move_mask.assign(5, 1);  // wrong mask size
    const ScheduleResponse response =
        fleet->Submit(std::move(request)).get();
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  }
  {
    env::Map one_worker = TinyMap();
    one_worker.worker_spawns = {{2.0, 2.0}};
    env::Env env(env::EnvConfig{}, one_worker);
    ScheduleRequest request;
    request.env = &env;  // fleet size mismatch
    const ScheduleResponse response =
        fleet->Submit(std::move(request)).get();
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  }
}

TEST(PolicyServerTest, RejectsNonFiniteState) {
  // A NaN or infinity in a pre-encoded state is refused before it reaches
  // a forward, at either precision.
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    FleetConfig config =
        ServerConfig(/*threads=*/1, /*max_batch=*/4, /*delay_us=*/100);
    config.precision = precision;
    std::unique_ptr<Fleet> fleet = MakeOneShardFleet(config);
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
      ScheduleRequest request;
      request.state = FixedState();
      request.state[17] = bad;
      const ScheduleResponse response =
          fleet->Submit(std::move(request)).get();
      EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument)
          << PrecisionName(precision) << " " << bad;
    }
    ScheduleRequest request;
    request.state = FixedState();
    const ScheduleResponse response = fleet->Submit(std::move(request)).get();
    EXPECT_TRUE(response.ok()) << response.status.ToString();
  }
}

TEST(PolicyServerTest, MoveMaskConfinesDecisions) {
  std::unique_ptr<Fleet> fleet = MakeOneShardFleet(
      ServerConfig(/*threads=*/1, /*max_batch=*/4, /*delay_us=*/100));
  // Worker 0 may only take move 3, worker 1 only move 5; sampling then has
  // a single non-(-1e9) logit per worker to draw from.
  std::vector<uint8_t> mask(2 * 17, 0);
  mask[3] = 1;
  mask[17 + 5] = 1;
  ScheduleRequest request;
  request.state = FixedState();
  request.move_mask = mask;
  const ScheduleResponse response = fleet->Submit(std::move(request)).get();
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  ASSERT_EQ(response.act.moves.size(), 2u);
  EXPECT_EQ(response.act.moves[0], 3);
  EXPECT_EQ(response.act.moves[1], 5);
  // The returned logits are the post-masking ones actually sampled from.
  for (int w = 0; w < 2; ++w) {
    for (int m = 0; m < 17; ++m) {
      const float logit = response.move_logits[static_cast<size_t>(w * 17 + m)];
      if (mask[static_cast<size_t>(w * 17 + m)] == 0) {
        EXPECT_EQ(logit, -1e9f) << "worker " << w << " move " << m;
      } else {
        EXPECT_GT(logit, -1e8f);
      }
    }
  }
}

TEST(PolicyServerTest, DeterministicRequestsRepeat) {
  std::unique_ptr<Fleet> fleet = MakeOneShardFleet(
      ServerConfig(/*threads=*/2, /*max_batch=*/4, /*delay_us=*/100));
  ScheduleRequest first;
  first.state = FixedState();
  first.deterministic = true;
  ScheduleRequest second = first;
  const ScheduleResponse a = fleet->Submit(std::move(first)).get();
  const ScheduleResponse b = fleet->Submit(std::move(second)).get();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.act.moves, b.act.moves);
  EXPECT_EQ(a.act.charges, b.act.charges);
  EXPECT_EQ(a.move_logits, b.move_logits);
}

TEST(PolicyServerTest, FlushBySizeSharesOneBatch) {
  // Delay long enough that only the size trigger can flush this quickly.
  std::unique_ptr<Fleet> fleet = MakeOneShardFleet(
      ServerConfig(/*threads=*/1, /*max_batch=*/3, /*delay_us=*/500'000));
  std::vector<std::future<ScheduleResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    ScheduleRequest request;
    request.state = FixedState();
    futures.push_back(fleet->Submit(std::move(request)));
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::future<ScheduleResponse>& f : futures) {
    const ScheduleResponse response = f.get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    EXPECT_EQ(response.batch_size, 3);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(400));
}

TEST(PolicyServerTest, FlushByTimeoutServesLoneRequest) {
  std::unique_ptr<Fleet> fleet = MakeOneShardFleet(
      ServerConfig(/*threads=*/1, /*max_batch=*/64, /*delay_us=*/30'000));
  const auto start = std::chrono::steady_clock::now();
  ScheduleRequest request;
  request.state = FixedState();
  const ScheduleResponse response = fleet->Submit(std::move(request)).get();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(response.batch_size, 1);
  // Nowhere near max_batch, so the request was released by the delay bound,
  // not flushed immediately.
  EXPECT_GE(elapsed, std::chrono::milliseconds(10));
}

TEST(PolicyServerTest, ClosedLoopLoadRunsCleanly) {
  std::unique_ptr<Fleet> fleet = MakeOneShardFleet(
      ServerConfig(/*threads=*/2, /*max_batch=*/8, /*delay_us=*/200));
  LoadSpec spec;
  spec.mode = LoadMode::kClosedLoop;
  spec.clients = 4;
  spec.requests_per_client = 20;
  spec.env.horizon = 30;
  const Result<LoadResult> result = RunLoad(*fleet, TinyMap(), spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().requests, 80u);
  EXPECT_EQ(result.value().errors, 0u);
  EXPECT_GT(result.value().throughput_rps, 0.0);
  EXPECT_GT(result.value().latency_p50_us, 0.0);
  EXPECT_GE(result.value().latency_p99_us, result.value().latency_p50_us);
  EXPECT_GE(result.value().mean_batch, 1.0);
}

TEST(PolicyServerTest, RegistryPublishValidatesShapes) {
  std::unique_ptr<Fleet> fleet = MakeOneShardFleet(
      ServerConfig(/*threads=*/1, /*max_batch=*/4, /*delay_us=*/100));
  EXPECT_EQ(fleet->Epoch("default").value(), 0u);

  // Wrong tensor count.
  EXPECT_EQ(fleet->Publish("default", {nn::Tensor::Zeros({3})}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet->Epoch("default").value(), 0u);

  // Right count, wrong shape on the first tensor.
  std::shared_ptr<const ModelRegistry::Snapshot> snapshot =
      fleet->scenarios().Find("")->Acquire();
  std::vector<nn::Tensor> wrong;
  for (const nn::Tensor& t : snapshot->params) wrong.push_back(t.Clone());
  wrong[0] = nn::Tensor::Zeros({1, 2, 3});
  EXPECT_EQ(fleet->Publish("default", wrong).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet->Epoch("default").value(), 0u);

  // A matching set publishes as epoch 1.
  Rng rng(99);
  const agents::PolicyNet fresh(TinyNet(), rng);
  ASSERT_TRUE(fleet->Publish("default", fresh.Parameters()).ok());
  EXPECT_EQ(fleet->Epoch("default").value(), 1u);
}

TEST(PolicyServerTest, PublishFromFileLoadsCheckpointOrFailsUntouched) {
  std::unique_ptr<Fleet> fleet = MakeOneShardFleet(
      ServerConfig(/*threads=*/1, /*max_batch=*/4, /*delay_us=*/100));
  EXPECT_FALSE(
      fleet->PublishFromFile("default", "/nonexistent/ckpt.bin").ok());
  EXPECT_EQ(fleet->Epoch("default").value(), 0u);

  Rng rng(123);
  const agents::PolicyNet trained(TinyNet(), rng);
  const std::string path = testing::TempDir() + "/serve_ckpt.bin";
  ASSERT_TRUE(nn::SaveParameters(path, trained.Parameters()).ok());
  ASSERT_TRUE(fleet->PublishFromFile("default", path).ok());
  EXPECT_EQ(fleet->Epoch("default").value(), 1u);
}

// The acceptance test for the hot-swap protocol: every response must be
// computed from exactly one published parameter set — old or new, never a
// torn mix. Strategy: three parameter sets with locally-precomputed argmax
// outputs for one fixed state, concurrent deterministic clients while the
// main thread keeps alternating publishes, then a bitwise check of every
// response against the output its epoch implies. Bitwise equality is valid
// because inference is deterministic at any batch size and thread count.
TEST(PolicyServerTest, HotSwapNeverServesTornParameters) {
  const FleetConfig config =
      ServerConfig(/*threads=*/2, /*max_batch=*/4, /*delay_us=*/100);
  const std::vector<float> state = FixedState();

  // The server's epoch-0 net is initialized from Rng(seed); replicate it,
  // plus the two sets we'll alternate, and precompute their argmax outputs.
  Rng rng0(config.seed);
  agents::PolicyNet local(config.net, rng0);
  const std::vector<nn::Tensor> local_params = local.Parameters();
  Rng rng_a(20001);
  const agents::PolicyNet net_a(config.net, rng_a);
  Rng rng_b(20002);
  const agents::PolicyNet net_b(config.net, rng_b);

  Rng unused(1);  // deterministic decisions consume no randomness
  const uint8_t kDet = 1;
  const auto expect_for = [&](const std::vector<nn::Tensor>* params) {
    if (params != nullptr) nn::CopyParameters(*params, local_params);
    return agents::DecidePolicyBatch(local, state, 1, unused, &kDet)[0];
  };
  const agents::PolicyDecision expected0 = expect_for(nullptr);
  const std::vector<nn::Tensor> params_a = net_a.Parameters();
  const std::vector<nn::Tensor> params_b = net_b.Parameters();
  const agents::PolicyDecision expected_a = expect_for(&params_a);
  const agents::PolicyDecision expected_b = expect_for(&params_b);

  // Distinct random inits must be distinguishable, or the torn check below
  // would be vacuous.
  ASSERT_NE(expected0.move_logits, expected_a.move_logits);
  ASSERT_NE(expected0.move_logits, expected_b.move_logits);
  ASSERT_NE(expected_a.move_logits, expected_b.move_logits);

  std::unique_ptr<Fleet> fleet = MakeOneShardFleet(config);

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 40;
  std::mutex mu;
  std::vector<ScheduleResponse> responses;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        ScheduleRequest request;
        request.state = state;
        request.deterministic = true;
        ScheduleResponse response = fleet->Submit(std::move(request)).get();
        std::lock_guard<std::mutex> lock(mu);
        responses.push_back(std::move(response));
      }
    });
  }

  // Publish A on odd epochs, B on even, mid-flight.
  for (int p = 0; p < 14; ++p) {
    ASSERT_TRUE(fleet
                    ->Publish("default", p % 2 == 0 ? net_a.Parameters()
                                                    : net_b.Parameters())
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& t : clients) t.join();

  ASSERT_EQ(responses.size(),
            static_cast<size_t>(kClients * kRequestsPerClient));
  bool saw_multiple_epochs = false;
  for (const ScheduleResponse& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    const agents::PolicyDecision& expected =
        response.epoch == 0
            ? expected0
            : (response.epoch % 2 == 1 ? expected_a : expected_b);
    EXPECT_EQ(response.act.value, expected.act.value)
        << "epoch " << response.epoch;
    EXPECT_EQ(response.move_logits, expected.move_logits)
        << "epoch " << response.epoch;
    EXPECT_EQ(response.charge_logits, expected.charge_logits)
        << "epoch " << response.epoch;
    EXPECT_EQ(response.act.moves, expected.act.moves)
        << "epoch " << response.epoch;
    if (response.epoch != responses.front().epoch) saw_multiple_epochs = true;
  }
  // With 14 publishes spread across the client run this is effectively
  // guaranteed; if it ever flakes the test got too fast, not the server
  // wrong.
  EXPECT_TRUE(saw_multiple_epochs);
}

}  // namespace
}  // namespace cews::serve
