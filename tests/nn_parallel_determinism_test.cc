// Thread-count invariance of the parallel NN kernels: every kernel gives
// each accumulator exactly one owning parallel index with a fixed internal
// accumulation order, so forward values AND gradients must be bitwise
// identical whether the global pool has 1 thread or many. Short training
// runs (single employee), with spatial curiosity and with RND, extend the
// property end to end.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agents/chief_employee.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "env/map.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace cews {
namespace {

std::vector<float> RandomData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(n);
  for (float& v : data) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return data;
}

std::vector<float> ToVec(const nn::Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

std::vector<float> GradVec(const nn::Tensor& t) {
  return std::vector<float>(t.grad(), t.grad() + t.numel());
}

/// Asserts two float vectors are bitwise identical (no tolerance).
void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

/// Runs `fn` under a pool of `threads` threads and restores serial mode.
template <typename Fn>
auto WithPool(int threads, Fn&& fn) {
  runtime::SetGlobalPoolThreads(threads);
  auto result = fn();
  runtime::SetGlobalPoolThreads(1);
  return result;
}

struct ForwardBackward {
  std::vector<float> out;
  std::vector<std::vector<float>> grads;
};

ForwardBackward RunMatMul(nn::Index n, nn::Index k, nn::Index m) {
  nn::Tensor a = nn::Tensor::FromData(
      {n, k}, RandomData(static_cast<size_t>(n * k), 11), true);
  nn::Tensor b = nn::Tensor::FromData(
      {k, m}, RandomData(static_cast<size_t>(k * m), 13), true);
  nn::Tensor c = nn::MatMul(a, b);
  nn::Mean(nn::Square(c)).Backward();
  return {ToVec(c), {GradVec(a), GradVec(b)}};
}

ForwardBackward RunConv2d(nn::Index batch, nn::Index g) {
  const nn::Index cin = 3, cout = 8, kk = 3;
  nn::Tensor x = nn::Tensor::FromData(
      {batch, cin, g, g},
      RandomData(static_cast<size_t>(batch * cin * g * g), 17), true);
  nn::Tensor w = nn::Tensor::FromData(
      {cout, cin, kk, kk},
      RandomData(static_cast<size_t>(cout * cin * kk * kk), 19), true);
  nn::Tensor bias =
      nn::Tensor::FromData({cout}, RandomData(static_cast<size_t>(cout), 23),
                           true);
  nn::Tensor y = nn::Conv2d(x, w, bias, /*stride=*/1, /*padding=*/1);
  nn::Mean(nn::Square(y)).Backward();
  return {ToVec(y), {GradVec(x), GradVec(w), GradVec(bias)}};
}

TEST(ParallelDeterminismTest, MatMulForwardBackwardBitwiseInvariant) {
  const ForwardBackward serial = WithPool(1, [] {
    return RunMatMul(64, 96, 48);
  });
  for (const int threads : {2, 4, 7}) {
    const ForwardBackward parallel = WithPool(threads, [] {
      return RunMatMul(64, 96, 48);
    });
    ExpectBitwiseEqual(serial.out, parallel.out);
    ASSERT_EQ(serial.grads.size(), parallel.grads.size());
    for (size_t i = 0; i < serial.grads.size(); ++i) {
      ExpectBitwiseEqual(serial.grads[i], parallel.grads[i]);
    }
  }
}

TEST(ParallelDeterminismTest, Conv2dForwardBackwardBitwiseInvariant) {
  const ForwardBackward serial = WithPool(1, [] {
    return RunConv2d(4, 16);
  });
  for (const int threads : {2, 4}) {
    const ForwardBackward parallel = WithPool(threads, [] {
      return RunConv2d(4, 16);
    });
    ExpectBitwiseEqual(serial.out, parallel.out);
    ASSERT_EQ(serial.grads.size(), parallel.grads.size());
    for (size_t i = 0; i < serial.grads.size(); ++i) {
      ExpectBitwiseEqual(serial.grads[i], parallel.grads[i]);
    }
  }
}

env::Map SmallMap() {
  env::MapConfig config;
  config.num_pois = 40;
  config.num_workers = 2;
  config.num_stations = 2;
  config.num_obstacles = 2;
  Rng rng(42);
  auto result = env::GenerateMap(config, rng);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

agents::TrainerConfig TinyTrainer(agents::IntrinsicMode intrinsic,
                                  int runtime_threads) {
  agents::TrainerConfig config;
  // One employee keeps the run short. The chief sums employee gradients in
  // employee order, so the employee count is not what is under test here.
  config.num_employees = 1;
  config.episodes = 2;
  config.batch_size = 16;
  config.update_epochs = 2;
  config.env.horizon = 16;
  config.encoder.grid = 10;
  config.net.grid = 10;
  config.net.conv1_channels = 4;
  config.net.conv2_channels = 4;
  config.net.conv3_channels = 4;
  config.net.feature_dim = 32;
  config.seed = 3;
  config.intrinsic = intrinsic;
  config.runtime_threads = runtime_threads;
  return config;
}

TEST(ParallelDeterminismTest, TrainingRunInvariantToRuntimeThreads) {
  const env::Map map = SmallMap();
  for (const agents::IntrinsicMode intrinsic :
       {agents::IntrinsicMode::kSpatialCuriosity,
        agents::IntrinsicMode::kRnd}) {
    agents::ChiefEmployeeTrainer serial(
        TinyTrainer(intrinsic, /*runtime_threads=*/1), map);
    const agents::TrainResult serial_result = serial.Train();
    std::vector<std::vector<float>> serial_params;
    for (const nn::Tensor& p : serial.global_net().Parameters()) {
      serial_params.push_back(ToVec(p));
    }

    for (const int threads : {2, 4}) {
      SCOPED_TRACE(std::string(intrinsic == agents::IntrinsicMode::kRnd
                                   ? "RND"
                                   : "spatial curiosity") +
                   ", pool " + std::to_string(threads));
      agents::ChiefEmployeeTrainer parallel(TinyTrainer(intrinsic, threads),
                                            map);
      const agents::TrainResult parallel_result = parallel.Train();
      runtime::SetGlobalPoolThreads(1);

      ASSERT_EQ(serial_result.history.size(), parallel_result.history.size());
      for (size_t i = 0; i < serial_result.history.size(); ++i) {
        EXPECT_DOUBLE_EQ(serial_result.history[i].kappa,
                         parallel_result.history[i].kappa);
        EXPECT_DOUBLE_EQ(serial_result.history[i].extrinsic_reward,
                         parallel_result.history[i].extrinsic_reward);
        EXPECT_DOUBLE_EQ(serial_result.history[i].intrinsic_reward,
                         parallel_result.history[i].intrinsic_reward);
      }
      const std::vector<nn::Tensor> parallel_params =
          parallel.global_net().Parameters();
      ASSERT_EQ(serial_params.size(), parallel_params.size());
      for (size_t i = 0; i < serial_params.size(); ++i) {
        ExpectBitwiseEqual(serial_params[i], ToVec(parallel_params[i]));
      }
    }
  }
}

}  // namespace
}  // namespace cews
