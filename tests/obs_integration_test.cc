// End-to-end check that a short training run leaves telemetry behind for
// every instrumented subsystem: trainer phases, env stepping, NN kernels,
// rollout packing, and (with a multi-thread pool) the kernel runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "agents/chief_employee.h"
#include "common/thread_pool.h"
#include "env/map.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cews {
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

agents::TrainerConfig TinyTrainer() {
  agents::TrainerConfig config;
  config.num_employees = 2;
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
  config.runtime_threads = 2;  // exercise the pool instrumentation too
  config.seed = 3;
  return config;
}

TEST(ObsIntegrationTest, ShortTrainingRunPopulatesEveryInstrumentedPhase) {
  obs::Registry::Global().ResetForTest();
  obs::ClearTraceForTest();
  obs::SetTraceEnabled(true);
  {
    agents::ChiefEmployeeTrainer trainer(TinyTrainer(), SmallMap());
    trainer.Train();
  }
  obs::SetTraceEnabled(false);

  // threadpool.queue_wait_ns only gets a sample when a pool *worker* claims
  // a region; on a loaded host the workers can starve for this entire tiny
  // run while the submitting thread legally executes every chunk itself.
  // Scheduling, not correctness, is what varies — so force a worker-side
  // sample with slow single-index chunks before reading the snapshot.
  for (int attempt = 0; attempt < 500; ++attempt) {
    const obs::HistogramSnapshot* h =
        obs::SnapshotMetrics().FindHistogram("threadpool.queue_wait_ns");
    if (h != nullptr && h->count > 0) break;
    runtime::GlobalPool().ParallelFor(0, 8, /*grain=*/1, [](int64_t, int64_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
  }
  runtime::SetGlobalPoolThreads(1);

  const obs::MetricsSnapshot snap = obs::SnapshotMetrics();

  // Counters every subsystem must have bumped.
  for (const char* name :
       {"env.steps", "train.episodes", "rollout.pack.calls",
        "rollout.pack.transitions", "nn.matmul.calls", "nn.matmul.fwd_flops",
        "nn.matmul.fwd_ns", "nn.matmul.bwd_flops", "nn.matmul.bwd_ns",
        "nn.conv2d.calls", "nn.conv2d.fwd_flops", "nn.conv2d.fwd_ns",
        "nn.conv2d.bwd_flops", "nn.conv2d.bwd_ns", "nn.layer_norm.calls",
        "nn.layer_norm.fwd_flops", "nn.layer_norm.fwd_ns",
        "nn.layer_norm.bwd_flops", "nn.layer_norm.bwd_ns", "threadpool.regions",
        "threadpool.chunks", "threadpool.busy_ns", "ppo.minibatch_rows",
        "ppo.distinct_rows"}) {
    EXPECT_GT(snap.CounterValue(name), 0u) << "empty counter: " << name;
  }
  // Each employee's minibatch of 16 is drawn from its 16-step episode
  // without replacement, so every row is distinct: employees * episodes *
  // update epochs * batch rows.
  EXPECT_EQ(snap.CounterValue("ppo.minibatch_rows"), 2u * 2u * 2u * 16u);
  EXPECT_EQ(snap.CounterValue("ppo.distinct_rows"),
            snap.CounterValue("ppo.minibatch_rows"));

  // Duration histograms for every instrumented phase.
  for (const char* name :
       {"env.step_ns", "rollout.pack_ns", "ppo.loss_ns",
        "trainer.rollout_ns", "trainer.learn_ns", "trainer.sync_ns",
        "trainer.barrier_ns", "threadpool.region_ns",
        "threadpool.queue_wait_ns"}) {
    const obs::HistogramSnapshot* h = snap.FindHistogram(name);
    ASSERT_NE(h, nullptr) << "missing histogram: " << name;
    EXPECT_GT(h->count, 0u) << "empty histogram: " << name;
    EXPECT_GT(h->sum, 0u) << "zero-duration histogram: " << name;
  }

  // Headline gauges the heartbeat reads.
  EXPECT_GT(snap.GaugeValue("threadpool.threads"), 0.0);
  ASSERT_NE(snap.FindGauge("train.loss"), nullptr);
  ASSERT_NE(snap.FindGauge("train.kappa"), nullptr);

  // env.steps == employees * episodes * horizon for the synchronous trainer.
  EXPECT_EQ(snap.CounterValue("env.steps"), 2u * 2u * 16u);
  EXPECT_EQ(snap.CounterValue("train.episodes"), 2u);

  // The trace holds spans from every instrumented layer.
  const std::vector<obs::CollectedSpan> spans = obs::CollectSpans();
  std::set<std::string> names;
  for (const obs::CollectedSpan& s : spans) names.insert(s.name);
  for (const char* name :
       {"trainer.rollout", "trainer.learn", "trainer.sync",
        "trainer.barrier", "env.Step", "agents.PackBatch", "agents.PpoLoss",
        "nn.MatMul", "nn.MatMul.bwd", "nn.Conv2d", "nn.Conv2d.bwd",
        "runtime.ParallelFor"}) {
    EXPECT_TRUE(names.count(name) > 0) << "missing span: " << name;
  }

  // And the export is loadable trace_event JSON.
  const std::string json = obs::SpansToChromeJson(spans);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"trainer.rollout\""), std::string::npos);

  obs::Registry::Global().ResetForTest();
  obs::ClearTraceForTest();
}

}  // namespace
}  // namespace cews
