// End-to-end tests for request-lifecycle tracing on the serving path: every
// traced request leaves the four phase spans (queue_wait, batch_assemble,
// forward, scatter) correlated by request id and tagged with its shard, the
// phases tile the request's time on the server, and the rolling-window
// latency histogram agrees with the load generator's exact percentiles.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agents/policy_net.h"
#include "common/check.h"
#include "obs/rolling_histogram.h"
#include "obs/trace.h"
#include "serve/fleet.h"
#include "serve/loadgen.h"

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

FleetConfig TinyFleet(int shards) {
  FleetConfig config;
  config.net = TinyNet();
  config.num_shards = shards;
  config.threads_per_shard = 1;
  config.max_batch = 4;
  config.max_queue_delay_us = 100;
  config.runtime_threads = 1;
  config.seed = 29;
  return config;
}

std::unique_ptr<Fleet> MakeFleet(const FleetConfig& config) {
  Result<std::unique_ptr<Fleet>> fleet = Fleet::Create(config);
  CEWS_CHECK(fleet.ok()) << fleet.status().ToString();
  return std::move(fleet).value();
}

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

/// One request's phase spans, keyed by phase name.
struct Phase {
  uint64_t start = 0;
  uint64_t end = 0;
  int64_t shard = -1;
};
using RequestPhases = std::map<std::string, Phase>;

std::map<uint64_t, RequestPhases> GroupSpansByRequest(
    const std::vector<obs::CollectedSpan>& spans) {
  std::map<uint64_t, RequestPhases> by_request;
  for (const obs::CollectedSpan& span : spans) {
    if (span.id == 0) continue;  // untagged scope span
    Phase phase;
    phase.start = span.start_ns;
    phase.end = span.start_ns + span.dur_ns;
    phase.shard = span.arg;
    by_request[span.id][span.name] = phase;
  }
  return by_request;
}

/// RAII: no test may leak tracing enabled into the rest of the binary.
struct TraceEnabledScope {
  TraceEnabledScope() {
    obs::ClearTraceForTest();
    obs::SetTraceEnabled(true);
  }
  ~TraceEnabledScope() { obs::SetTraceEnabled(false); }
};

TEST(ServeTraceTest, EveryRequestLeavesFourOrderedPhaseSpans) {
  TraceEnabledScope tracing;
  constexpr int kShards = 2;
  std::unique_ptr<Fleet> fleet = MakeFleet(TinyFleet(kShards));

  LoadSpec spec;
  spec.mode = LoadMode::kClosedLoop;
  spec.clients = 4;
  spec.requests_per_client = 25;
  spec.env.horizon = 30;
  const Result<LoadResult> result = RunLoad(*fleet, TinyMap(), spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().requests, 100u);
  ASSERT_EQ(result.value().shed, 0u);
  ASSERT_EQ(result.value().errors, 0u);
  fleet->Stop();

  const std::map<uint64_t, RequestPhases> by_request =
      GroupSpansByRequest(obs::CollectSpans());
  // Every completed request was traced (ids are assigned at Submit).
  ASSERT_EQ(by_request.size(), 100u);

  const char* const kPhases[] = {"serve.queue_wait", "serve.batch_assemble",
                                 "serve.forward", "serve.scatter"};
  for (const auto& [id, phases] : by_request) {
    ASSERT_EQ(phases.size(), 4u) << "request " << id;
    for (const char* name : kPhases) {
      ASSERT_TRUE(phases.count(name)) << "request " << id << " lacks "
                                      << name;
    }
    // All four phases attribute the request to one real shard.
    const int64_t shard = phases.at("serve.queue_wait").shard;
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, kShards);
    for (const char* name : kPhases) {
      EXPECT_EQ(phases.at(name).shard, shard) << "request " << id;
    }
    // The phases tile the request's server-side lifetime: each phase ends
    // exactly where the next begins (they share the recorded timestamps).
    for (int p = 0; p + 1 < 4; ++p) {
      EXPECT_EQ(phases.at(kPhases[p]).end, phases.at(kPhases[p + 1]).start)
          << "request " << id << " gap after " << kPhases[p];
      EXPECT_LE(phases.at(kPhases[p]).start, phases.at(kPhases[p]).end)
          << "request " << id;
    }
  }
}

TEST(ServeTraceTest, ChromeJsonCarriesRequestAndShardArgs) {
  TraceEnabledScope tracing;
  std::unique_ptr<Fleet> fleet = MakeFleet(TinyFleet(1));

  LoadSpec spec;
  spec.mode = LoadMode::kClosedLoop;
  spec.clients = 2;
  spec.requests_per_client = 5;
  spec.env.horizon = 30;
  ASSERT_TRUE(RunLoad(*fleet, TinyMap(), spec).ok());
  fleet->Stop();

  const std::string json = obs::SpansToChromeJson(obs::CollectSpans());
  EXPECT_NE(json.find("serve.queue_wait"), std::string::npos);
  EXPECT_NE(json.find("\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\""), std::string::npos);
}

TEST(ServeTraceTest, DisabledTracingLeavesNoTaggedSpans) {
  obs::ClearTraceForTest();
  obs::SetTraceEnabled(false);
  std::unique_ptr<Fleet> fleet = MakeFleet(TinyFleet(1));

  LoadSpec spec;
  spec.mode = LoadMode::kClosedLoop;
  spec.clients = 2;
  spec.requests_per_client = 10;
  spec.env.horizon = 30;
  ASSERT_TRUE(RunLoad(*fleet, TinyMap(), spec).ok());
  fleet->Stop();

  for (const obs::CollectedSpan& span : obs::CollectSpans()) {
    EXPECT_EQ(span.id, 0u) << span.name;
  }
}

TEST(ServeTraceTest, RollingWindowP99AgreesWithLoadgen) {
  // The rolling histogram is bucketed (power-of-two buckets, interpolated)
  // while the loadgen computes exact percentiles over every completion. In
  // closed loop both see the same interval, each response's server-side
  // enqueue-to-completion latency, so they must agree to within bucket
  // resolution. (The loadgen's client-side p99 also carries each client
  // thread's wake-up delay, which CPU contention inflates.)
  for (obs::RollingHistogram* hist : obs::AllRollingHistograms()) {
    hist->ResetForTest();
  }
  std::unique_ptr<Fleet> fleet = MakeFleet(TinyFleet(2));

  LoadSpec spec;
  spec.mode = LoadMode::kClosedLoop;
  spec.clients = 8;
  spec.requests_per_client = 50;
  spec.env.horizon = 30;
  const Result<LoadResult> result = RunLoad(*fleet, TinyMap(), spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  fleet->Stop();

  obs::RollingHistogram* fleet_latency =
      obs::GetRollingHistogram("serve.fleet.latency");
  const obs::HistogramSnapshot window =
      fleet_latency->Window(obs::kMaxWindowSeconds);
  // Every completion landed in the window (the run is far shorter than the
  // ring) and none were shed.
  EXPECT_EQ(window.count, result.value().requests - result.value().shed -
                              result.value().errors);
  ASSERT_GT(window.count, 0u);

  const double rolling_p99_us =
      static_cast<double>(window.Percentile(0.99)) / 1e3;
  const double exact_p99_us = result.value().server_latency_p99_us;
  ASSERT_GT(exact_p99_us, 0.0);
  const double ratio = rolling_p99_us / exact_p99_us;
  EXPECT_GT(ratio, 0.3) << "rolling " << rolling_p99_us << "us vs exact "
                        << exact_p99_us << "us";
  EXPECT_LT(ratio, 3.0) << "rolling " << rolling_p99_us << "us vs exact "
                        << exact_p99_us << "us";
}

}  // namespace
}  // namespace cews::serve
