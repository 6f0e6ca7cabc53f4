// Benchmark of the serve subsystem, in two parts:
//
//   1. Closed-loop batching sweep — completion-gated clients against a
//      single-shard fleet, sweeping offered load (clients) x micro-batch
//      bound (max_batch) x inference workers. Shows how well concurrent
//      requests coalesce into shared Forwards (mean_batch) and what that
//      does to throughput. Closed-loop latency flatters the server under
//      load (clients slow down with it), so these rows are for throughput
//      and batching conclusions only.
//
//   2. Open-loop fleet sweep — Poisson arrivals at arrival_rps from a
//      simulated population of up to 10^6 client ids (ids drive the
//      consistent-hash routing; no thread per client), sweeping shards x
//      population x arrival rate. Latency is charged from each request's
//      scheduled arrival (no coordinated omission) and shards run bounded
//      queues, so overload shows up honestly: p99/p999 growth up to the
//      admission bound, then counted sheds — never a blocked arrival
//      process. The shards=1 vs shards=2 rows at the same rate are the
//      scaling comparison (meaningful on multi-core hosts only; see the
//      caveat printed at the end).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "env/env.h"
#include "env/map.h"
#include "obs/rolling_histogram.h"
#include "serve/fleet.h"
#include "serve/loadgen.h"

namespace {

using namespace cews;

env::Map BenchMap() {
  env::MapConfig config;
  config.num_pois = 40;
  config.num_workers = 2;
  config.num_stations = 2;
  config.num_obstacles = 2;
  Rng rng(42);
  auto result = env::GenerateMap(config, rng);
  if (!result.ok()) std::abort();
  return std::move(result).value();
}

serve::FleetConfig BaseFleet(const env::Map& map,
                             const env::EnvConfig& env_config) {
  serve::FleetConfig base;
  base.net.grid = 12;
  base.net.num_workers = static_cast<int>(map.worker_spawns.size());
  base.net.num_moves = env_config.action_space.num_moves();
  base.net.conv1_channels = 4;
  base.net.conv2_channels = 6;
  base.net.conv3_channels = 6;
  base.net.feature_dim = 64;
  base.max_queue_delay_us = 200;
  base.runtime_threads = 1;  // isolate batching gains from kernel threading
  base.seed = 7;
  return base;
}

struct ClosedPoint {
  int clients;
  int max_batch;
  int threads;
};

struct OpenPoint {
  int shards;
  int clients;  // simulated id population
  double arrival_rps;
  /// Per-shard admission bound and flush delay. The default bound is
  /// generous; the admission-control row shrinks it (and slows flushes) so
  /// the arrival rate provably exceeds service capacity and the sheds are
  /// visible in the table.
  int max_queue_depth = 256;
  int64_t delay_us = 200;
};

}  // namespace

int main() {
  const env::Map map = BenchMap();
  const env::EnvConfig env_config;
  const serve::FleetConfig base = BaseFleet(map, env_config);

  // -------------------------------------------------------------------
  // Part 1: closed-loop batching sweep (single shard, unbounded queue —
  // the closed loop cannot overrun it).
  // -------------------------------------------------------------------
  const std::vector<ClosedPoint> closed_sweep = {
      {1, 1, 1}, {8, 1, 1}, {8, 8, 1}, {8, 16, 1},
      {16, 16, 1}, {8, 8, 2}, {16, 16, 2},
  };

  Table closed_table({"clients", "max_batch", "threads", "rps", "mean_us",
                      "p50_us", "p95_us", "p99_us", "mean_batch"});
  for (const ClosedPoint& point : closed_sweep) {
    serve::FleetConfig config = base;
    config.num_shards = 1;
    config.max_batch = point.max_batch;
    config.threads_per_shard = point.threads;
    config.max_queue_depth = 0;
    auto fleet = serve::Fleet::Create(config);
    if (!fleet.ok()) {
      std::fprintf(stderr, "fleet: %s\n", fleet.status().ToString().c_str());
      return 1;
    }

    serve::LoadSpec spec;
    spec.mode = serve::LoadMode::kClosedLoop;
    spec.clients = point.clients;
    spec.requests_per_client = 50;
    spec.env = env_config;
    auto result = serve::RunLoad(*fleet.value(), map, spec);
    if (!result.ok()) {
      std::fprintf(stderr, "loadgen: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const serve::LoadResult& r = result.value();
    if (r.errors != 0 || r.shed != 0) {
      std::fprintf(stderr, "closed loop reported %llu errors, %llu shed\n",
                   static_cast<unsigned long long>(r.errors),
                   static_cast<unsigned long long>(r.shed));
      return 1;
    }
    closed_table.AddRow({std::to_string(point.clients),
                         std::to_string(point.max_batch),
                         std::to_string(point.threads),
                         Table::Fmt(r.throughput_rps, 1),
                         Table::Fmt(r.latency_mean_us, 1),
                         Table::Fmt(r.latency_p50_us, 1),
                         Table::Fmt(r.latency_p95_us, 1),
                         Table::Fmt(r.latency_p99_us, 1),
                         Table::Fmt(r.mean_batch, 2)});
  }
  std::printf("closed-loop batching sweep (1 shard):\n%s\n",
              closed_table.ToString().c_str());

  // -------------------------------------------------------------------
  // Part 2: open-loop fleet sweep — shards x client population x arrival
  // rate, bounded per-shard queues.
  // -------------------------------------------------------------------
  const std::vector<OpenPoint> open_sweep = {
      // Scaling comparison: same rate, 1 vs 2 shards.
      {1, 10'000, 500.0},   {2, 10'000, 500.0},
      {1, 10'000, 1'000.0}, {2, 10'000, 1'000.0},
      {1, 10'000, 2'000.0}, {2, 10'000, 2'000.0},
      // Overload: far past one core's capacity — sheds, not queues.
      {1, 10'000, 4'000.0}, {2, 10'000, 4'000.0},
      // Population sweep at fixed rate: routing/bookkeeping cost of large
      // simulated fleets (10^5 and 10^6 distinct client ids).
      {2, 100'000, 1'000.0},
      {2, 1'000'000, 1'000.0},
      // Admission-control demo: flushes throttled to ~max_batch/5ms per
      // shard (~1.6k rps service ceiling) under a 4k rps arrival stream
      // with an 8-deep queue — the excess MUST surface as counted sheds
      // while the arrival process never blocks.
      {1, 10'000, 4'000.0, /*max_queue_depth=*/8, /*delay_us=*/5'000},
  };

  Table open_table({"shards", "clients", "arrival_rps", "offered_rps",
                    "rps", "shed", "p50_us", "p99_us", "p999_us",
                    "roll_p99_us", "mean_batch"});
  for (const OpenPoint& point : open_sweep) {
    // Each row gets a self-contained rolling window: the previous row's
    // fleet is gone (no writers), so resetting here is race-free and the
    // roll_p99 column reflects only this row's samples.
    for (obs::RollingHistogram* hist : obs::AllRollingHistograms()) {
      hist->ResetForTest();
    }
    serve::FleetConfig config = base;
    config.num_shards = point.shards;
    config.threads_per_shard = 1;
    config.max_batch = 8;
    config.max_queue_delay_us = point.delay_us;
    config.max_queue_depth = point.max_queue_depth;  // overload is shed
    auto fleet = serve::Fleet::Create(config);
    if (!fleet.ok()) {
      std::fprintf(stderr, "fleet: %s\n", fleet.status().ToString().c_str());
      return 1;
    }

    serve::LoadSpec spec;
    spec.mode = serve::LoadMode::kOpenLoop;
    spec.clients = point.clients;
    spec.arrival_rps = point.arrival_rps;
    spec.duration_seconds = 0.5;
    spec.submit_threads = 2;
    spec.env = env_config;
    auto result = serve::RunLoad(*fleet.value(), map, spec);
    if (!result.ok()) {
      std::fprintf(stderr, "loadgen: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const serve::LoadResult& r = result.value();
    if (r.errors != 0) {
      std::fprintf(stderr, "open loop reported %llu errors\n",
                   static_cast<unsigned long long>(r.errors));
      return 1;
    }
    // Server-side windowed p99 over the whole (reset-scoped) row: the
    // widest window covers the 0.5 s run entirely. The loadgen number
    // charges from scheduled arrival, the server from enqueue — under
    // submit backlog the former reads higher; both should agree closely
    // when the fleet keeps up.
    const obs::HistogramSnapshot roll =
        obs::GetRollingHistogram("serve.fleet.latency")
            ->Window(obs::kMaxWindowSeconds);
    const double roll_p99_us =
        roll.count == 0
            ? 0.0
            : static_cast<double>(roll.Percentile(0.99)) / 1e3;
    open_table.AddRow({std::to_string(point.shards),
                       std::to_string(point.clients),
                       Table::Fmt(point.arrival_rps, 0),
                       Table::Fmt(r.offered_rps, 1),
                       Table::Fmt(r.throughput_rps, 1),
                       std::to_string(r.shed),
                       Table::Fmt(r.latency_p50_us, 1),
                       Table::Fmt(r.latency_p99_us, 1),
                       Table::Fmt(r.latency_p999_us, 1),
                       Table::Fmt(roll_p99_us, 1),
                       Table::Fmt(r.mean_batch, 2)});
  }
  std::printf("open-loop fleet sweep (Poisson arrivals, max_queue=256):\n%s\n",
              open_table.ToString().c_str());

  // -------------------------------------------------------------------
  // Part 3: precision comparison — the identical closed-loop config run
  // at fp32 and at int8 (publish-time-quantized trunk, fp32 heads). Same
  // shard count, batch bound, threads and client load; the only delta is
  // FleetConfig::precision, so the throughput/p99 difference isolates the
  // quantized forward path.
  // -------------------------------------------------------------------
  Table prec_table({"precision", "clients", "max_batch", "rps", "mean_us",
                    "p50_us", "p99_us", "mean_batch"});
  for (const serve::Precision prec :
       {serve::Precision::kFp32, serve::Precision::kInt8}) {
    serve::FleetConfig config = base;
    config.num_shards = 1;
    config.max_batch = 16;
    config.threads_per_shard = 1;
    config.max_queue_depth = 0;
    config.precision = prec;
    auto fleet = serve::Fleet::Create(config);
    if (!fleet.ok()) {
      std::fprintf(stderr, "fleet: %s\n", fleet.status().ToString().c_str());
      return 1;
    }
    serve::LoadSpec spec;
    spec.mode = serve::LoadMode::kClosedLoop;
    spec.clients = 16;
    spec.requests_per_client = 100;
    spec.env = env_config;
    auto result = serve::RunLoad(*fleet.value(), map, spec);
    if (!result.ok()) {
      std::fprintf(stderr, "loadgen: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const serve::LoadResult& r = result.value();
    if (r.errors != 0 || r.shed != 0) {
      std::fprintf(stderr, "precision row reported %llu errors, %llu shed\n",
                   static_cast<unsigned long long>(r.errors),
                   static_cast<unsigned long long>(r.shed));
      return 1;
    }
    prec_table.AddRow({serve::PrecisionName(prec), "16", "16",
                       Table::Fmt(r.throughput_rps, 1),
                       Table::Fmt(r.latency_mean_us, 1),
                       Table::Fmt(r.latency_p50_us, 1),
                       Table::Fmt(r.latency_p99_us, 1),
                       Table::Fmt(r.mean_batch, 2)});
  }
  std::printf("precision comparison (closed loop, equal config):\n%s\n",
              prec_table.ToString().c_str());

  std::printf(
      "hardware threads: %u. On a single-core host the multi-shard and\n"
      "threads=2 rows are not meaningful for scaling conclusions (every\n"
      "shard's workers share one core): expect shards=2 ~= shards=1 there,\n"
      "and trust the comparison only on multi-core hardware. The batching\n"
      "comparison (max_batch=1 vs >=8 at clients=8), the shed accounting\n"
      "and the p999-vs-p99 spread are core-count-independent.\n",
      std::thread::hardware_concurrency());
  return 0;
}
