// Benchmark of the distributed trainer (src/dist): fork-mode chief +
// employee processes over a unix socket, sweeping employee count x
// envs-per-employee. Reports end-to-end training throughput (env steps/s
// across all employees) and the transport cost per iteration (bytes of
// parameter broadcast + rollout collection, frame overhead included).
//
// Two caveats for reading the numbers:
//   * Single-core hosts serialize the employee processes — the scaling
//     column is meaningful on multi-core machines only (the CPU count is
//     printed with the results).
//   * The chief's learn step is on the critical path (employees idle while
//     it updates), so steps/s grows sublinearly in employees even with
//     enough cores — exactly the trade the single-learner design makes for
//     bitwise determinism.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "dist/trainer.h"
#include "env/map.h"

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

dist::DistTrainerConfig BaseConfig() {
  dist::DistTrainerConfig cfg;
  cfg.trainer.episodes = 6;
  cfg.trainer.batch_size = 64;
  cfg.trainer.update_epochs = 2;
  cfg.trainer.runtime_threads = 1;  // fork safety + honest per-process cost
  cfg.trainer.env.horizon = 40;
  cfg.trainer.encoder.grid = 12;
  cfg.trainer.net.grid = 12;
  cfg.trainer.net.conv1_channels = 4;
  cfg.trainer.net.conv2_channels = 6;
  cfg.trainer.net.conv3_channels = 6;
  cfg.trainer.net.feature_dim = 64;
  cfg.trainer.seed = 7;
  return cfg;
}

struct Row {
  int employees = 0;
  int envs = 0;
  double seconds = 0.0;
  double steps_per_sec = 0.0;
  double bytes_per_iter = 0.0;
  double tx_mb = 0.0;
  double rx_mb = 0.0;
};

}  // namespace

int main() {
  const env::Map map = BenchMap();
  std::vector<Row> rows;

  const std::vector<std::pair<int, int>> sweep = {
      {1, 1}, {2, 1}, {4, 1}, {1, 2}, {2, 2}, {4, 2},
  };
  for (const auto& [employees, envs] : sweep) {
    dist::DistTrainerConfig cfg = BaseConfig();
    cfg.trainer.num_employees = employees;
    cfg.trainer.envs_per_employee = envs;
    cfg.address = "unix:/tmp/cews_bench_dist_" + std::to_string(::getpid()) +
                  ".sock";

    dist::ChiefServer server(cfg, map);
    if (!server.Bind().ok()) std::abort();
    cfg.address = server.address();
    auto pids = dist::SpawnEmployees(cfg, map);
    if (!pids.ok()) std::abort();
    dist::DistTrainResult result;
    const Status run_status = server.Run(&result);
    const Status reap_status = dist::ReapEmployees(*pids);
    if (!run_status.ok() || !reap_status.ok()) {
      std::fprintf(stderr, "bench point failed: %s / %s\n",
                   run_status.ToString().c_str(),
                   reap_status.ToString().c_str());
      std::abort();
    }

    Row row;
    row.employees = employees;
    row.envs = envs;
    row.seconds = result.seconds;
    const int64_t steps = static_cast<int64_t>(cfg.trainer.episodes) *
                          cfg.trainer.env.horizon * envs * employees;
    row.steps_per_sec =
        result.seconds > 0 ? static_cast<double>(steps) / result.seconds : 0;
    row.bytes_per_iter =
        static_cast<double>(result.bytes_tx + result.bytes_rx) /
        cfg.trainer.episodes;
    row.tx_mb = static_cast<double>(result.bytes_tx) * 1e-6;
    row.rx_mb = static_cast<double>(result.bytes_rx) * 1e-6;
    rows.push_back(row);
    std::printf("employees=%d envs=%d: %.2fs, %.0f steps/s, %.0f B/iter\n",
                employees, envs, row.seconds, row.steps_per_sec,
                row.bytes_per_iter);
  }

  Table table({"employees", "envs_per_employee", "seconds", "steps_per_sec",
               "bytes_per_iter", "tx_mb", "rx_mb"});
  for (const Row& row : rows) {
    table.AddRow({std::to_string(row.employees), std::to_string(row.envs),
                  Table::Fmt(row.seconds, 2), Table::Fmt(row.steps_per_sec, 0),
                  Table::Fmt(row.bytes_per_iter, 0), Table::Fmt(row.tx_mb, 2),
                  Table::Fmt(row.rx_mb, 2)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "note: fork-mode scaling is meaningful on multi-core hosts only "
      "(this host: %u cores); the chief's learn step serializes either "
      "way.\n",
      std::thread::hardware_concurrency());

  return 0;
}
