// Shared scaffolding for the figure/table reproduction harnesses.
//
// Every bench prints the paper's rows/series to stdout. By default a bench
// runs in *quick mode* — scaled-down map, horizon, episodes and network so
// the whole suite finishes on a laptop core while preserving the paper's
// qualitative shape (orderings, trends, crossovers). Set CEWS_BENCH_FULL=1
// for paper-scale runs and CEWS_BENCH_CSV=1 to also write <bench>.csv.
#ifndef CEWS_BENCH_BENCH_UTIL_H_
#define CEWS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>

#include "common/env_flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/algorithms.h"
#include "core/drl_cews.h"
#include "env/map.h"
#include "obs/metrics.h"

namespace cews::bench {

/// True when CEWS_BENCH_FULL=1: paper-scale settings.
inline bool FullMode() { return GetEnvBool("CEWS_BENCH_FULL"); }

/// Picks the quick or full value of a knob.
inline int Scaled(int quick, int full) { return FullMode() ? full : quick; }

/// The scenario used across benches (Section VII-A), sized per mode.
inline env::MapConfig BenchMapConfig(int pois, int workers, int stations) {
  env::MapConfig config;
  config.num_pois = pois;
  config.num_workers = workers;
  config.num_stations = stations;
  return config;
}

/// Generates the bench map; aborts on config errors (benches are trusted).
inline env::Map MakeBenchMap(const env::MapConfig& config, uint64_t seed) {
  Rng rng(seed);
  auto result = env::GenerateMap(config, rng);
  CEWS_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Builds the DRL-CEWS system; aborts on config errors (benches are
/// trusted).
inline std::unique_ptr<core::DrlCews> MakeSystem(
    const agents::TrainerConfig& config, const env::Map& map) {
  auto system = core::DrlCews::Create(config, map);
  CEWS_CHECK(system.ok()) << system.status().ToString();
  return std::move(system).value();
}

/// Environment config sized for the current mode (quick: shorter horizon).
inline env::EnvConfig BenchEnvConfig() {
  env::EnvConfig config;
  config.horizon = Scaled(60, 100);
  return config;
}

/// Training knobs sized for the current mode.
inline core::BenchmarkOptions BenchOptions(uint64_t seed) {
  core::BenchmarkOptions options;
  options.seed = seed;
  if (FullMode()) {
    options.episodes = 2500;
    options.num_employees = 8;
    options.batch_size = 250;
    options.update_epochs = 4;
    options.eval_episodes = 5;
    options.grid = 20;
    options.net = core::BenchmarkOptions::MakeBenchNet();
    options.net.conv1_channels = 8;
    options.net.conv2_channels = 16;
    options.net.conv3_channels = 16;
    options.net.feature_dim = 256;
    // Paper-faithful learning constants.
    options.lr = 1e-3f;
    options.gamma = 0.99f;
    options.curiosity_lr = 1e-3f;
    options.curiosity_eta = 0.3f;
    options.epsilon1 = 0.05;
  } else {
    options.episodes = 200;
    options.num_employees = 2;
    options.batch_size = 64;
    options.update_epochs = 6;
    options.eval_episodes = 2;
    options.grid = 12;
    options.net.conv1_channels = 4;
    options.net.conv2_channels = 6;
    options.net.conv3_channels = 6;
    options.net.feature_dim = 64;
    // Quick-mode learning constants (BenchmarkOptions defaults): higher lr,
    // gamma 0.95, reward scale 0.1, epsilon1 = paper 5%.
  }
  // Debug/smoke override for the training length of every bench.
  options.episodes = static_cast<int>(
      GetEnvInt("CEWS_BENCH_EPISODES", options.episodes));
  return options;
}

/// Prints the table and, when CEWS_BENCH_CSV=1, writes `<name>.csv`.
inline void Emit(const Table& table, const std::string& name) {
  std::printf("%s\n", table.ToString().c_str());
  if (GetEnvBool("CEWS_BENCH_CSV")) {
    const std::string path = name + ".csv";
    const Status status = table.WriteCsv(path);
    if (!status.ok()) {
      std::fprintf(stderr, "csv write failed: %s\n",
                   status.ToString().c_str());
    } else {
      std::printf("wrote %s\n", path.c_str());
    }
  }
}

/// Banner with the mode in effect.
inline void Banner(const char* title, const char* paper_ref) {
  std::printf("== %s ==\n(reproduces %s; mode: %s)\n\n", title, paper_ref,
              FullMode() ? "FULL (paper scale)" : "quick");
}

/// When CEWS_OBS_PROFILE=1, prints the obs profile summary (every duration
/// histogram sorted by total time) so a bench run doubles as a profile.
inline void MaybeEmitProfile() {
  if (!GetEnvBool("CEWS_OBS_PROFILE")) return;
  std::printf("\n-- profile (CEWS_OBS_PROFILE) --\n%s\n",
              obs::ProfileTable().ToString().c_str());
}

}  // namespace cews::bench

#endif  // CEWS_BENCH_BENCH_UTIL_H_
