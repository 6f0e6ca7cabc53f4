// Reproduces Fig. 9: curiosity value at each visited location over the
// course of training, for DRL-CEWS (top row) and DPPO (bottom row; the
// curiosity model observes DPPO's transitions passively without feeding its
// reward). W = 1, P = 300. The paper's findings: brightness (intrinsic
// reward) decays as the policy stabilizes, and DRL-CEWS's bright region
// covers a larger area — curiosity pushes exploration.
#include <cmath>

#include "bench/bench_util.h"
#include "core/drl_cews.h"

namespace {

void PrintAsciiHeatmaps(const char* name,
                        const std::vector<cews::agents::HeatmapSnapshot>& snaps,
                        int grid) {
  // Global scale so brightness is comparable across snapshots.
  double max_value = 0.0;
  for (const auto& snap : snaps) {
    for (double v : snap.cell_values) max_value = std::max(max_value, v);
  }
  std::printf("%s (glyphs .:-=+*#%%@ scale 0..%.4f; rows top=far)\n", name,
              max_value);
  for (const auto& snap : snaps) {
    std::printf(" after episode %d:\n", snap.episode);
    for (int y = grid - 1; y >= 0; --y) {
      std::printf("   ");
      for (int x = 0; x < grid; ++x) {
        const double v = snap.cell_values[static_cast<size_t>(y * grid + x)];
        const char* glyphs = " .:-=+*#%@";
        int level = 0;
        if (max_value > 0.0 && v > 0.0) {
          level = 1 + static_cast<int>(v / max_value * 8.999);
        }
        std::printf("%c", glyphs[level]);
      }
      std::printf("\n");
    }
    // Coverage statistic: how much of the space curiosity has lit up.
    int visited = 0;
    double total = 0.0;
    for (double v : snap.cell_values) {
      if (v > 0.0) ++visited;
      total += v;
    }
    std::printf("   visited cells: %d/%d, mean curiosity: %.5f\n\n", visited,
                grid * grid,
                total / std::max(1, visited));
  }
}

}  // namespace

int main() {
  using namespace cews;
  bench::Banner("Curiosity visualization over training", "Fig. 9");
  core::BenchmarkOptions options = bench::BenchOptions(/*seed=*/19);
  const int pois = bench::Scaled(150, 300);
  const env::Map map =
      bench::MakeBenchMap(bench::BenchMapConfig(pois, /*workers=*/1, 4), 42);
  const int episodes = std::max<int>(
      5, static_cast<int>(
             GetEnvInt("CEWS_BENCH_EPISODES", bench::Scaled(50, 600))));
  const int snapshot_every = episodes / 5;  // five panels, as in the paper

  struct Variant {
    const char* name;
    bool drl_cews;
  };
  for (const Variant& variant :
       {Variant{"DRL-CEWS", true}, Variant{"DPPO", false}}) {
    agents::TrainerConfig config = core::MakeTrainerConfig(
        variant.drl_cews ? core::Algorithm::kDrlCews : core::Algorithm::kDppo,
        bench::BenchEnvConfig(), options);
    config.episodes = episodes;
    config.heatmap_snapshot_every = snapshot_every;
    if (!variant.drl_cews) {
      // Attach a passive curiosity monitor to DPPO: trained on its
      // transitions, excluded from its reward.
      config.intrinsic = agents::IntrinsicMode::kSpatialCuriosity;
      config.add_intrinsic_to_reward = false;
    }
    const std::unique_ptr<core::DrlCews> system =
        bench::MakeSystem(config, map);
    system->Train();
    PrintAsciiHeatmaps(variant.name, system->heatmap_snapshots(),
                       options.grid);
    const Status status = system->ExportHeatmapCsv(
        std::string("fig9_heatmap_") +
        (variant.drl_cews ? "drlcews" : "dppo") + ".csv");
    if (status.ok()) {
      std::printf("  wrote fig9_heatmap_%s.csv\n\n",
                  variant.drl_cews ? "drlcews" : "dppo");
    }
  }
  return 0;
}
