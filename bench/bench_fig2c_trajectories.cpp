// Reproduces Fig. 2(c): attained trajectories for 2 drones with 4 charging
// stations under a trained DRL-CEWS policy. Emits the trajectory CSV and a
// per-worker path summary (distance traveled, charging slots, collisions).
#include "bench/bench_util.h"
#include "core/drl_cews.h"

int main() {
  using namespace cews;
  bench::Banner("Attained trajectories, 2 drones / 4 stations", "Fig. 2(c)");
  const core::BenchmarkOptions options = bench::BenchOptions(/*seed=*/20);
  const int pois = bench::Scaled(150, 300);
  const env::Map map =
      bench::MakeBenchMap(bench::BenchMapConfig(pois, 2, 4), 42);

  const std::unique_ptr<core::DrlCews> system = bench::MakeSystem(
      core::MakeTrainerConfig(core::Algorithm::kDrlCews,
                              bench::BenchEnvConfig(), options),
      map);
  const agents::TrainResult train = system->Train();
  std::printf("trained %.1fs\n", train.seconds);

  const Status status = system->ExportTrajectoryCsv("fig2c_trajectories.csv");
  CEWS_CHECK(status.ok()) << status.ToString();
  std::printf("wrote fig2c_trajectories.csv\n\n");

  // Summarize the evaluation episode the export just ran.
  env::Env env(system->config().env, map);
  Rng rng(7);
  env::StateEncoder encoder(system->config().encoder);
  agents::EvaluatePolicy(system->net(), env, encoder, rng);
  Table table({"worker", "path length", "kappa contribution", "collisions",
               "charged energy"});
  const double total = map.TotalInitialData();
  for (int w = 0; w < env.num_workers(); ++w) {
    const auto& traj = env.trajectories()[static_cast<size_t>(w)];
    double length = 0.0;
    for (size_t i = 1; i < traj.size(); ++i) {
      length += env::Distance(traj[i - 1], traj[i]);
    }
    const env::WorkerState& ws = env.workers()[static_cast<size_t>(w)];
    table.AddRow({std::to_string(w), Table::Fmt(length, 2),
                  Table::Fmt(ws.collected_total / total),
                  std::to_string(ws.collisions),
                  Table::Fmt(ws.charged_total, 1)});
  }
  bench::Emit(table, "fig2c_summary");
  return 0;
}
