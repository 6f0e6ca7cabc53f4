// Reproduces Fig. 3: wall-clock training time as a function of the number
// of employees (batch 250). The paper reports 16 employees taking 45.5%
// longer than 8 for a 1.7% rho gain, motivating the choice of 8.
//
// Note: on a single-core host the synchronous employees serialize, so time
// grows roughly linearly with the employee count — the paper's qualitative
// conclusion (diminishing returns past 8 employees) still shows.
#include "bench/bench_util.h"
#include "core/drl_cews.h"

int main() {
  using namespace cews;
  bench::Banner("Training time vs number of employees", "Fig. 3");
  const core::BenchmarkOptions base = bench::BenchOptions(/*seed=*/18);
  const int pois = bench::Scaled(100, 200);
  const env::Map map =
      bench::MakeBenchMap(bench::BenchMapConfig(pois, 2, 4), 42);
  const int episodes = static_cast<int>(
      GetEnvInt("CEWS_BENCH_EPISODES", bench::Scaled(10, 2500)));

  Table table({"employees", "seconds", "vs 8 employees", "rho"});
  std::vector<double> seconds;
  std::vector<double> rhos;
  const std::vector<int> employee_counts = {1, 2, 4, 8, 16};
  for (const int employees : employee_counts) {
    core::BenchmarkOptions options = base;
    options.episodes = episodes;
    options.num_employees = employees;
    options.batch_size = bench::Scaled(64, 250);
    const std::unique_ptr<core::DrlCews> system = bench::MakeSystem(
        core::MakeTrainerConfig(core::Algorithm::kDrlCews,
                                bench::BenchEnvConfig(), options),
        map);
    const agents::TrainResult result = system->Train();
    const agents::EvalResult eval = system->Evaluate(options.eval_episodes);
    seconds.push_back(result.seconds);
    rhos.push_back(eval.rho);
    std::printf("  employees=%-2d seconds=%.2f rho=%.3f\n", employees,
                result.seconds, eval.rho);
    std::fflush(stdout);
  }
  const double baseline8 = seconds[3];
  for (size_t i = 0; i < employee_counts.size(); ++i) {
    const double delta = (seconds[i] - baseline8) / baseline8 * 100.0;
    table.AddRow({std::to_string(employee_counts[i]),
                  Table::Fmt(seconds[i], 2),
                  Table::Fmt(delta, 1) + "%", Table::Fmt(rhos[i])});
  }
  std::printf("\n");
  bench::Emit(table, "fig3_training_time");
  bench::MaybeEmitProfile();
  return 0;
}
