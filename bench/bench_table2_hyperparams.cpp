// Reproduces Table II: kappa / xi / rho as a function of the number of
// employees {1, 2, 4, 8, 16} and the update batch size {50, 125, 250, 500}
// (W = 2, P = 200). The paper's finding: performance improves with more
// employees and peaks around batch 250.
#include "bench/bench_util.h"
#include "core/drl_cews.h"

int main() {
  using namespace cews;
  bench::Banner("Impact of two hyperparameters", "Table II");
  const core::BenchmarkOptions base = bench::BenchOptions(/*seed=*/17);
  const int pois = bench::Scaled(100, 200);
  const env::Map map =
      bench::MakeBenchMap(bench::BenchMapConfig(pois, 2, 4), 42);

  const std::vector<int> employee_counts = {1, 2, 4, 8, 16};
  const std::vector<int> batch_sizes = {50, 125, 250, 500};
  // Table II is 20 training runs; keep each one short in quick mode.
  const int episodes = static_cast<int>(
      GetEnvInt("CEWS_BENCH_EPISODES", bench::Scaled(12, 2500)));

  std::vector<std::string> headers = {"batch", "metric"};
  for (const int e : employee_counts) {
    headers.push_back("E=" + std::to_string(e));
  }
  Table table(headers);

  for (const int batch : batch_sizes) {
    std::vector<std::string> kappa_row = {std::to_string(batch), "kappa"};
    std::vector<std::string> xi_row = {std::to_string(batch), "xi"};
    std::vector<std::string> rho_row = {std::to_string(batch), "rho"};
    for (const int employees : employee_counts) {
      core::BenchmarkOptions options = base;
      options.episodes = episodes;
      options.num_employees = employees;
      options.batch_size = batch;
      const std::unique_ptr<core::DrlCews> system = bench::MakeSystem(
          core::MakeTrainerConfig(core::Algorithm::kDrlCews,
                                  bench::BenchEnvConfig(), options),
          map);
      system->Train();
      const agents::EvalResult r = system->Evaluate(options.eval_episodes);
      kappa_row.push_back(Table::Fmt(r.kappa));
      xi_row.push_back(Table::Fmt(r.xi));
      rho_row.push_back(Table::Fmt(r.rho));
      std::printf("  [batch=%d employees=%d] kappa=%.3f xi=%.3f rho=%.3f\n",
                  batch, employees, r.kappa, r.xi, r.rho);
      std::fflush(stdout);
    }
    table.AddRow(std::move(kappa_row));
    table.AddRow(std::move(xi_row));
    table.AddRow(std::move(rho_row));
  }
  std::printf("\n");
  bench::Emit(table, "table2_hyperparams");
  return 0;
}
