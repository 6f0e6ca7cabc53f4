// Ablation of the curiosity weight eta (Eqn 17): sweeps the intrinsic
// reward scale under the sparse extrinsic reward. eta = 0 degenerates to
// "sparse only" (which the paper shows failing); very large eta drowns the
// task signal in exploration bonus.
#include "bench/bench_util.h"
#include "core/drl_cews.h"

int main() {
  using namespace cews;
  bench::Banner("Ablation: curiosity weight eta", "Eqn 17 design choice");
  const core::BenchmarkOptions options = bench::BenchOptions(/*seed=*/24);
  const int pois = bench::Scaled(150, 300);
  const env::Map map =
      bench::MakeBenchMap(bench::BenchMapConfig(pois, 2, 4), 42);
  const env::EnvConfig env_config = bench::BenchEnvConfig();

  Table table({"eta", "kappa", "xi", "rho"});
  for (const float eta : {0.0f, 0.1f, 0.3f, 0.5f, 1.0f, 2.0f}) {
    agents::TrainerConfig config = core::MakeTrainerConfig(
        core::Algorithm::kDrlCews, env_config, options);
    config.curiosity.eta = eta;
    if (eta == 0.0f) config.intrinsic = agents::IntrinsicMode::kNone;
    const std::unique_ptr<core::DrlCews> system =
        bench::MakeSystem(config, map);
    system->Train();
    const agents::EvalResult r = system->Evaluate(options.eval_episodes);
    table.AddRow({Table::Fmt(eta, 1), Table::Fmt(r.kappa), Table::Fmt(r.xi),
                  Table::Fmt(r.rho)});
    std::printf("  eta=%.1f kappa=%.3f xi=%.3f rho=%.3f\n", eta, r.kappa,
                r.xi, r.rho);
    std::fflush(stdout);
  }
  std::printf("\n");
  bench::Emit(table, "ablation_eta");
  return 0;
}
