// Ablation of reward scaling: raw rewards vs a fixed 0.1 scale vs the
// adaptive running-std normalizer. Motivates the implementation note in
// DESIGN.md — with O(10) returns the shared value head cannot catch up
// within a short training budget, starving the advantage signal.
#include "bench/bench_util.h"
#include "core/drl_cews.h"

int main() {
  using namespace cews;
  bench::Banner("Ablation: reward scaling", "implementation design choice");
  const core::BenchmarkOptions options = bench::BenchOptions(/*seed=*/25);
  const int pois = bench::Scaled(150, 300);
  const env::Map map =
      bench::MakeBenchMap(bench::BenchMapConfig(pois, 2, 4), 42);
  const env::EnvConfig env_config = bench::BenchEnvConfig();

  struct Variant {
    const char* name;
    float scale;
    bool normalize;
  };
  const Variant variants[] = {
      {"raw rewards (scale 1.0)", 1.0f, false},
      {"fixed scale 0.1", 0.1f, false},
      {"running-std normalizer", 1.0f, true},
  };

  Table table({"scaling", "kappa", "xi", "rho"});
  for (const Variant& variant : variants) {
    agents::TrainerConfig config = core::MakeTrainerConfig(
        core::Algorithm::kDppo, env_config, options);
    config.num_employees = options.num_employees;
    config.batch_size = options.batch_size;
    config.reward_scale = variant.scale;
    config.normalize_rewards = variant.normalize;
    const std::unique_ptr<core::DrlCews> system =
        bench::MakeSystem(config, map);
    system->Train();
    const agents::EvalResult r = system->Evaluate(options.eval_episodes);
    table.AddRow({variant.name, Table::Fmt(r.kappa), Table::Fmt(r.xi),
                  Table::Fmt(r.rho)});
    std::printf("  %-26s kappa=%.3f rho=%.3f\n", variant.name, r.kappa,
                r.rho);
    std::fflush(stdout);
  }
  std::printf("\n");
  bench::Emit(table, "ablation_reward_scaling");
  return 0;
}
