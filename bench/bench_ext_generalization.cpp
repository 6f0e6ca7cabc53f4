// Extension benchmark: generalization to unseen scenarios (the natural
// future-work question for a centralized learned controller). Trains
// DRL-CEWS and DPPO on one map and evaluates on the training map plus
// three maps generated with different seeds; the reactive planners provide
// a training-free reference.
#include "baselines/dnc.h"
#include "baselines/greedy.h"
#include "baselines/planner.h"
#include "bench/bench_util.h"
#include "core/drl_cews.h"
#include "env/state_encoder.h"

int main() {
  using namespace cews;
  bench::Banner("Extension: generalization to unseen maps",
                "beyond the paper");
  const core::BenchmarkOptions options = bench::BenchOptions(/*seed=*/27);
  const env::EnvConfig env_config = bench::BenchEnvConfig();
  const int pois = bench::Scaled(150, 300);

  const env::MapConfig map_config = bench::BenchMapConfig(pois, 2, 4);
  const env::Map train_map = bench::MakeBenchMap(map_config, 42);
  std::vector<std::pair<std::string, env::Map>> eval_maps = {
      {"train map", train_map},
      {"unseen #1", bench::MakeBenchMap(map_config, 1001)},
      {"unseen #2", bench::MakeBenchMap(map_config, 1002)},
      {"unseen #3", bench::MakeBenchMap(map_config, 1003)},
  };

  Table table({"map", "algorithm", "kappa", "rho"});

  // Train the two learned policies once on the training map.
  struct Learned {
    const char* name;
    std::unique_ptr<core::DrlCews> system;
  };
  std::vector<Learned> learned;
  for (const core::Algorithm algorithm :
       {core::Algorithm::kDrlCews, core::Algorithm::kDppo}) {
    auto system = bench::MakeSystem(
        core::MakeTrainerConfig(algorithm, env_config, options), train_map);
    system->Train();
    learned.push_back(
        Learned{core::AlgorithmName(algorithm) == "DPPO" ? "DPPO" : "DRL-CEWS",
                std::move(system)});
    std::printf("  trained %s\n", learned.back().name);
    std::fflush(stdout);
  }

  env::StateEncoder encoder({options.grid});
  for (const auto& [map_name, map] : eval_maps) {
    for (const Learned& l : learned) {
      env::Env env(env_config, map);
      Rng rng(options.seed + 7);
      const agents::EvalResult r = agents::EvaluatePolicyAveraged(
          l.system->net(), env, encoder, rng, options.eval_episodes);
      table.AddRow({map_name, l.name, Table::Fmt(r.kappa),
                    Table::Fmt(r.rho)});
      std::printf("  [%-9s] %-8s kappa=%.3f rho=%.3f\n", map_name.c_str(),
                  l.name, r.kappa, r.rho);
    }
    {
      env::Env env(env_config, map);
      const agents::EvalResult r =
          baselines::RunPlannerEpisode(baselines::GreedyPlanner(), env);
      table.AddRow({map_name, "Greedy", Table::Fmt(r.kappa),
                    Table::Fmt(r.rho)});
    }
    std::fflush(stdout);
  }
  std::printf("\n");
  bench::Emit(table, "ext_generalization");
  return 0;
}
