// Ablation of the distributed-architecture design choice (Section V-A): the
// paper argues for *synchronous* chief-employee updates because asynchrony
// introduces policy-lag. Compares, on one scenario and equal episode
// budgets: synchronous PPO, asynchronous actor-critic (lag uncorrected),
// and asynchronous actor-critic with V-trace correction (Espeholt et al.).
#include "agents/async_trainer.h"
#include "bench/bench_util.h"
#include "core/drl_cews.h"

int main() {
  using namespace cews;
  bench::Banner("Ablation: synchronous vs asynchronous updates",
                "Section V-A design choice");
  const core::BenchmarkOptions options = bench::BenchOptions(/*seed=*/23);
  const int pois = bench::Scaled(150, 300);
  const env::Map map =
      bench::MakeBenchMap(bench::BenchMapConfig(pois, 2, 4), 42);
  const env::EnvConfig env_config = bench::BenchEnvConfig();
  const int employees = bench::Scaled(2, 8);
  const int episodes = options.episodes;

  Table table({"trainer", "kappa", "xi", "rho", "seconds"});

  {  // Synchronous chief-employee PPO (dense reward for a fair comparison —
     // the async trainer has no curiosity module).
    agents::TrainerConfig config = core::MakeTrainerConfig(
        core::Algorithm::kDppo, env_config, options);
    config.num_employees = employees;
    const std::unique_ptr<core::DrlCews> system =
        bench::MakeSystem(config, map);
    const agents::TrainResult train = system->Train();
    const agents::EvalResult r = system->Evaluate(options.eval_episodes);
    table.AddRow({"sync PPO (chief-employee)", Table::Fmt(r.kappa),
                  Table::Fmt(r.xi), Table::Fmt(r.rho),
                  Table::Fmt(train.seconds, 1)});
    std::printf("  sync PPO        kappa=%.3f rho=%.3f (%.1fs)\n", r.kappa,
                r.rho, train.seconds);
    std::fflush(stdout);
  }

  for (const bool vtrace : {false, true}) {
    agents::AsyncTrainerConfig config;
    config.num_employees = employees;
    config.episodes = episodes;  // per employee, matching the sync budget
    config.use_vtrace = vtrace;
    config.env = env_config;
    config.encoder.grid = options.grid;
    config.net = options.net;
    config.net.grid = options.grid;
    config.lr = options.lr;
    config.gamma = options.gamma;
    config.reward_scale = options.reward_scale;
    config.seed = options.seed;
    agents::AsyncTrainer trainer(config, map);
    const agents::TrainResult train = trainer.Train();
    env::Env env(env_config, map);
    env::StateEncoder encoder({options.grid});
    Rng rng(options.seed * 31 + 5);
    const agents::EvalResult r = agents::EvaluatePolicyAveraged(
        trainer.global_net(), env, encoder, rng, options.eval_episodes);
    const char* name = vtrace ? "async A2C + V-trace" : "async A2C (no correction)";
    table.AddRow({name, Table::Fmt(r.kappa), Table::Fmt(r.xi),
                  Table::Fmt(r.rho), Table::Fmt(train.seconds, 1)});
    std::printf("  %-24s kappa=%.3f rho=%.3f (%.1fs)\n", name, r.kappa,
                r.rho, train.seconds);
    std::fflush(stdout);
  }
  std::printf("\n");
  bench::Emit(table, "ablation_async");
  return 0;
}
