// cews — command-line front end for the library.
//
//   cews scenarios                                  list built-in scenarios
//   cews map --scenario earthquake-site --pois 200 --seed 42
//            [--out site.map] [--svg site.svg]      generate & render a map
//   cews show --map site.map                        render a saved map
//   cews train --scenario X | --map FILE
//              [--algorithm drl-cews|dppo] [--episodes N] [--employees N]
//              [--threads N] [--envs-per-employee N] [--seed N]
//              [--ckpt policy.bin]
//              [--history history.csv]
//              [--metrics-out metrics.json] [--trace-out trace.json]
//              [--heartbeat SECONDS]
//              train a policy and export artifacts
//              (--threads sizes the intra-op NN kernel pool; 0 = all cores,
//               the CEWS_NUM_THREADS env var overrides;
//               --envs-per-employee drives N env instances per employee
//               through the vectorized acting path — one batched policy
//               Forward per lockstep step; 1 = the legacy single-env loop;
//               --metrics-out dumps the obs counters/histograms as JSON,
//               --trace-out enables span tracing and writes a Chrome
//               trace_event file loadable in Perfetto / chrome://tracing,
//               --heartbeat logs a periodic one-line training pulse)
//   cews train-dist --scenario X | --map FILE
//              [--role chief|employee] [--spawn N] [--rank R]
//              [--address unix:/path | tcp:ip:port]
//              [--iterations N] [--employees N] [--envs-per-employee N]
//              [--batch N] [--epochs K] [--threads N] [--seed N]
//              [--algorithm drl-cews|dppo] [--horizon N]
//              [--publish-every K] [--min-delta D] [--eval-envs N]
//              [--shards N] [--snapshot FILE] [--init-ckpt FILE]
//              [--ckpt FILE] [--history FILE] [--metrics-out FILE]
//              [--heartbeat SECONDS]
//              multi-process chief/employee training (src/dist): the chief
//              broadcasts parameters each iteration, merges employee
//              rollouts in rank order, trains, and every --publish-every
//              iterations runs the eval gate and publishes accepted
//              snapshots into a live in-process serving fleet
//              (--spawn N forks N employee processes and runs the chief —
//               the single-host mode; --role employee --rank R dials
//               --address and serves as one rollout actor, for manually
//               placed multi-process runs;
//               --iterations are distributed training iterations (the
//               trainer's episodes); --employees is the world size (set
//               automatically by --spawn);
//               --init-ckpt warm-starts the chief's policy — loaded in
//               strict mode, a checkpoint without a CRC footer is refused
//               since its parameters would fan out to every employee;
//               --publish-every <= 0 disables the publish loop;
//               --snapshot is the crash-safe file accepted candidates are
//               saved to and published from; --ckpt saves the final policy)
//   cews eval --map FILE --ckpt policy.bin
//             [--episodes N] [--svg traj.svg]       evaluate a checkpoint
//   cews serve --map FILE | --scenario X [--ckpt policy.bin]
//              [--shards N] [--max-queue N] [--mode closed|open]
//              [--precision fp32|int8] [--agreement-min R]
//              [--clients N] [--requests N]
//              [--arrival-rps R] [--duration S] [--submit-threads N]
//              [--max-batch N] [--delay-us N]
//              [--serve-threads N] [--threads N] [--seed N]
//              [--metrics-out metrics.json] [--trace-out trace.json]
//              [--heartbeat SECONDS] [--slo SPEC]
//              [--metrics-jsonl ticks.jsonl] [--prom-out metrics.prom]
//              [--export-period SECONDS] [--postmortem-dir DIR]
//              start an in-process serving fleet (N consistent-hash-routed
//              micro-batching shards), drive it with a synthetic load, and
//              print a latency/throughput table
//              (--mode closed: N clients each issuing N completion-gated
//               requests against their own env — throughput/batching focus;
//               --mode open: Poisson arrivals at --arrival-rps for
//               --duration seconds from a simulated population of --clients
//               ids — honest tail latency, including p999 and shed counts;
//               --ckpt hot-loads a checkpoint trained on the same map and
//               options — without it a randomly initialized policy serves;
//               --precision int8 serves the publish-time quantized bundle
//               (per-output-channel int8 weights on the packed int8 GEMM
//               path) instead of fp32; before taking load the CLI replays
//               a deterministic rollout and requires quantized-vs-fp32
//               argmax agreement >= --agreement-min (default 0.99),
//               exiting non-zero below it;
//               --shards sizes the fleet, --max-queue bounds each shard's
//               queue (overload is shed with ResourceExhausted, 0 =
//               unbounded), --max-batch / --delay-us tune the per-shard
//               micro-batcher, --serve-threads sets inference workers per
//               shard, --threads the intra-op NN kernel pool;
//               --trace-out also tags each request's lifecycle spans
//               (queue_wait/batch_assemble/forward/scatter) with its
//               request id and shard;
//               --heartbeat logs the periodic pulse incl. serve rates;
//               --slo evaluates rolling-window targets each export tick,
//               e.g. "p99<5000,shed<0.01" or "p50<200@60" (latency in us
//               over a @window in seconds, shed as a ratio), and prints a
//               status table after the run;
//               --metrics-jsonl appends one windowed metrics snapshot per
//               export tick, --prom-out rewrites a Prometheus text file,
//               --export-period tunes the tick (default 1s);
//               --postmortem-dir installs fatal-signal handlers that dump
//               a flight-recorder post-mortem (recent publishes, swaps,
//               sheds, SLO breaches + last metrics) to
//               DIR/postmortem.<pid>.json — also written on clean exit)
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agents/eval.h"
#include "agents/policy_net.h"
#include "agents/quant_policy.h"
#include "core/algorithms.h"
#include "core/drl_cews.h"
#include "core/scenarios.h"
#include "core/training_log.h"
#include "core/visualize.h"
#include "common/table.h"
#include "dist/deploy_loop.h"
#include "dist/trainer.h"
#include "nn/params.h"
#include "nn/serialize.h"
#include "env/env.h"
#include "env/map_io.h"
#include "env/state_encoder.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/metrics_exporter.h"
#include "obs/slo.h"
#include "obs/stats_reporter.h"
#include "obs/trace.h"
#include "serve/fleet.h"
#include "serve/loadgen.h"

namespace {

using namespace cews;

/// Flat --flag value parser: everything after the subcommand must be
/// "--key value" pairs.
class Args {
 public:
  static Result<Args> Parse(int argc, char** argv, int start) {
    Args args;
    for (int i = start; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        return Status::InvalidArgument("expected --flag, got '" + key + "'");
      }
      key = key.substr(2);
      if (i + 1 >= argc) {
        return Status::InvalidArgument("--" + key + " is missing its value");
      }
      args.values_[key] = argv[++i];
    }
    return args;
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  long GetInt(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtol(it->second.c_str(),
                                                        nullptr, 10);
  }
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtod(it->second.c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Result<env::Map> ResolveMap(const Args& args) {
  if (args.Has("map")) return env::LoadMap(args.Get("map", ""));
  CEWS_ASSIGN_OR_RETURN(
      const core::Scenario scenario,
      core::ScenarioFromName(args.Get("scenario", "earthquake-site")));
  return core::MakeScenario(
      scenario, static_cast<int>(args.GetInt("pois", 150)),
      static_cast<int>(args.GetInt("workers", 2)),
      static_cast<int>(args.GetInt("stations", 4)),
      static_cast<uint64_t>(args.GetInt("seed", 42)));
}

int CmdScenarios() {
  for (const core::Scenario scenario : core::AllScenarios()) {
    std::printf("%s\n", core::ScenarioName(scenario).c_str());
  }
  return 0;
}

int CmdMap(const Args& args) {
  auto map_or = ResolveMap(args);
  if (!map_or.ok()) return Fail(map_or.status());
  const env::Map& map = *map_or;
  std::printf("%s", core::AsciiMap(map, 64).c_str());
  std::printf(
      "(%zu PoIs '*', %zu stations 'C', %zu spawns 'W', %zu obstacles '#')\n",
      map.pois.size(), map.stations.size(), map.worker_spawns.size(),
      map.obstacles.size());
  if (args.Has("out")) {
    const Status status = env::SaveMap(map, args.Get("out", ""));
    if (!status.ok()) return Fail(status);
    std::printf("saved -> %s\n", args.Get("out", "").c_str());
  }
  if (args.Has("svg")) {
    const Status status =
        core::WriteTrajectorySvg(map, {}, args.Get("svg", ""));
    if (!status.ok()) return Fail(status);
    std::printf("svg -> %s\n", args.Get("svg", "").c_str());
  }
  return 0;
}

core::BenchmarkOptions OptionsFrom(const Args& args) {
  core::BenchmarkOptions options;
  options.episodes = static_cast<int>(args.GetInt("episodes", 200));
  options.num_employees = static_cast<int>(args.GetInt("employees", 2));
  options.batch_size = static_cast<int>(args.GetInt("batch", 64));
  options.runtime_threads = static_cast<int>(args.GetInt("threads", 1));
  options.envs_per_employee =
      static_cast<int>(args.GetInt("envs-per-employee", 1));
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  options.grid = 12;
  options.net.conv1_channels = 4;
  options.net.conv2_channels = 6;
  options.net.conv3_channels = 6;
  options.net.feature_dim = 64;
  return options;
}

int CmdTrain(const Args& args) {
  auto map_or = ResolveMap(args);
  if (!map_or.ok()) return Fail(map_or.status());
  const std::string algorithm = args.Get("algorithm", "drl-cews");
  const core::Algorithm which = algorithm == "dppo" ? core::Algorithm::kDppo
                                                    : core::Algorithm::kDrlCews;
  if (algorithm != "dppo" && algorithm != "drl-cews") {
    return Fail(Status::InvalidArgument(
        "train supports drl-cews or dppo, got '" + algorithm + "'"));
  }
  env::EnvConfig env_config;
  env_config.horizon = static_cast<int>(args.GetInt("horizon", 60));
  const core::BenchmarkOptions options = OptionsFrom(args);
  agents::TrainerConfig trainer_config =
      core::MakeTrainerConfig(which, env_config, options);
  trainer_config.heartbeat_seconds = args.GetDouble("heartbeat", 0.0);
  if (args.Has("trace-out")) obs::SetTraceEnabled(true);
  auto system_or = core::DrlCews::Create(trainer_config, *map_or);
  if (!system_or.ok()) return Fail(system_or.status());
  core::DrlCews& system = **system_or;
  std::printf("training %s: %d episodes x %d employees...\n",
              algorithm.c_str(), options.episodes, options.num_employees);
  const agents::TrainResult result = system.Train();
  std::printf("done in %.1fs\n", result.seconds);
  const agents::EvalResult eval = system.Evaluate(3);
  std::printf("eval: kappa=%.3f xi=%.3f rho=%.3f\n", eval.kappa, eval.xi,
              eval.rho);
  if (args.Has("ckpt")) {
    const Status status = system.SaveCheckpoint(args.Get("ckpt", ""));
    if (!status.ok()) return Fail(status);
    std::printf("checkpoint -> %s\n", args.Get("ckpt", "").c_str());
  }
  if (args.Has("history")) {
    const Status status =
        core::WriteHistoryCsv(result.history, args.Get("history", ""));
    if (!status.ok()) return Fail(status);
    std::printf("history -> %s\n", args.Get("history", "").c_str());
  }
  if (args.Has("metrics-out")) {
    const Status status = obs::WriteMetricsJson(args.Get("metrics-out", ""));
    if (!status.ok()) return Fail(status);
    std::printf("metrics -> %s\n", args.Get("metrics-out", "").c_str());
  }
  if (args.Has("trace-out")) {
    const Status status = obs::WriteChromeTrace(args.Get("trace-out", ""));
    if (!status.ok()) return Fail(status);
    std::printf("trace -> %s\n", args.Get("trace-out", "").c_str());
  }
  return 0;
}

int CmdTrainDist(const Args& args) {
  auto map_or = ResolveMap(args);
  if (!map_or.ok()) return Fail(map_or.status());
  const env::Map& map = *map_or;
  const std::string algorithm = args.Get("algorithm", "drl-cews");
  if (algorithm != "dppo" && algorithm != "drl-cews") {
    return Fail(Status::InvalidArgument(
        "train-dist supports drl-cews or dppo, got '" + algorithm + "'"));
  }
  const core::Algorithm which = algorithm == "dppo" ? core::Algorithm::kDppo
                                                    : core::Algorithm::kDrlCews;
  env::EnvConfig env_config;
  env_config.horizon = static_cast<int>(args.GetInt("horizon", 60));
  core::BenchmarkOptions options = OptionsFrom(args);
  // --iterations aliases the trainer's episodes in the distributed loop.
  options.episodes = static_cast<int>(
      args.GetInt("iterations", args.GetInt("episodes", 30)));

  dist::DistTrainerConfig dcfg;
  dcfg.trainer = core::MakeTrainerConfig(which, env_config, options);
  const int spawn = static_cast<int>(args.GetInt("spawn", 0));
  if (spawn > 0) dcfg.trainer.num_employees = spawn;
  dcfg.address = args.Get(
      "address", "unix:/tmp/cews_dist_" + std::to_string(::getpid()) + ".sock");
  dcfg.init_checkpoint = args.Get("init-ckpt", "");

  const std::string role = args.Get("role", "chief");
  if (role == "employee") {
    if (!args.Has("rank") || !args.Has("address")) {
      return Fail(Status::InvalidArgument(
          "train-dist --role employee requires --rank and --address"));
    }
    dist::EmployeeClient client(dcfg, map,
                                static_cast<int>(args.GetInt("rank", 0)));
    const Status status = client.Run();
    if (!status.ok()) return Fail(status);
    return 0;
  }
  if (role != "chief") {
    return Fail(Status::InvalidArgument(
        "--role must be 'chief' or 'employee', got '" + role + "'"));
  }

  const std::string scenario_name =
      args.Has("map") ? std::string(serve::ScenarioRegistry::kDefaultScenario)
                      : args.Get("scenario", "earthquake-site");
  const agents::TrainerConfig norm = dist::NormalizeConfig(dcfg.trainer, map);

  dist::ChiefServer server(dcfg, map);
  const Status bind_status = server.Bind();
  if (!bind_status.ok()) return Fail(bind_status);
  dcfg.address = server.address();  // resolved (tcp:...:0 -> real port)

  // Fork employees while this process is still single-threaded — the fleet,
  // heartbeat reporter and kernel pool threads all come after.
  std::vector<pid_t> pids;
  if (spawn > 0) {
    auto pids_or = dist::SpawnEmployees(dcfg, map);
    if (!pids_or.ok()) return Fail(pids_or.status());
    pids = std::move(*pids_or);
    std::printf("chief @ %s: forked %d employees\n", dcfg.address.c_str(),
                spawn);
  } else {
    std::printf("chief @ %s: waiting for %d employees\n", dcfg.address.c_str(),
                dcfg.trainer.num_employees);
  }

  // The publish target: a live serving fleet in this process. The deploy
  // loop's accepted snapshots hot-swap into it while training continues.
  const int publish_every = static_cast<int>(args.GetInt("publish-every", 5));
  std::unique_ptr<serve::Fleet> fleet;
  std::unique_ptr<dist::DeployLoop> deploy;
  if (publish_every > 0) {
    serve::FleetConfig fleet_config;
    fleet_config.net = norm.net;
    fleet_config.num_shards = static_cast<int>(args.GetInt("shards", 1));
    fleet_config.runtime_threads = options.runtime_threads;
    fleet_config.seed = options.seed;
    fleet_config.scenarios = {scenario_name};
    auto fleet_or = serve::Fleet::Create(fleet_config);
    if (!fleet_or.ok()) return Fail(fleet_or.status());
    fleet = std::move(*fleet_or);

    dist::DeployOptions deploy_options;
    deploy_options.publish_every = publish_every;
    deploy_options.scenario = scenario_name;
    deploy_options.snapshot_path =
        args.Get("snapshot", "cews_deploy_snapshot.bin");
    deploy_options.eval_envs = static_cast<int>(args.GetInt("eval-envs", 2));
    deploy_options.eval_seed = options.seed * 31 + 7;
    deploy_options.min_delta = args.GetDouble("min-delta", 0.0);
    deploy =
        std::make_unique<dist::DeployLoop>(deploy_options, norm, map, fleet.get());
  }
  std::unique_ptr<obs::StatsReporter> heartbeat;
  if (args.GetDouble("heartbeat", 0.0) > 0.0) {
    heartbeat =
        std::make_unique<obs::StatsReporter>(args.GetDouble("heartbeat", 0.0));
  }

  dist::DistTrainResult result;
  const Status run_status = server.Run(&result, deploy.get());
  const Status reap_status = dist::ReapEmployees(pids);
  if (!run_status.ok()) return Fail(run_status);
  if (!reap_status.ok()) return Fail(reap_status);

  const agents::EpisodeRecord& last = result.history.back();
  std::printf("done in %.1fs: %zu iterations, last kappa=%.3f xi=%.3f "
              "rho=%.3f, transport tx=%llu B rx=%llu B\n",
              result.seconds, result.history.size(), last.kappa, last.xi,
              last.rho, static_cast<unsigned long long>(result.bytes_tx),
              static_cast<unsigned long long>(result.bytes_rx));
  if (deploy != nullptr) {
    std::printf("publish gate: accepted=%d rejected=%d published_kappa=%.3f\n",
                deploy->accepted(), deploy->rejected(),
                deploy->published_score());
  }

  // Prove the published model is actually serving: drive a short closed
  // loop against the fleet and report request/error counts and the epoch.
  if (fleet != nullptr) {
    serve::LoadSpec spec;
    spec.mode = serve::LoadMode::kClosedLoop;
    spec.clients = 4;
    spec.requests_per_client = 8;
    spec.submit_threads = 2;
    spec.env = env_config;
    spec.scenario = scenario_name;
    spec.seed = options.seed + 77;
    auto load_or = serve::RunLoad(*fleet, map, spec);
    if (!load_or.ok()) return Fail(load_or.status());
    const auto epoch_or = fleet->Epoch(scenario_name);
    std::printf("fleet check: requests=%lld shed=%lld errors=%lld epoch=%llu\n",
                static_cast<long long>(load_or->requests),
                static_cast<long long>(load_or->shed),
                static_cast<long long>(load_or->errors),
                static_cast<unsigned long long>(
                    epoch_or.ok() ? epoch_or.value() : 0));
    fleet->Stop();
  }
  heartbeat.reset();

  if (args.Has("ckpt")) {
    Rng net_rng(options.seed);
    agents::PolicyNet net(norm.net, net_rng);
    nn::LoadFlatValues(net.Parameters(), result.final_policy);
    const Status status =
        nn::SaveParameters(args.Get("ckpt", ""), net.Parameters());
    if (!status.ok()) return Fail(status);
    std::printf("checkpoint -> %s\n", args.Get("ckpt", "").c_str());
  }
  if (args.Has("history")) {
    const Status status =
        core::WriteHistoryCsv(result.history, args.Get("history", ""));
    if (!status.ok()) return Fail(status);
    std::printf("history -> %s\n", args.Get("history", "").c_str());
  }
  if (args.Has("metrics-out")) {
    const Status status = obs::WriteMetricsJson(args.Get("metrics-out", ""));
    if (!status.ok()) return Fail(status);
    std::printf("metrics -> %s\n", args.Get("metrics-out", "").c_str());
  }
  return 0;
}

int CmdEval(const Args& args) {
  if (!args.Has("ckpt")) {
    return Fail(Status::InvalidArgument("eval requires --ckpt"));
  }
  auto map_or = ResolveMap(args);
  if (!map_or.ok()) return Fail(map_or.status());
  env::EnvConfig env_config;
  env_config.horizon = static_cast<int>(args.GetInt("horizon", 60));
  const core::BenchmarkOptions options = OptionsFrom(args);
  auto system_or = core::DrlCews::Create(
      core::MakeTrainerConfig(core::Algorithm::kDrlCews, env_config, options),
      *map_or);
  if (!system_or.ok()) return Fail(system_or.status());
  core::DrlCews& system = **system_or;
  const Status load = system.LoadCheckpoint(args.Get("ckpt", ""));
  if (!load.ok()) return Fail(load);
  const agents::EvalResult eval =
      system.Evaluate(static_cast<int>(args.GetInt("episodes", 3)));
  std::printf("kappa=%.3f xi=%.3f rho=%.3f\n", eval.kappa, eval.xi,
              eval.rho);
  if (args.Has("svg")) {
    env::Env env(env_config, *map_or);
    env::StateEncoder encoder({options.grid});
    Rng rng(options.seed + 3);
    agents::EvaluatePolicy(system.net(), env, encoder, rng);
    const Status status = core::WriteTrajectorySvg(
        *map_or, env.trajectories(), args.Get("svg", ""));
    if (!status.ok()) return Fail(status);
    std::printf("svg -> %s\n", args.Get("svg", "").c_str());
  }
  return 0;
}

int CmdServe(const Args& args) {
  auto map_or = ResolveMap(args);
  if (!map_or.ok()) return Fail(map_or.status());
  const env::Map& map = *map_or;
  env::EnvConfig env_config;
  env_config.horizon = static_cast<int>(args.GetInt("horizon", 60));
  const core::BenchmarkOptions options = OptionsFrom(args);
  const std::string mode = args.Get("mode", "closed");
  if (mode != "closed" && mode != "open") {
    return Fail(Status::InvalidArgument(
        "--mode must be 'closed' or 'open', got '" + mode + "'"));
  }
  // The fleet's scenario name is the map scenario (or "default" for a
  // --map file); requests and publishes are tagged with it.
  const std::string scenario_name =
      args.Has("map")
          ? std::string(serve::ScenarioRegistry::kDefaultScenario)
          : args.Get("scenario", "earthquake-site");

  // Mirror the trainers' net sizing (map fleet + action space + bench
  // grid), so a --ckpt from `cews train` on the same map loads unchanged.
  serve::FleetConfig fleet_config;
  fleet_config.net = options.net;
  fleet_config.net.grid = options.grid;
  fleet_config.net.num_workers = static_cast<int>(map.worker_spawns.size());
  fleet_config.net.num_moves = env_config.action_space.num_moves();
  fleet_config.num_shards = static_cast<int>(args.GetInt("shards", 1));
  fleet_config.threads_per_shard =
      static_cast<int>(args.GetInt("serve-threads", 1));
  fleet_config.max_batch = static_cast<int>(args.GetInt("max-batch", 8));
  fleet_config.max_queue_delay_us = args.GetInt("delay-us", 200);
  fleet_config.max_queue_depth =
      static_cast<int>(args.GetInt("max-queue", 1024));
  fleet_config.runtime_threads = options.runtime_threads;
  fleet_config.seed = options.seed;
  fleet_config.scenarios = {scenario_name};
  auto precision_or = serve::ParsePrecision(args.Get("precision", "fp32"));
  if (!precision_or.ok()) return Fail(precision_or.status());
  fleet_config.precision = *precision_or;
  if (args.Has("trace-out")) obs::SetTraceEnabled(true);

  // Install the crash handler before the fleet exists so a fault anywhere
  // in startup or load already leaves a post-mortem.
  const std::string postmortem_dir = args.Get("postmortem-dir", "");
  if (!postmortem_dir.empty()) {
    obs::InstallFlightRecorderSignalHandler(postmortem_dir);
  }
  std::unique_ptr<obs::SloMonitor> slo;
  if (args.Has("slo")) {
    auto targets_or = obs::ParseSloTargets(args.Get("slo", ""));
    if (!targets_or.ok()) return Fail(targets_or.status());
    slo = std::make_unique<obs::SloMonitor>(std::move(*targets_or));
  }

  auto fleet_or = serve::Fleet::Create(fleet_config);
  if (!fleet_or.ok()) return Fail(fleet_or.status());
  serve::Fleet& fleet = **fleet_or;
  if (args.Has("ckpt")) {
    const Status status =
        fleet.PublishFromFile(scenario_name, args.Get("ckpt", ""));
    if (!status.ok()) return Fail(status);
    const auto epoch_or = fleet.Epoch(scenario_name);
    std::printf("serving checkpoint %s (scenario '%s', epoch %llu)\n",
                args.Get("ckpt", "").c_str(), scenario_name.c_str(),
                static_cast<unsigned long long>(
                    epoch_or.ok() ? epoch_or.value() : 0));
  } else {
    std::printf(
        "warning: no --ckpt, serving a randomly initialized policy\n");
  }

  // Int8 startup gate: before taking any load, replay a greedy rollout on
  // this map, requiring the serving snapshot's int8 bundle to agree with
  // its fp32 parameters' argmax decisions at --agreement-min. A checkpoint
  // whose quantization flips too many decisions never serves.
  if (fleet_config.precision == serve::Precision::kInt8) {
    const double agreement_min = args.GetDouble("agreement-min", 0.99);
    const auto snapshot = fleet.scenarios().Find(scenario_name)->Acquire();
    Rng net_rng(options.seed);
    agents::PolicyNet net(fleet_config.net, net_rng);
    nn::CopyParameters(snapshot->params, net.Parameters());
    env::VecEnv probe_env(env_config, map, 1);
    const agents::AgreementStats stats = agents::ProbeActionAgreement(
        net, *snapshot->quant,
        env::StateEncoder(env::StateEncoderConfig{fleet_config.net.grid}),
        probe_env, /*steps=*/32);
    std::printf(
        "int8 agreement: %.4f (%lld/%lld decisions over %lld states)\n",
        stats.rate(), static_cast<long long>(stats.matched),
        static_cast<long long>(stats.decisions),
        static_cast<long long>(stats.states));
    if (stats.rate() < agreement_min) {
      return Fail(Status::FailedPrecondition(
          "int8 action agreement " + std::to_string(stats.rate()) +
          " below --agreement-min " + std::to_string(agreement_min)));
    }
  }

  serve::LoadSpec spec;
  spec.mode = mode == "open" ? serve::LoadMode::kOpenLoop
                             : serve::LoadMode::kClosedLoop;
  spec.clients = static_cast<int>(args.GetInt("clients", 8));
  spec.requests_per_client = static_cast<int>(args.GetInt("requests", 100));
  spec.arrival_rps = args.GetDouble("arrival-rps", 1000.0);
  spec.duration_seconds = args.GetDouble("duration", 1.0);
  spec.submit_threads = static_cast<int>(args.GetInt("submit-threads", 2));
  spec.env = env_config;
  spec.scenario = scenario_name;
  spec.seed = options.seed;

  // Observability side-cars for the duration of the load: the human
  // heartbeat and the machine-readable exporter (windowed gauges, SLO
  // evaluation, JSONL/Prometheus sinks, crash-dump snapshot refresh).
  std::unique_ptr<obs::StatsReporter> heartbeat;
  if (args.GetDouble("heartbeat", 0.0) > 0.0) {
    heartbeat =
        std::make_unique<obs::StatsReporter>(args.GetDouble("heartbeat", 0.0));
  }
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (slo != nullptr || args.Has("metrics-jsonl") || args.Has("prom-out") ||
      !postmortem_dir.empty()) {
    obs::MetricsExporterConfig export_config;
    export_config.period_seconds = args.GetDouble("export-period", 1.0);
    export_config.jsonl_path = args.Get("metrics-jsonl", "");
    export_config.prom_path = args.Get("prom-out", "");
    export_config.slo = slo.get();
    exporter = std::make_unique<obs::MetricsExporter>(export_config);
  }
  if (spec.mode == serve::LoadMode::kClosedLoop) {
    std::printf("load: %d closed-loop clients x %d requests, shards=%d "
                "max_batch=%d delay=%lldus serve_threads=%d precision=%s\n",
                spec.clients, spec.requests_per_client,
                fleet_config.num_shards, fleet_config.max_batch,
                static_cast<long long>(fleet_config.max_queue_delay_us),
                fleet_config.threads_per_shard,
                serve::PrecisionName(fleet_config.precision));
  } else {
    std::printf("load: open-loop %.0f req/s for %.2fs over %d clients, "
                "shards=%d max_queue=%d max_batch=%d delay=%lldus "
                "serve_threads=%d precision=%s\n",
                spec.arrival_rps, spec.duration_seconds, spec.clients,
                fleet_config.num_shards, fleet_config.max_queue_depth,
                fleet_config.max_batch,
                static_cast<long long>(fleet_config.max_queue_delay_us),
                fleet_config.threads_per_shard,
                serve::PrecisionName(fleet_config.precision));
  }
  auto result_or = serve::RunLoad(fleet, map, spec);
  if (!result_or.ok()) return Fail(result_or.status());
  const serve::LoadResult& result = *result_or;

  Table table({"shards", "clients", "requests", "shed", "errors",
               "offered_rps", "rps", "mean_us", "p50_us", "p95_us",
               "p99_us", "p999_us", "mean_batch"});
  table.AddRow({std::to_string(fleet.num_shards()),
                std::to_string(spec.clients),
                std::to_string(result.requests),
                std::to_string(result.shed),
                std::to_string(result.errors),
                Table::Fmt(result.offered_rps, 1),
                Table::Fmt(result.throughput_rps, 1),
                Table::Fmt(result.latency_mean_us, 1),
                Table::Fmt(result.latency_p50_us, 1),
                Table::Fmt(result.latency_p95_us, 1),
                Table::Fmt(result.latency_p99_us, 1),
                Table::Fmt(result.latency_p999_us, 1),
                Table::Fmt(result.mean_batch, 2)});
  std::printf("%s", table.ToString().c_str());

  fleet.Stop();
  heartbeat.reset();  // final heartbeat line
  exporter.reset();   // final export tick (JSONL/prom/flight snapshot)
  if (slo != nullptr) {
    // One more pass now that the exporter thread is gone (SloMonitor is
    // single-caller), so the table reflects end-of-run state.
    std::printf("%s", obs::SloMonitor::FormatTable(slo->Evaluate()).c_str());
  }
  if (args.Has("metrics-out")) {
    const Status status = obs::WriteMetricsJson(args.Get("metrics-out", ""));
    if (!status.ok()) return Fail(status);
    std::printf("metrics -> %s\n", args.Get("metrics-out", "").c_str());
  }
  if (args.Has("trace-out")) {
    const Status status = obs::WriteChromeTrace(args.Get("trace-out", ""));
    if (!status.ok()) return Fail(status);
    std::printf("trace -> %s\n", args.Get("trace-out", "").c_str());
  }
  if (!postmortem_dir.empty()) {
    const std::string path = postmortem_dir + "/postmortem." +
                             std::to_string(::getpid()) + ".json";
    const Status status =
        obs::FlightRecorder::Global().WriteDump(path, "clean_shutdown");
    if (!status.ok()) return Fail(status);
    std::printf("postmortem -> %s\n", path.c_str());
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: cews <scenarios|map|show|train|train-dist|eval|serve>"
               " [--flag value]\n"
               "see the header of tools/cews_cli.cpp for details\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  auto args_or = Args::Parse(argc, argv, 2);
  if (!args_or.ok()) return Fail(args_or.status());
  const Args& args = *args_or;
  if (command == "scenarios") return CmdScenarios();
  if (command == "map") return CmdMap(args);
  if (command == "show") {
    if (!args.Has("map")) {
      return Fail(Status::InvalidArgument("show requires --map"));
    }
    return CmdMap(args);
  }
  if (command == "train") return CmdTrain(args);
  if (command == "train-dist") return CmdTrainDist(args);
  if (command == "eval") return CmdEval(args);
  if (command == "serve") return CmdServe(args);
  return Usage();
}
