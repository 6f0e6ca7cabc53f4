// The two training workloads.
//
//   train_paper  core::DrlCews::Create(config)->Train() on the paper's
//                configuration with 2 employee threads (the `cews train`
//                trainer). Learning dominates an iteration.
//   train_dist   dist::ChiefServer plus 2 employees forked by
//                dist::SpawnEmployees, over a unix socket (the
//                `cews train-dist --spawn 2` path). Acting and the wire
//                dominate; learning is small.
//
// A run trains in back-to-back rounds until --seconds is used up. Every
// round is one complete training of a fixed number of iterations from the
// seed, so every round must end at the same parameter digest; train_dist's
// digest must also equal dist::TrainDistReference on the same config.
//
// The traced run cannot see inside DrlCews::Train or ChiefServer::Run, so it
// replays the same configuration through the dist cores in one process —
// CurrentParams/SetParams, RunIteration, Pack*/Unpack* with frame encode and
// CRC-checked decode, MergeRollouts, Learn — with a span around each call,
// and then probes the calls inside RunIteration (VecEnv::Step,
// StateEncoder::EncodeBatch, SamplePolicyBatch) and inside Learn (the PPO
// and curiosity minibatch updates) on the same shapes.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "agents/curiosity.h"
#include "agents/eval.h"
#include "agents/ppo.h"
#include "bench.h"
#include "core/algorithms.h"
#include "core/drl_cews.h"
#include "core/scenarios.h"
#include "cost.h"
#include "dist/frame.h"
#include "dist/trainer.h"
#include "dist/wire.h"
#include "env/vec_env.h"
#include "nn/optimizer.h"
#include "nn/params.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

using namespace cews;

struct TrainSpec {
  std::string name;
  bool forked = false;  ///< train_dist: chief + forked employees.
  agents::TrainerConfig config;  ///< episodes = iterations per round.
  int pois = 0;
  int workers = 2;
  int stations = 4;
  int replay_iterations = 0;  ///< Per replay (untraced and traced).
  int act_episodes = 0;       ///< Episodes of the acting probe.
  int learn_rounds = 0;       ///< update_epochs-sized rounds of the learn probe.
};

TrainSpec PaperSpec(const Options& options) {
  TrainSpec spec;
  spec.name = "train_paper";
  agents::TrainerConfig& c = spec.config;
  c = core::DrlCews::DefaultConfig();
  c.num_employees = 2;
  c.runtime_threads = 1;
  c.envs_per_employee = 1;
  c.env.horizon = 100;
  c.encoder.grid = 20;
  c.net.grid = 20;
  c.seed = options.seed;
  c.episodes = 4;
  spec.pois = 200;
  spec.replay_iterations = 4;
  spec.act_episodes = 2;
  spec.learn_rounds = 4;
  if (options.tiny) {
    c.env.horizon = 20;
    c.batch_size = 32;
    c.update_epochs = 2;
    c.episodes = 2;
    spec.pois = 40;
    spec.replay_iterations = 2;
    spec.act_episodes = 1;
    spec.learn_rounds = 1;
  }
  return spec;
}

TrainSpec DistSpec(const Options& options) {
  TrainSpec spec;
  spec.name = "train_dist";
  spec.forked = true;
  // The `cews train-dist` CLI's small net and learning constants.
  core::BenchmarkOptions b;
  b.episodes = 20;
  b.num_employees = 2;
  b.batch_size = 64;
  b.runtime_threads = 1;
  b.envs_per_employee = 8;
  b.update_epochs = 2;
  b.seed = options.seed;
  b.grid = 12;
  b.net.conv1_channels = 4;
  b.net.conv2_channels = 6;
  b.net.conv3_channels = 6;
  b.net.feature_dim = 64;
  env::EnvConfig env_config;
  env_config.horizon = 60;
  spec.pois = 150;
  spec.replay_iterations = 10;
  spec.act_episodes = 4;
  spec.learn_rounds = 8;
  if (options.tiny) {
    env_config.horizon = 15;
    b.envs_per_employee = 2;
    b.episodes = 2;
    spec.pois = 40;
    spec.replay_iterations = 2;
    spec.act_episodes = 1;
    spec.learn_rounds = 1;
  }
  spec.config =
      core::MakeTrainerConfig(core::Algorithm::kDrlCews, env_config, b);
  return spec;
}

Result<env::Map> MakeMap(const TrainSpec& spec, uint64_t seed) {
  return core::MakeScenario(core::Scenario::kEarthquakeSite, spec.pois,
                            spec.workers, spec.stations, seed);
}

std::vector<float> Concat(std::vector<float> a, const std::vector<float>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// One complete training from the seed.
struct Round {
  bool ok = false;
  double setup_s = 0.0;       ///< Map + construction (+ fork, handshake).
  double iter_seconds = 0.0;  ///< Sum of iteration wall times.
  std::vector<double> iter_ms;
  int64_t steps = 0;
  std::vector<float> params;  ///< Final trainable parameters.
  double bytes_per_iter = 0.0;
};

/// Checks every iteration record (kappa, xi, rho in [0, 1]; finite
/// rewards). Each failing iteration is one failed operation.
void CheckHistory(const std::vector<agents::EpisodeRecord>& history,
                  Report* report) {
  for (const agents::EpisodeRecord& rec : history) {
    const bool in_range = rec.kappa >= 0.0 && rec.kappa <= 1.0 &&
                          rec.xi >= 0.0 && rec.xi <= 1.0 && rec.rho >= 0.0 &&
                          rec.rho <= 1.0;
    const bool finite = std::isfinite(rec.extrinsic_reward) &&
                        std::isfinite(rec.intrinsic_reward) &&
                        std::isfinite(rec.wall_seconds);
    if (!in_range || !finite) {
      report->Fail(Format("iteration %d: kappa=%g xi=%g rho=%g ext=%g int=%g",
                          rec.episode, rec.kappa, rec.xi, rec.rho,
                          rec.extrinsic_reward, rec.intrinsic_reward));
    }
  }
}

void FinishRound(const agents::TrainerConfig& config,
                 const std::vector<agents::EpisodeRecord>& history,
                 double construct_s, double train_s, Round* round,
                 Report* report) {
  CheckHistory(history, report);
  report->AddAttempted(static_cast<int64_t>(history.size()));
  for (const agents::EpisodeRecord& rec : history) {
    round->iter_ms.push_back(rec.wall_seconds * 1e3);
    round->iter_seconds += rec.wall_seconds;
  }
  round->steps = static_cast<int64_t>(history.size()) * config.env.horizon *
                 config.envs_per_employee * config.num_employees;
  // Time inside Train()/Run() before the first iteration (thread start,
  // employee construction, handshake) is set-up too.
  round->setup_s = construct_s + std::max(0.0, train_s - round->iter_seconds);
  const double loss = obs::GetGauge("train.loss")->Get();
  if (!std::isfinite(loss)) report->FailCheck("training loss is not finite");
  if (!AllFinite(round->params)) {
    report->FailCheck("final parameters are not all finite");
  }
  round->ok = true;
}

Round PaperRound(const TrainSpec& spec, Report* report) {
  Round round;
  const uint64_t start = NowNs();
  Result<env::Map> map = MakeMap(spec, spec.config.seed);
  if (!map.ok()) {
    report->FailCheck("map: " + map.status().ToString());
    return round;
  }
  auto system = core::DrlCews::Create(spec.config, std::move(*map));
  if (!system.ok()) {
    report->FailCheck("DrlCews::Create: " + system.status().ToString());
    return round;
  }
  const double construct_s = SecondsSince(start);
  const agents::TrainResult result = (*system)->Train();
  round.params = nn::FlattenValues((*system)->net().Parameters());
  FinishRound(spec.config, result.history, construct_s, result.seconds, &round,
              report);
  return round;
}

std::string SocketAddress(const Options& options) {
  return "unix:" + options.out_dir + "/dist-" + std::to_string(::getpid()) +
         ".sock";
}

Round DistRound(const TrainSpec& spec, const Options& options,
                Report* report) {
  Round round;
  const uint64_t start = NowNs();
  Result<env::Map> map = MakeMap(spec, spec.config.seed);
  if (!map.ok()) {
    report->FailCheck("map: " + map.status().ToString());
    return round;
  }
  dist::DistTrainerConfig dcfg;
  dcfg.trainer = spec.config;
  dcfg.address = SocketAddress(options);
  dist::ChiefServer chief(dcfg, *map);
  const Status bound = chief.Bind();
  if (!bound.ok()) {
    report->FailCheck("chief bind: " + bound.ToString());
    return round;
  }
  dcfg.address = chief.address();
  std::fflush(stdout);
  std::fflush(stderr);
  // The process is single-threaded here (runtime_threads = 1, no fleet), as
  // SpawnEmployees requires.
  Result<std::vector<pid_t>> pids = dist::SpawnEmployees(dcfg, *map);
  if (!pids.ok()) {
    report->FailCheck("spawn: " + pids.status().ToString());
    return round;
  }
  const double construct_s = SecondsSince(start);
  dist::DistTrainResult result;
  const Status run = chief.Run(&result);
  const Status reaped = dist::ReapEmployees(*pids);
  if (!run.ok() || !reaped.ok()) {
    report->FailCheck("chief: " + run.ToString() + " / employees: " +
                      reaped.ToString());
    return round;
  }
  round.params = Concat(result.final_policy, result.final_intrinsic);
  round.bytes_per_iter =
      static_cast<double>(result.bytes_tx + result.bytes_rx) /
      static_cast<double>(std::max<size_t>(1, result.history.size()));
  FinishRound(spec.config, result.history, construct_s, result.seconds, &round,
              report);
  return round;
}

// ---------------------------------------------------------------------------
// Traced replay through the dist cores
// ---------------------------------------------------------------------------

struct Replay {
  bool ok = true;
  std::vector<double> iter_ms;
  int64_t steps = 0;
  double seconds = 0.0;
  /// Frame bytes the chief would send and receive (one params frame per
  /// rank, every rollout frame), summed over iterations.
  double frame_bytes = 0.0;
  std::vector<float> final_policy;
  agents::RolloutBuffer last_buffer;
  std::vector<agents::CuriositySample> last_samples;
};

bool DecodeFrame(const std::string& bytes, dist::Frame* frame) {
  dist::FrameReader reader;
  if (!reader.Feed(bytes.data(), bytes.size()).ok() || !reader.HasFrame()) {
    return false;
  }
  *frame = reader.PopFrame();
  return true;
}

Replay RunReplay(const agents::TrainerConfig& norm, const env::Map& map,
                 int iterations) {
  Replay out;
  dist::LearnerCore learner(norm);
  std::vector<std::unique_ptr<dist::EmployeeCore>> cores;
  for (int rank = 0; rank < norm.num_employees; ++rank) {
    cores.push_back(std::make_unique<dist::EmployeeCore>(norm, map, rank));
  }
  const uint64_t start = NowNs();
  for (int it = 0; it < iterations; ++it) {
    const uint64_t iter_start = NowNs();
    ScopedSpan op("iteration");
    dist::ParamUpdate update;
    {
      ScopedSpan span("dist.params");
      update = learner.CurrentParams(static_cast<uint64_t>(it));
    }
    std::string params_frame;
    {
      ScopedSpan span("dist.codec");
      params_frame = dist::EncodeFrame(dist::FrameType::kParams,
                                       dist::PackParams(update));
    }
    std::vector<std::string> rollout_frames(cores.size());
    for (size_t rank = 0; rank < cores.size(); ++rank) {
      const int lane = static_cast<int>(rank);
      dist::ParamUpdate received;
      {
        ScopedSpan span("dist.codec", lane);
        dist::Frame frame;
        Result<dist::ParamUpdate> unpacked =
            DecodeFrame(params_frame, &frame)
                ? dist::UnpackParams(frame.payload)
                : Result<dist::ParamUpdate>(Status::IOError("bad frame"));
        if (!unpacked.ok()) {
          out.ok = false;
          return out;
        }
        received = std::move(*unpacked);
      }
      {
        ScopedSpan span("dist.params", lane);
        cores[rank]->SetParams(received);
      }
      dist::RolloutPayload payload;
      {
        ScopedSpan span("dist.rollout", lane);
        payload = cores[rank]->RunIteration(static_cast<uint64_t>(it));
      }
      out.steps += payload.stats.env_steps;
      {
        ScopedSpan span("dist.codec", lane);
        rollout_frames[rank] = dist::EncodeFrame(dist::FrameType::kRollout,
                                                 dist::PackRollout(payload));
      }
    }
    out.frame_bytes += static_cast<double>(params_frame.size() * cores.size());
    for (const std::string& bytes : rollout_frames) {
      out.frame_bytes += static_cast<double>(bytes.size());
    }
    std::vector<dist::RolloutPayload> payloads;
    {
      ScopedSpan span("dist.codec");
      for (const std::string& bytes : rollout_frames) {
        dist::Frame frame;
        Result<dist::RolloutPayload> unpacked =
            DecodeFrame(bytes, &frame)
                ? dist::UnpackRollout(frame.payload)
                : Result<dist::RolloutPayload>(Status::IOError("bad frame"));
        if (!unpacked.ok()) {
          out.ok = false;
          return out;
        }
        payloads.push_back(std::move(*unpacked));
      }
    }
    dist::MergedRollout merged;
    {
      ScopedSpan span("dist.merge");
      merged = dist::MergeRollouts(std::move(payloads));
    }
    agents::LossStats loss;
    {
      ScopedSpan span("dist.learn");
      loss = learner.Learn(merged.buffer, merged.samples);
    }
    if (!std::isfinite(loss.total)) out.ok = false;
    out.iter_ms.push_back(static_cast<double>(NowNs() - iter_start) * 1e-6);
    if (it + 1 == iterations) {
      out.last_buffer = std::move(merged.buffer);
      out.last_samples = std::move(merged.samples);
    }
  }
  out.seconds = SecondsSince(start);
  out.final_policy =
      learner.CurrentParams(static_cast<uint64_t>(iterations)).policy;
  return out;
}

/// The calls inside EmployeeCore::RunIteration, made by the benchmark on
/// the same shapes: EncodeBatch, SamplePolicyBatch, VecEnv::Step.
void ProbeAct(const agents::TrainerConfig& norm, const env::Map& map,
              const std::vector<float>& policy, int episodes) {
  Rng init(norm.seed);
  agents::PolicyNet net(norm.net, init);
  nn::LoadFlatValues(net.Parameters(), policy);
  env::VecEnv vec(norm.env, map, norm.envs_per_employee);
  const env::StateEncoder encoder(norm.encoder);
  Rng rng(norm.seed * 31 + 5);
  const int n = vec.size();
  ScopedSpan probe("probe.act");
  std::vector<std::vector<env::WorkerAction>> actions(static_cast<size_t>(n));
  for (int e = 0; e < episodes; ++e) {
    vec.Reset();
    std::vector<float> states;
    {
      ScopedSpan span("env.encode");
      states = encoder.EncodeBatch(vec.EnvPtrs());
    }
    while (!vec.AllDone()) {
      std::vector<agents::ActResult> acts;
      {
        ScopedSpan span("nn.act_forward");
        acts = agents::SamplePolicyBatch(net, states, n, rng);
      }
      for (int i = 0; i < n; ++i) {
        actions[static_cast<size_t>(i)] =
            std::move(acts[static_cast<size_t>(i)].actions);
      }
      {
        ScopedSpan span("env.step");
        vec.Step(actions);
      }
      {
        ScopedSpan span("env.encode");
        states = encoder.EncodeBatch(vec.EnvPtrs());
      }
    }
  }
}

/// The minibatch updates inside LearnerCore::Learn, made by the benchmark
/// on the replay's last merged rollout. Returns false on a non-finite loss.
bool ProbeLearn(const agents::TrainerConfig& norm,
                const std::vector<float>& policy,
                const agents::RolloutBuffer& buffer,
                const std::vector<agents::CuriositySample>& samples,
                int updates) {
  agents::PpoAgent agent(norm.net, norm.ppo, norm.seed);
  nn::LoadFlatValues(agent.Parameters(), policy);
  agents::SpatialCuriosity curiosity(norm.curiosity, norm.seed + 17);
  nn::Adam curiosity_optimizer(curiosity.Parameters(), norm.curiosity.lr);
  const std::vector<nn::Tensor> pparams = agent.Parameters();
  const std::vector<nn::Tensor> cparams = curiosity.Parameters();
  const size_t batch = static_cast<size_t>(norm.batch_size);
  Rng rng(norm.seed * 13 + 1);
  bool finite = true;
  ScopedSpan probe("probe.learn");
  for (int k = 0; k < updates; ++k) {
    agents::MiniBatch mb;
    {
      ScopedSpan span("agents.sample_batch");
      mb = buffer.SampleBatch(batch, rng);
    }
    if (!samples.empty()) {
      ScopedSpan span("nn.curiosity_update");
      nn::ZeroGradients(cparams);
      nn::Tensor closs = curiosity.SampleLoss(samples, batch, rng);
      closs.Backward();
      curiosity_optimizer.Step();
      finite = finite && std::isfinite(closs.data()[0]);
    }
    {
      ScopedSpan span("nn.ppo_update");
      nn::ZeroGradients(pparams);
      agents::LossStats stats;
      nn::Tensor loss = agent.ComputeLoss(std::move(mb), &stats);
      loss.Backward();
      nn::ClipGradByGlobalNorm(pparams, norm.ppo.max_grad_norm);
      agent.optimizer().Step();
      finite = finite && std::isfinite(stats.total);
    }
  }
  return finite;
}

double ReplayOpsPerS(const Replay& r) {
  return r.seconds > 0.0 ? static_cast<double>(r.steps) / r.seconds : 0.0;
}

void TracedRun(const TrainSpec& spec, const Options& options,
               double e2e_p50_ms, double e2e_ops, double bytes_per_iter,
               Report* report) {
  Result<env::Map> map = MakeMap(spec, spec.config.seed);
  if (!map.ok()) {
    report->FailCheck("map: " + map.status().ToString());
    return;
  }
  const agents::TrainerConfig norm = dist::NormalizeConfig(spec.config, *map);
  const int ranks = norm.num_employees;
  const int iterations = spec.replay_iterations;

  const Replay untraced = RunReplay(norm, *map, iterations);
  SetTracing(true);
  const Replay traced = RunReplay(norm, *map, iterations);
  ProbeAct(norm, *map, traced.final_policy, spec.act_episodes);
  const bool learn_finite =
      ProbeLearn(norm, traced.final_policy, traced.last_buffer,
                 traced.last_samples, spec.learn_rounds * norm.update_epochs);
  SetTracing(false);
  if (!untraced.ok || !traced.ok || !learn_finite) {
    report->FailCheck("replay: a frame failed to decode or a loss is not finite");
  }
  if (Digest(untraced.final_policy) != Digest(traced.final_policy)) {
    report->FailCheck("replay: traced and untraced replays diverged");
  }

  const std::vector<Span> spans = TakeSpans();
  const std::string path = options.out_dir + "/spans-" + spec.name + "-seed" +
                           std::to_string(options.seed) + ".json";
  const bool written = WriteSpans(path, spans);
  std::map<std::string, SpanStats> stats = AggregateSpans(spans);

  const double ops = iterations;
  auto crit_self_per_op = [&](const std::string& name) {
    const SpanStats& s = stats[name];
    return (s.self_ms_chief + s.self_ms_ranks / ranks) / ops;
  };
  auto per_call_ms = [&](const std::string& name) {
    return Median(stats[name].durations_ms);
  };

  // Replay spans tile the iteration's critical path: chief work plus one
  // rank's share of the work ranks do in parallel in the real run.
  std::vector<LayerRow> rows;
  double attributed = 0.0;
  const char* replay_spans[] = {"dist.params", "dist.codec", "dist.rollout",
                                "dist.merge", "dist.learn"};
  for (const char* name : replay_spans) {
    LayerRow row;
    row.name = std::string(name) + "_ms";
    row.calls_per_op = static_cast<double>(stats[name].calls) / ops;
    row.per_call = per_call_ms(name);
    row.unit = "ms";
    row.self_ms_per_op = crit_self_per_op(name);
    row.share = row.self_ms_per_op / e2e_p50_ms;
    attributed += row.self_ms_per_op;
    rows.push_back(row);
  }
  const double unattributed = e2e_p50_ms - attributed;
  report->SetLayer("dist.rollout_ms", per_call_ms("dist.rollout"));
  report->SetLayer("dist.learn_ms", per_call_ms("dist.learn"));
  report->SetLayer("dist.merge_ms", per_call_ms("dist.merge"));
  report->SetLayer("dist.params_ms", crit_self_per_op("dist.params"));
  report->SetLayer("dist.codec_ms", crit_self_per_op("dist.codec"));
  // The forked run meters its sockets; the in-process trainer has no wire,
  // so train_paper reports the frames the replay encodes for it.
  report->SetLayer("dist.bytes_per_iter",
                   spec.forked ? bytes_per_iter
                               : traced.frame_bytes / iterations);
  report->SetLayer("unattributed_ms", unattributed);
  rows[0].note = "CurrentParams + SetParams; metric = self ms per op";
  rows[1].note = "Pack/Unpack + EncodeFrame + CRC decode; metric = self ms/op";
  rows.push_back(LayerRow{"unattributed_ms", 1.0, unattributed, "ms",
                          unattributed, unattributed / e2e_p50_ms,
                          spec.forked ? "socket waits, fork-side overhead"
                                      : "barrier waits, gradient buffers, "
                                        "chief step"});

  // Probes: calls inside RunIteration and Learn, on the same shapes.
  const int act_batch = norm.envs_per_employee;
  const NnCost act_cost = PolicyForwardCost(norm.net, act_batch, false);
  const NnCost ppo_cost = PolicyUpdateCost(norm.net, norm.batch_size);
  const int curiosity_batch = static_cast<int>(
      std::min<size_t>(traced.last_samples.size(), norm.batch_size));
  const NnCost curiosity_cost =
      CuriosityUpdateCost(norm.curiosity, curiosity_batch);
  struct Probe {
    const char* span;
    const char* metric;
    double calls_per_op;  // On one rank's critical path.
    double scale;         // ms -> metric unit.
    const char* unit;
    std::string note;
  };
  const double horizon = norm.env.horizon;
  const std::vector<Probe> probes = {
      {"env.step", "env.step_us", horizon, 1e3, "us",
       Format("VecEnv::Step of %d envs", act_batch)},
      {"env.encode", "env.encode_us", horizon + 1.0, 1e3, "us",
       Format("EncodeBatch of %d envs", act_batch)},
      {"nn.act_forward", "nn.act_forward_us", horizon, 1e3, "us",
       CostNote(act_cost, per_call_ms("nn.act_forward")) +
           Format(" (batch %d)", act_batch)},
      {"nn.ppo_update", "nn.ppo_update_ms",
       static_cast<double>(norm.update_epochs), 1.0, "ms",
       CostNote(ppo_cost, per_call_ms("nn.ppo_update")) +
           Format(" (batch %d)", norm.batch_size)},
      {"nn.curiosity_update", "nn.curiosity_update_ms",
       static_cast<double>(norm.update_epochs), 1.0, "ms",
       CostNote(curiosity_cost, per_call_ms("nn.curiosity_update")) +
           Format(" (batch %d)", curiosity_batch)},
  };
  std::vector<LayerRow> probe_rows;
  for (const Probe& p : probes) {
    LayerRow row;
    row.name = p.metric;
    row.calls_per_op = p.calls_per_op;
    row.per_call = per_call_ms(p.span) * p.scale;
    row.unit = p.unit;
    row.self_ms_per_op = per_call_ms(p.span) * p.calls_per_op;
    row.share = row.self_ms_per_op / e2e_p50_ms;
    row.note = p.note;
    probe_rows.push_back(row);
    report->SetLayer(p.metric, row.per_call);
  }

  std::printf("traced replay: %d iterations through the dist cores, %d ranks "
              "(e2e p50_ms %.3f from the untraced run)\n",
              iterations, ranks, e2e_p50_ms);
  PrintLayerTable("per-layer (critical path of one iteration):", rows);
  PrintLayerTable(
      "probes inside dist.rollout / dist.learn (calls on one rank's critical "
      "path, est. share):",
      probe_rows);
  const double untraced_p50 = Median(untraced.iter_ms);
  const double traced_p50 = Median(traced.iter_ms);
  std::printf(
      "tracing overhead (traced - untraced replay): p50_ms %+.4f (%.4f vs "
      "%.4f), ops_per_s %+.2f (%.2f vs %.2f)\n",
      traced_p50 - untraced_p50, traced_p50, untraced_p50,
      ReplayOpsPerS(traced) - ReplayOpsPerS(untraced), ReplayOpsPerS(traced),
      ReplayOpsPerS(untraced));
  std::printf("replay vs real run: replay p50_ms %.4f, ops_per_s %.2f; real "
              "p50_ms %.4f, ops_per_s %.2f\n",
              untraced_p50, ReplayOpsPerS(untraced), e2e_p50_ms, e2e_ops);
  std::printf("dist.bytes_per_iter %.0f (%s)\n",
              spec.forked ? bytes_per_iter : traced.frame_bytes / iterations,
              spec.forked ? "socket meters of the real run"
                          : "frames the replay encodes");
  std::printf("spans: %zu recorded, first %zu %s %s\n", spans.size(),
              std::min(spans.size(), kMaxWrittenSpans),
              written ? "written to" : "FAILED to write", path.c_str());
  if (!written) report->FailCheck("could not write spans to " + path);
}

void RunTraining(const TrainSpec& spec, const Options& options,
                 Report* report) {
  const agents::TrainerConfig& c = spec.config;
  std::printf("config: %d employees, %d envs/employee, horizon %d, grid %d, "
              "conv %d/%d/%d, fc %d, batch %d, K=%d, %d iterations/round, "
              "earthquake-site %d PoIs\n",
              c.num_employees, c.envs_per_employee, c.env.horizon,
              c.encoder.grid, c.net.conv1_channels, c.net.conv2_channels,
              c.net.conv3_channels, c.net.feature_dim, c.batch_size,
              c.update_epochs, c.episodes, spec.pois);
  auto run_round = [&](const TrainSpec& s) {
    return s.forked ? DistRound(s, options, report) : PaperRound(s, report);
  };

  // Warm-up: one single-iteration round, outside every metric.
  TrainSpec warm = spec;
  warm.config.episodes = 1;
  {
    const uint64_t t = NowNs();
    if (!run_round(warm).ok) return;
    std::printf("warm-up round (1 iteration): %.3f s\n", SecondsSince(t));
  }

  std::vector<Round> rounds;
  const uint64_t start = NowNs();
  double last_round_s = 0.0;
  while (rounds.size() < 2 ||
         SecondsSince(start) + last_round_s <= options.seconds) {
    const uint64_t t = NowNs();
    Round round = run_round(spec);
    last_round_s = SecondsSince(t);
    if (!round.ok) return;
    rounds.push_back(std::move(round));
  }
  const double window_s = SecondsSince(start);

  std::vector<double> setups, throughputs, iter_ms;
  int64_t steps = 0;
  double bytes_per_iter = 0.0;
  for (const Round& r : rounds) {
    setups.push_back(r.setup_s);
    throughputs.push_back(static_cast<double>(r.steps) / r.iter_seconds);
    iter_ms.insert(iter_ms.end(), r.iter_ms.begin(), r.iter_ms.end());
    steps += r.steps;
    bytes_per_iter += r.bytes_per_iter / static_cast<double>(rounds.size());
  }
  std::printf("steps/s per round:");
  for (const double t : throughputs) std::printf(" %.0f", t);
  std::printf("\n");
  report->SetE2e("setup_s", Median(setups));
  report->SetE2e("ops_per_s", Median(throughputs));
  report->SetE2e("p50_ms", Quantile(iter_ms, 0.5));
  report->SetE2e("p90_ms", Quantile(iter_ms, 0.9));
  std::printf("timed: %zu rounds x %d iterations in %.2f s, %lld env steps "
              "(%.1f steps/s over the whole window)\n",
              rounds.size(), c.episodes, window_s,
              static_cast<long long>(steps),
              static_cast<double>(steps) / window_s);
  std::printf("iteration ms: p50 %.3f p90 %.3f p99 %.3f max %.3f (n=%zu; "
              "samples beyond p90: %zu)\n",
              Quantile(iter_ms, 0.5), Quantile(iter_ms, 0.9),
              Quantile(iter_ms, 0.99), Quantile(iter_ms, 1.0), iter_ms.size(),
              iter_ms.size() / 10);
  if (spec.forked) {
    std::printf("wire: %.0f bytes per iteration (tx + rx, all employees)\n",
                bytes_per_iter);
  }

  // Determinism: every round must reach the reference digest.
  std::vector<float> reference = rounds.front().params;
  const char* reference_name = "round 1";
  if (spec.forked) {
    Result<env::Map> map = MakeMap(spec, c.seed);
    dist::DistTrainerConfig dcfg;
    dcfg.trainer = c;
    Result<dist::DistTrainResult> ref =
        map.ok() ? dist::TrainDistReference(dcfg, *map)
                 : Result<dist::DistTrainResult>(map.status());
    if (!ref.ok()) {
      report->FailCheck("TrainDistReference: " + ref.status().ToString());
      return;
    }
    reference = Concat(ref->final_policy, ref->final_intrinsic);
    reference_name = "dist::TrainDistReference";
  }
  if (options.perturb_reference && !reference.empty()) {
    reference[0] = std::nextafter(reference[0], 1e30f);
  }
  const uint64_t want = Digest(reference);
  for (size_t i = 0; i < rounds.size(); ++i) {
    const uint64_t got = Digest(rounds[i].params);
    if (got != want) {
      report->Fail(Format("round %zu digest %016llx != %s digest %016llx",
                          i + 1, static_cast<unsigned long long>(got),
                          reference_name,
                          static_cast<unsigned long long>(want)));
    }
  }
  std::printf("final-parameter digest %016llx (%zu floats), reference (%s) "
              "%016llx\n",
              static_cast<unsigned long long>(Digest(rounds.front().params)),
              rounds.front().params.size(), reference_name,
              static_cast<unsigned long long>(want));

  if (options.trace) {
    TracedRun(spec, options, Quantile(iter_ms, 0.5), Median(throughputs),
              bytes_per_iter, report);
  }
}

}  // namespace

void RunTrainPaper(const Options& options, Report* report) {
  RunTraining(PaperSpec(options), options, report);
}

void RunTrainDist(const Options& options, Report* report) {
  RunTraining(DistSpec(options), options, report);
}

}  // namespace perfbench
