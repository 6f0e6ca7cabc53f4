#include "dist/trainer.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <utility>

#include "agents/trainer_core.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "dist/deploy_loop.h"
#include "nn/params.h"
#include "nn/serialize.h"
#include "obs/metrics.h"

namespace cews::dist {

namespace {

/// The chief's learner rng, disjoint from the intrinsic-module (+17/+29 on
/// the same multiplier) and per-rank derivations in agents/employee.cc.
uint64_t LearnerSeed(uint64_t seed) { return seed * 0x9E3779B9ULL + 101; }

agents::EpisodeRecord MakeRecord(const agents::TrainerConfig& config, int it,
                                 const RolloutStats& totals, double wall) {
  agents::EpisodeRecord rec;
  rec.episode = it;
  const double inv_e = 1.0 / config.num_employees;
  rec.kappa = totals.kappa * inv_e;
  rec.xi = totals.xi * inv_e;
  rec.rho = totals.rho * inv_e;
  // Same scale as the in-process trainer: mean per step per instance.
  const double denom = static_cast<double>(config.env.horizon) *
                       config.envs_per_employee * config.num_employees;
  rec.extrinsic_reward = totals.extrinsic_sum / denom;
  rec.intrinsic_reward = totals.intrinsic_sum / denom;
  rec.wall_seconds = wall;
  if (wall > 0.0) {
    rec.steps_per_sec = static_cast<double>(totals.env_steps) / wall;
  }
  return rec;
}

}  // namespace

// ---------------------------------------------------------------------------
// EmployeeCore
// ---------------------------------------------------------------------------

EmployeeCore::EmployeeCore(const agents::TrainerConfig& config,
                           const env::Map& map, int rank)
    : employee_(config, map, rank) {}

void EmployeeCore::SetParams(const ParamUpdate& update) {
  agents::ModelSet& models = employee_.models();
  nn::LoadFlatValues(models.agent.Parameters(), update.policy);
  nn::LoadFlatValues(models.IntrinsicParameters(), update.intrinsic);
}

RolloutPayload EmployeeCore::RunIteration(uint64_t iteration) {
  agents::EmployeeRollout rollout = employee_.Rollout();
  RolloutPayload payload;
  payload.rank = static_cast<uint32_t>(employee_.rank());
  payload.iteration = iteration;
  payload.buffers = std::move(rollout.buffers);
  payload.samples = std::move(rollout.samples);
  payload.stats = rollout.stats;
  return payload;
}

// ---------------------------------------------------------------------------
// LearnerCore
// ---------------------------------------------------------------------------

LearnerCore::LearnerCore(const agents::TrainerConfig& config)
    : config_(config),
      models_(config, config.seed),
      intrinsic_optimizer_(agents::MakeIntrinsicOptimizer(config, models_)),
      rng_(LearnerSeed(config.seed)) {}

ParamUpdate LearnerCore::CurrentParams(uint64_t iteration) const {
  ParamUpdate update;
  update.iteration = iteration;
  update.policy = nn::FlattenValues(models_.agent.Parameters());
  update.intrinsic = nn::FlattenValues(models_.IntrinsicParameters());
  return update;
}

Status LearnerCore::LoadPolicy(const std::string& path) {
  return nn::LoadParameters(path, models_.agent.Parameters());
}

agents::LossStats LearnerCore::Learn(
    const agents::RolloutBuffer& buffer,
    const std::vector<agents::CuriositySample>& samples) {
  agents::LossStats stats;
  static obs::Gauge* const loss_gauge = obs::GetGauge("train.loss");
  for (int k = 0; k < config_.update_epochs; ++k) {
    // Single-learner semantics: one gradient per minibatch, clipped at
    // max_grad_norm (the in-process trainer's N-scaled bound applies to a
    // SUM of N employee gradients, which does not exist here).
    if (agents::MinibatchGradient(config_, models_, buffer, samples, rng_,
                                  &stats)) {
      intrinsic_optimizer_->Step();
    }
    models_.agent.optimizer().Step();
  }
  loss_gauge->Set(stats.total);
  return stats;
}

// ---------------------------------------------------------------------------
// Merge + reference run
// ---------------------------------------------------------------------------

MergedRollout MergeRollouts(std::vector<RolloutPayload> payloads) {
  CEWS_CHECK(!payloads.empty()) << "MergeRollouts with no payloads";
  MergedRollout merged;
  merged.totals.xi = 0.0;
  std::vector<agents::RolloutBuffer> buffers;
  for (size_t rank = 0; rank < payloads.size(); ++rank) {
    RolloutPayload& p = payloads[rank];
    CEWS_CHECK_EQ(static_cast<size_t>(p.rank), rank)
        << "MergeRollouts: payloads must arrive in canonical rank order";
    for (agents::RolloutBuffer& b : p.buffers) {
      buffers.push_back(std::move(b));
    }
    merged.samples.insert(merged.samples.end(), p.samples.begin(),
                          p.samples.end());
    merged.totals.extrinsic_sum += p.stats.extrinsic_sum;
    merged.totals.intrinsic_sum += p.stats.intrinsic_sum;
    merged.totals.kappa += p.stats.kappa;
    merged.totals.xi += p.stats.xi;
    merged.totals.rho += p.stats.rho;
    merged.totals.env_steps += p.stats.env_steps;
  }
  merged.buffer = agents::MergeBuffers(std::move(buffers));
  return merged;
}

Result<DistTrainResult> TrainDistReference(const DistTrainerConfig& config,
                                           const env::Map& map) {
  DistTrainerConfig cfg = config;
  cfg.trainer = NormalizeConfig(config.trainer, map);
  if (cfg.trainer.num_employees <= 0 || cfg.trainer.episodes <= 0) {
    return Status::InvalidArgument(
        "TrainDistReference needs num_employees > 0 and episodes > 0");
  }
  runtime::SetGlobalPoolThreads(
      runtime::ResolveNumThreads(cfg.trainer.runtime_threads));

  Stopwatch watch;
  LearnerCore learner(cfg.trainer);
  if (!cfg.init_checkpoint.empty()) {
    CEWS_RETURN_IF_ERROR(learner.LoadPolicy(cfg.init_checkpoint));
  }
  std::vector<std::unique_ptr<EmployeeCore>> cores;
  cores.reserve(static_cast<size_t>(cfg.trainer.num_employees));
  for (int rank = 0; rank < cfg.trainer.num_employees; ++rank) {
    cores.push_back(std::make_unique<EmployeeCore>(cfg.trainer, map, rank));
  }

  DistTrainResult result;
  result.history.reserve(static_cast<size_t>(cfg.trainer.episodes));
  for (int it = 0; it < cfg.trainer.episodes; ++it) {
    Stopwatch iter_watch;
    const ParamUpdate update =
        learner.CurrentParams(static_cast<uint64_t>(it));
    std::vector<RolloutPayload> payloads;
    payloads.reserve(cores.size());
    for (std::unique_ptr<EmployeeCore>& core : cores) {
      core->SetParams(update);
      payloads.push_back(core->RunIteration(static_cast<uint64_t>(it)));
    }
    MergedRollout merged = MergeRollouts(std::move(payloads));
    learner.Learn(merged.buffer, merged.samples);
    result.history.push_back(MakeRecord(cfg.trainer, it, merged.totals,
                                        iter_watch.ElapsedSeconds()));
  }
  ParamUpdate final_params =
      learner.CurrentParams(static_cast<uint64_t>(cfg.trainer.episodes));
  result.final_policy = std::move(final_params.policy);
  result.final_intrinsic = std::move(final_params.intrinsic);
  result.seconds = watch.ElapsedSeconds();
  return result;
}

// ---------------------------------------------------------------------------
// ChiefServer
// ---------------------------------------------------------------------------

ChiefServer::ChiefServer(const DistTrainerConfig& config, env::Map map)
    : config_(config), map_(std::move(map)) {
  config_.trainer = NormalizeConfig(config.trainer, map_);
}

Status ChiefServer::Bind() {
  CEWS_ASSIGN_OR_RETURN(listener_, Listener::Bind(config_.address));
  bound_address_ = listener_.address();
  return Status::OK();
}

Status ChiefServer::Run(DistTrainResult* result, DeployLoop* deploy) {
  CEWS_CHECK(result != nullptr);
  const int n = config_.trainer.num_employees;
  if (n <= 0 || config_.trainer.episodes <= 0) {
    return Status::InvalidArgument(
        "chief needs num_employees > 0 and episodes > 0");
  }
  if (bound_address_.empty()) CEWS_RETURN_IF_ERROR(Bind());
  runtime::SetGlobalPoolThreads(
      runtime::ResolveNumThreads(config_.trainer.runtime_threads));

  static obs::Counter* const iterations = obs::GetCounter("dist.iterations");
  static obs::Counter* const merged_transitions =
      obs::GetCounter("dist.merged_transitions");
  static obs::Counter* const employees_counter =
      obs::GetCounter("dist.employees_connected");
  static obs::Histogram* const merge_ns = obs::GetHistogram("dist.merge_ns");

  Stopwatch total_watch;
  const uint64_t hash = ConfigHash(config_.trainer, map_);

  // Handshake: accept every employee, verify its (config, map) hash, and
  // slot it by rank. Duplicate or out-of-range ranks are configuration
  // errors, not recoverable conditions.
  std::vector<Channel> channels(static_cast<size_t>(n));
  std::vector<bool> connected(static_cast<size_t>(n), false);
  for (int i = 0; i < n; ++i) {
    CEWS_ASSIGN_OR_RETURN(Channel ch,
                          listener_.Accept(config_.handshake_timeout_ms));
    CEWS_ASSIGN_OR_RETURN(
        Frame frame,
        ExpectFrame(ch, FrameType::kHello, config_.handshake_timeout_ms));
    CEWS_ASSIGN_OR_RETURN(const Hello hello, UnpackHello(frame.payload));
    if (hello.config_hash != hash) {
      return Status::FailedPrecondition(
          "employee rank " + std::to_string(hello.rank) +
          " trains a different problem (config/map hash mismatch)");
    }
    if (hello.rank >= static_cast<uint32_t>(n) ||
        connected[hello.rank]) {
      return Status::InvalidArgument(
          "bad or duplicate employee rank " + std::to_string(hello.rank) +
          " (world size " + std::to_string(n) + ")");
    }
    Hello welcome;
    welcome.rank = hello.rank;
    welcome.config_hash = hash;
    CEWS_RETURN_IF_ERROR(ch.Send(FrameType::kWelcome, PackHello(welcome)));
    channels[hello.rank] = std::move(ch);
    connected[hello.rank] = true;
    employees_counter->Increment();
  }

  LearnerCore learner(config_.trainer);
  if (!config_.init_checkpoint.empty()) {
    CEWS_RETURN_IF_ERROR(learner.LoadPolicy(config_.init_checkpoint));
  }
  result->history.reserve(static_cast<size_t>(config_.trainer.episodes));
  for (int it = 0; it < config_.trainer.episodes; ++it) {
    Stopwatch iter_watch;
    // Broadcast the same packed parameter frame to every rank.
    const std::string params =
        PackParams(learner.CurrentParams(static_cast<uint64_t>(it)));
    for (int rank = 0; rank < n; ++rank) {
      CEWS_RETURN_IF_ERROR(
          channels[static_cast<size_t>(rank)].Send(FrameType::kParams,
                                                   params));
    }
    // Collect in canonical rank order. Rank r+1's payload simply waits in
    // its socket buffer (the kernel blocks the employee's send if needed)
    // while rank r's is read — employees still compute concurrently; only
    // the chief's reads are serialized, which is what makes the merge
    // deterministic.
    std::vector<RolloutPayload> payloads;
    payloads.reserve(static_cast<size_t>(n));
    for (int rank = 0; rank < n; ++rank) {
      CEWS_ASSIGN_OR_RETURN(
          Frame frame,
          ExpectFrame(channels[static_cast<size_t>(rank)],
                      FrameType::kRollout, config_.liveness_timeout_ms));
      CEWS_ASSIGN_OR_RETURN(RolloutPayload payload,
                            UnpackRollout(frame.payload));
      if (payload.rank != static_cast<uint32_t>(rank) ||
          payload.iteration != static_cast<uint64_t>(it)) {
        return Status::IOError(
            "protocol error: rollout from rank " +
            std::to_string(payload.rank) + " iteration " +
            std::to_string(payload.iteration) + ", expected rank " +
            std::to_string(rank) + " iteration " + std::to_string(it));
      }
      CEWS_RETURN_IF_ERROR(ValidateRollout(payload, config_.trainer));
      payloads.push_back(std::move(payload));
    }
    MergedRollout merged;
    {
      obs::ScopedTimerNs merge_timer(merge_ns);
      merged = MergeRollouts(std::move(payloads));
    }
    merged_transitions->Add(merged.buffer.size());
    learner.Learn(merged.buffer, merged.samples);
    iterations->Increment();
    result->history.push_back(
        MakeRecord(config_.trainer, it, merged.totals,
                   iter_watch.ElapsedSeconds()));
    if (deploy != nullptr) {
      CEWS_RETURN_IF_ERROR(deploy->MaybePublish(it, learner.net()));
    }
  }
  for (int rank = 0; rank < n; ++rank) {
    CEWS_RETURN_IF_ERROR(
        channels[static_cast<size_t>(rank)].Send(FrameType::kShutdown, {}));
  }
  ParamUpdate final_params = learner.CurrentParams(
      static_cast<uint64_t>(config_.trainer.episodes));
  result->final_policy = std::move(final_params.policy);
  result->final_intrinsic = std::move(final_params.intrinsic);
  for (const Channel& ch : channels) {
    result->bytes_tx += ch.bytes_sent();
    result->bytes_rx += ch.bytes_received();
  }
  result->seconds = total_watch.ElapsedSeconds();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// EmployeeClient
// ---------------------------------------------------------------------------

EmployeeClient::EmployeeClient(const DistTrainerConfig& config, env::Map map,
                               int rank)
    : config_(config), map_(std::move(map)), rank_(rank) {
  config_.trainer = NormalizeConfig(config.trainer, map_);
}

Status EmployeeClient::Run() {
  if (rank_ < 0 || rank_ >= config_.trainer.num_employees) {
    return Status::InvalidArgument("employee rank " + std::to_string(rank_) +
                                   " out of range for world size " +
                                   std::to_string(
                                       config_.trainer.num_employees));
  }
  runtime::SetGlobalPoolThreads(
      runtime::ResolveNumThreads(config_.trainer.runtime_threads));
  DialOptions dial;
  dial.timeout_ms = config_.dial_timeout_ms;
  CEWS_ASSIGN_OR_RETURN(Channel channel,
                        Channel::Dial(config_.address, dial));
  const uint64_t hash = ConfigHash(config_.trainer, map_);
  Hello hello;
  hello.rank = static_cast<uint32_t>(rank_);
  hello.config_hash = hash;
  CEWS_RETURN_IF_ERROR(channel.Send(FrameType::kHello, PackHello(hello)));
  CEWS_ASSIGN_OR_RETURN(
      Frame welcome_frame,
      ExpectFrame(channel, FrameType::kWelcome,
                  config_.handshake_timeout_ms));
  CEWS_ASSIGN_OR_RETURN(const Hello welcome,
                        UnpackHello(welcome_frame.payload));
  if (welcome.config_hash != hash) {
    return Status::FailedPrecondition(
        "chief echoed a different config/map hash");
  }

  EmployeeCore core(config_.trainer, map_, rank_);
  while (true) {
    CEWS_ASSIGN_OR_RETURN(
        Frame frame,
        RecvSkippingHeartbeats(channel, config_.liveness_timeout_ms));
    if (frame.type == FrameType::kShutdown) return Status::OK();
    if (frame.type != FrameType::kParams) {
      return Status::IOError(std::string("protocol error: expected params "
                                         "or shutdown, got ") +
                             FrameTypeName(frame.type));
    }
    CEWS_ASSIGN_OR_RETURN(const ParamUpdate update,
                          UnpackParams(frame.payload));
    core.SetParams(update);
    // Liveness marker before the long silent stretch of rollout compute —
    // resets the chief's silence clock at iteration start.
    CEWS_RETURN_IF_ERROR(channel.SendHeartbeat());
    const RolloutPayload payload = core.RunIteration(update.iteration);
    CEWS_RETURN_IF_ERROR(
        channel.Send(FrameType::kRollout, PackRollout(payload)));
  }
}

// ---------------------------------------------------------------------------
// Fork helpers
// ---------------------------------------------------------------------------

Result<std::vector<pid_t>> SpawnEmployees(const DistTrainerConfig& config,
                                          const env::Map& map) {
  std::vector<pid_t> pids;
  pids.reserve(static_cast<size_t>(config.trainer.num_employees));
  for (int rank = 0; rank < config.trainer.num_employees; ++rank) {
    const pid_t pid = fork();
    if (pid < 0) {
      // Undo partial spawns so the caller is not left with orphans.
      for (const pid_t p : pids) kill(p, SIGKILL);
      for (const pid_t p : pids) {
        int ignored;
        while (waitpid(p, &ignored, 0) < 0 && errno == EINTR) {}
      }
      return Status::IOError("fork failed for employee rank " +
                             std::to_string(rank));
    }
    if (pid == 0) {
      // Child: run the employee and leave without unwinding the parent's
      // stack or running its atexit handlers (_exit, not exit/return).
      EmployeeClient client(config, map, rank);
      const Status status = client.Run();
      if (!status.ok()) {
        std::fprintf(stderr, "employee rank %d failed: %s\n", rank,
                     status.ToString().c_str());
        _exit(1);
      }
      _exit(0);
    }
    pids.push_back(pid);
  }
  return pids;
}

Status ReapEmployees(const std::vector<pid_t>& pids) {
  Status first_error = Status::OK();
  for (size_t rank = 0; rank < pids.size(); ++rank) {
    int wstatus = 0;
    while (waitpid(pids[rank], &wstatus, 0) < 0) {
      if (errno != EINTR) {
        if (first_error.ok()) {
          first_error = Status::IOError("waitpid failed for employee rank " +
                                        std::to_string(rank));
        }
        break;
      }
    }
    if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
      if (first_error.ok()) {
        first_error = Status::Internal(
            "employee rank " + std::to_string(rank) +
            (WIFEXITED(wstatus)
                 ? " exited with code " + std::to_string(WEXITSTATUS(wstatus))
                 : " terminated abnormally"));
      }
    }
  }
  return first_error;
}

}  // namespace cews::dist
