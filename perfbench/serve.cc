// The two serving workloads. Both keep more requests in flight than a
// batch holds, so the shard workers never idle waiting for hypervisor
// wake-ups (an arrival-schedule workload did not repeat on a small shared
// guest; see README.md).
//
//   serve_control  closed loop against one fp32 shard (one worker,
//                  max_batch 16, 200 us flush delay) with the paper net on
//                  earthquake-site: 3 client threads x 8 controller loops.
//                  Each loop encodes its state (or, for half of the loops,
//                  lets the server encode its Env), submits with its
//                  move-validity mask, waits, and steps its Env with the
//                  served actions.
//   serve_fleet    two int8 shards serving earthquake-site and
//                  dense-rubble: one dispatcher keeps a fixed window in
//                  flight, drawing pre-encoded states and masks from a
//                  seeded pool and client ids from a population of 10^5,
//                  while a publisher hot-swaps dense-rubble's parameters
//                  every second (each publish re-quantizes).
//
// The benchmark drives the fleet with its own generator, not
// serve::RunLoad: RunLoad's closed loop runs one thread per client (24
// clients would exceed the host's cores) and its open loop submits one
// constant state.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "agents/eval.h"
#include "agents/policy_net.h"
#include "agents/quant_policy.h"
#include "bench.h"
#include "core/scenarios.h"
#include "cost.h"
#include "env/env.h"
#include "env/state_encoder.h"
#include "env/vec_env.h"
#include "nn/tensor.h"
#include "serve/fleet.h"

namespace perfbench {
namespace {

using namespace cews;

/// One request in every kCheckEvery is deterministic and re-decided
/// offline after the load.
constexpr uint64_t kCheckEvery = 16;

struct Scenario {
  std::string name;
  env::Map map;
};

Result<Scenario> MakeServeScenario(core::Scenario id, int pois,
                                   uint64_t seed) {
  CEWS_ASSIGN_OR_RETURN(env::Map map,
                        core::MakeScenario(id, pois, 2, 4, seed));
  return Scenario{core::ScenarioName(id), std::move(map)};
}

/// The paper policy net (grid 20, conv 8/16/16, FC 256) for `map`.
agents::PolicyNetConfig PaperNet(const env::Map& map) {
  agents::PolicyNetConfig net;
  net.num_workers = static_cast<int>(map.worker_spawns.size());
  net.num_moves = env::EnvConfig().action_space.num_moves();
  return net;
}

/// The parameters published as `epoch` of scenario `scenario`: a fresh
/// initialization from a seed-derived stream, so every epoch decides
/// differently and a response served from the wrong epoch fails the check.
std::unique_ptr<agents::PolicyNet> EpochNet(const agents::PolicyNetConfig& net,
                                            uint64_t seed, int scenario,
                                            uint64_t epoch) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL +
          static_cast<uint64_t>(scenario) * 1000003ULL + epoch * 7919ULL + 11);
  return std::make_unique<agents::PolicyNet>(net, rng);
}

/// A deterministic request kept for the offline decision check.
struct Checked {
  int scenario = 0;
  uint64_t epoch = 0;
  std::vector<float> state;
  std::vector<uint8_t> mask;
  std::vector<int> moves;
  std::vector<int> charges;
};

/// The timed part of a load: completions in [start_ns, end_ns] count.
struct Window {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Untimed load before every window. On a shared guest throughput ramps up
/// over the first seconds of load (and again after every pause), so the
/// window starts only after this much continuous load.
double RampSeconds(const Options& options) { return options.tiny ? 0.2 : 2.0; }

/// What one client thread observed.
struct Tally {
  std::vector<double> latency_ms;  ///< Completions inside the window.
  std::vector<uint64_t> done_ns;
  std::vector<double> server_ms;   ///< ScheduleResponse::latency_ns.
  std::vector<double> batch_size;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Checked> checked;

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 4) failures.push_back(why);
  }
};

/// Records one response; returns whether it is usable (OK and every move
/// permitted by its mask).
bool Record(const serve::ScheduleResponse& response,
            const std::vector<uint8_t>& mask, int num_workers, int num_moves,
            uint64_t submit_ns, uint64_t done_ns, const Window& window,
            Tally* tally) {
  ++tally->attempted;
  if (!response.ok()) {
    tally->Fail("response: " + response.status.ToString());
    return false;
  }
  if (static_cast<int>(response.act.moves.size()) != num_workers) {
    tally->Fail("response carries the wrong number of worker actions");
    return false;
  }
  for (int w = 0; w < num_workers; ++w) {
    const int move = response.act.moves[static_cast<size_t>(w)];
    if (move < 0 || move >= num_moves ||
        (!mask.empty() &&
         mask[static_cast<size_t>(w * num_moves + move)] == 0)) {
      tally->Fail(Format("worker %d served move %d that its mask forbids", w,
                         move));
      return false;
    }
  }
  if (done_ns >= window.start_ns && done_ns <= window.end_ns) {
    tally->latency_ms.push_back(static_cast<double>(done_ns - submit_ns) *
                                1e-6);
    tally->done_ns.push_back(done_ns);
    tally->server_ms.push_back(static_cast<double>(response.latency_ns) *
                               1e-6);
    tally->batch_size.push_back(response.batch_size);
  }
  return true;
}

/// Clients poll their pending responses instead of blocking on them: a
/// blocked client lets its vCPU halt, and the hypervisor wake-up that
/// follows was the least repeatable cost on a shared guest. Polling every
/// pending request also takes each response when it is ready, not after
/// older ones (no head-of-line wait in the client).
bool Ready(const std::future<serve::ScheduleResponse>& pending) {
  return pending.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

void Pause() {
#if defined(__x86_64__) || defined(__i386__)
  for (int i = 0; i < 64; ++i) __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Merged result of one timed load.
struct Load {
  Tally all;
  uint64_t start_ns = 0;
  double window_s = 0.0;
  std::vector<double> publish_ms;

  void Merge(Tally&& t) {
    auto append = [](auto& dst, auto& src) {
      dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                 std::make_move_iterator(src.end()));
    };
    append(all.latency_ms, t.latency_ms);
    append(all.done_ns, t.done_ns);
    append(all.server_ms, t.server_ms);
    append(all.batch_size, t.batch_size);
    append(all.checked, t.checked);
    all.attempted += t.attempted;
    all.failed += t.failed;
    for (std::string& f : t.failures) {
      if (all.failures.size() < 8) all.failures.push_back(std::move(f));
    }
  }

  /// Completions in each whole one-second window.
  std::vector<double> WindowCounts() const {
    const int windows = static_cast<int>(std::floor(window_s));
    std::vector<double> counts(static_cast<size_t>(std::max(windows, 0)), 0.0);
    for (const uint64_t t : all.done_ns) {
      const int64_t k = static_cast<int64_t>((t - start_ns) / 1000000000ULL);
      if (k >= 0 && k < windows) counts[static_cast<size_t>(k)] += 1.0;
    }
    return counts;
  }

  /// Median over whole one-second windows of completions per second (a
  /// burst of host noise moves one window, not the median).
  double OpsPerS() const {
    if (window_s < 1.0) {
      return static_cast<double>(all.done_ns.size()) / window_s;
    }
    return Median(WindowCounts());
  }
};

void AddToReport(const Load& load, Report* report) {
  report->AddAttempted(load.all.attempted);
  for (int64_t i = 0; i < load.all.failed; ++i) {
    report->Fail(i < static_cast<int64_t>(load.all.failures.size())
                     ? load.all.failures[static_cast<size_t>(i)]
                     : "failed response");
  }
}

void PrintLoad(const char* label, const Load& load) {
  const std::vector<double>& lat = load.all.latency_ms;
  std::printf(
      "%s: %zu decisions in %.2f s window (%lld responses, %lld failed); "
      "ops_per_s %.1f (median of 1 s windows; %.1f overall)\n",
      label, lat.size(), load.window_s,
      static_cast<long long>(load.all.attempted),
      static_cast<long long>(load.all.failed), load.OpsPerS(),
      static_cast<double>(lat.size()) / load.window_s);
  std::printf("  decisions per 1 s window:");
  for (const double c : load.WindowCounts()) std::printf(" %.0f", c);
  std::printf("\n");
  std::printf("  latency ms by decile:");
  for (int d = 1; d <= 9; ++d) std::printf(" %.3f", Quantile(lat, d / 10.0));
  std::printf("\n");
  const size_t n = lat.size();
  std::printf("  latency ms: p50 %.4f p90 %.4f (n=%zu) | p99 %.4f (%zu "
              "beyond) p999 %.4f (%zu beyond) | server p50 %.4f | mean batch "
              "%.2f\n",
              Quantile(lat, 0.5), Quantile(lat, 0.9), n, Quantile(lat, 0.99),
              n / 100, Quantile(lat, 0.999), n / 1000,
              Quantile(load.all.server_ms, 0.5), Mean(load.all.batch_size));
}

/// Re-decides every kept deterministic request offline with the parameters
/// of the epoch that served it — PolicyNet::Forward for fp32,
/// QuantPolicyForward + DecideFromLogits for int8 — and counts mismatches
/// as failed operations. Also reports (without gating) how often the other
/// precision would have decided the same.
void CheckDecisions(const agents::PolicyNetConfig& cfg,
                    const std::vector<Checked>& records, bool served_int8,
                    const Options& options, Report* report) {
  std::map<std::pair<int, uint64_t>, std::vector<const Checked*>> groups;
  for (const Checked& c : records) groups[{c.scenario, c.epoch}].push_back(&c);
  const int state_size = cfg.in_channels * cfg.grid * cfg.grid;
  const int mask_size = cfg.num_workers * cfg.num_moves;
  int64_t checked = 0, mismatched = 0, heads = 0, heads_agreed = 0;
  Rng unused_rng(1);  // Deterministic decisions draw no randomness.
  for (const auto& [key, members] : groups) {
    std::unique_ptr<agents::PolicyNet> net =
        EpochNet(cfg, options.seed, key.first, key.second);
    if (options.perturb_reference) {
      Rng noise(options.seed + key.second);
      for (nn::Tensor& t : net->Parameters()) {
        for (nn::Index i = 0; i < t.numel(); ++i) {
          t.data()[i] += static_cast<float>(0.1 * noise.Gaussian());
        }
      }
    }
    const nn::quant::QuantizedParams qp =
        agents::QuantizePolicyParams(net->Parameters());
    for (size_t begin = 0; begin < members.size(); begin += 64) {
      const int n = static_cast<int>(std::min<size_t>(64, members.size() - begin));
      std::vector<float> states;
      std::vector<uint8_t> masks;
      states.reserve(static_cast<size_t>(n) * state_size);
      masks.reserve(static_cast<size_t>(n) * mask_size);
      for (int i = 0; i < n; ++i) {
        const Checked& c = *members[begin + static_cast<size_t>(i)];
        states.insert(states.end(), c.state.begin(), c.state.end());
        if (c.mask.empty()) {
          masks.insert(masks.end(), static_cast<size_t>(mask_size), 1);
        } else {
          masks.insert(masks.end(), c.mask.begin(), c.mask.end());
        }
      }
      const std::vector<uint8_t> det(static_cast<size_t>(n), 1);
      const std::vector<agents::PolicyDecision> fp32 = agents::DecidePolicyBatch(
          *net, states, n, unused_rng, det.data(), masks.data());
      const agents::QuantPolicyOutput out =
          agents::QuantPolicyForward(cfg, qp, states.data(), n);
      const std::vector<agents::PolicyDecision> int8 = agents::DecideFromLogits(
          cfg, out.move_logits.data(), out.charge_logits.data(),
          out.value.data(), n, unused_rng, det.data(), masks.data());
      for (int i = 0; i < n; ++i) {
        const Checked& c = *members[begin + static_cast<size_t>(i)];
        const agents::ActResult& want =
            (served_int8 ? int8 : fp32)[static_cast<size_t>(i)].act;
        const agents::ActResult& other =
            (served_int8 ? fp32 : int8)[static_cast<size_t>(i)].act;
        ++checked;
        if (want.moves != c.moves || want.charges != c.charges) {
          ++mismatched;
          report->Fail(Format("scenario %d epoch %llu: served decision differs "
                              "from the offline forward",
                              c.scenario,
                              static_cast<unsigned long long>(c.epoch)));
        }
        // Agreement per action head (each worker's move and charge), as
        // agents::ActionAgreementOnStates counts it.
        for (size_t w = 0; w < c.moves.size(); ++w) {
          heads += 2;
          heads_agreed += (other.moves[w] == c.moves[w]) +
                          (other.charges[w] == c.charges[w]);
        }
      }
    }
  }
  std::printf("decision check: %lld deterministic requests re-decided offline "
              "(%s reference), %lld mismatched; %s-vs-%s action agreement "
              "%.4f over %lld heads (reported, not gated)\n",
              static_cast<long long>(checked), served_int8 ? "int8" : "fp32",
              static_cast<long long>(mismatched), served_int8 ? "int8" : "fp32",
              served_int8 ? "fp32" : "int8",
              heads > 0 ? static_cast<double>(heads_agreed) / heads : 1.0,
              static_cast<long long>(heads));
  if (checked == 0) report->FailCheck("no deterministic request was checked");
}

/// Times PolicyNet::Forward and QuantPolicyForward at `batch` on `states`
/// (the load's mean batch, after the load).
void ProbeForwards(const agents::PolicyNetConfig& cfg,
                   const std::vector<float>& pool_states, int batch,
                   int reps, uint64_t seed) {
  const size_t state_size =
      static_cast<size_t>(cfg.in_channels * cfg.grid * cfg.grid);
  const size_t pool = pool_states.size() / state_size;
  std::vector<float> states;
  for (int i = 0; i < batch; ++i) {
    const size_t k = static_cast<size_t>(i) % pool;
    states.insert(states.end(), pool_states.begin() + k * state_size,
                  pool_states.begin() + (k + 1) * state_size);
  }
  std::unique_ptr<agents::PolicyNet> net = EpochNet(cfg, seed, 0, 1);
  const nn::quant::QuantizedParams qp =
      agents::QuantizePolicyParams(net->Parameters());
  nn::NoGradGuard no_grad;
  const nn::Tensor x = nn::Tensor::FromData(
      {batch, cfg.in_channels, cfg.grid, cfg.grid}, states);
  ScopedSpan probe("probe.forward");
  for (int r = 0; r < reps; ++r) {
    {
      ScopedSpan span("nn.fp32_forward");
      const agents::PolicyOutput out = net->Forward(x);
      (void)out;
    }
    {
      ScopedSpan span("nn.int8_forward");
      const agents::QuantPolicyOutput out =
          agents::QuantPolicyForward(cfg, qp, states.data(), batch);
      (void)out;
    }
  }
}

std::string ForwardNote(const agents::PolicyNetConfig& cfg, int batch,
                        bool int8, double per_call_ms) {
  return Format("batch %d; ", batch) +
         CostNote(PolicyForwardCost(cfg, batch, int8), per_call_ms);
}

/// The per-layer table and metrics of a traced serving run.
void LayerReport(const agents::PolicyNetConfig& cfg, const Load& untraced,
                 const Load& traced, const std::vector<float>& probe_states,
                 const Options& options, const std::string& name,
                 Report* report) {
  const double batch_mean = Mean(traced.all.batch_size);
  const int probe_batch = std::max(1, static_cast<int>(std::lround(batch_mean)));
  SetTracing(true);
  ProbeForwards(cfg, probe_states, probe_batch, options.tiny ? 10 : 300,
                options.seed);
  SetTracing(false);
  const std::vector<Span> spans = TakeSpans();
  const std::string path = options.out_dir + "/spans-" + name + "-seed" +
                           std::to_string(options.seed) + ".json";
  const bool written = WriteSpans(path, spans);
  std::map<std::string, SpanStats> stats = AggregateSpans(spans);
  auto per_call_ms = [&](const char* span) {
    return Median(stats[span].durations_ms);
  };

  // Attribution within the traced load; the untraced load only serves the
  // overhead line.
  const double e2e_p50 = Quantile(traced.all.latency_ms, 0.5);
  const double decisions = static_cast<double>(traced.all.attempted);
  const double submit_ms = per_call_ms("serve.submit");
  const double server_ms = Median(traced.all.server_ms);
  const double unattributed = e2e_p50 - submit_ms - server_ms;
  const double fp32_ms = per_call_ms("nn.fp32_forward");
  const double int8_ms = per_call_ms("nn.int8_forward");
  const double publish_ms = per_call_ms("serve.publish");
  const double client_ms = per_call_ms("env.client");
  const bool int8 = name == "serve_fleet";

  report->SetLayer("serve.submit_us", submit_ms * 1e3);
  report->SetLayer("serve.server_ms", server_ms);
  report->SetLayer("serve.batch_mean", batch_mean);
  report->SetLayer("serve.publish_ms", publish_ms);
  report->SetLayer("env.client_us", client_ms * 1e3);
  report->SetLayer("nn.fp32_forward_us", fp32_ms * 1e3);
  report->SetLayer("nn.int8_forward_us", int8_ms * 1e3);
  report->SetLayer("unattributed_ms", unattributed);

  const double client_calls =
      static_cast<double>(stats["env.client"].calls) / decisions;
  const double publish_calls =
      static_cast<double>(stats["serve.publish"].calls) / decisions;
  auto share = [&](double ms) { return ms / e2e_p50; };
  std::vector<LayerRow> rows = {
      {"serve.submit_us", 1.0, submit_ms * 1e3, "us", submit_ms,
       share(submit_ms), "Fleet::Submit until it returns (client)"},
      {"serve.server_ms", 1.0, server_ms, "ms", server_ms, share(server_ms),
       "enqueue to completion, as the server reports it"},
      {"unattributed_ms", 1.0, unattributed, "ms", unattributed,
       share(unattributed), "e2e p50 - submit - server: client poll + hand-off"},
      {"serve.batch_mean", 1.0 / batch_mean, batch_mean, "", 0.0, 0.0,
       "mean ScheduleResponse::batch_size (count)"},
      {"nn.fp32_forward_us", int8 ? 0.0 : 1.0 / batch_mean, fp32_ms * 1e3,
       "us", int8 ? 0.0 : fp32_ms / batch_mean,
       int8 ? 0.0 : share(fp32_ms / batch_mean),
       ForwardNote(cfg, probe_batch, false, fp32_ms) +
           (int8 ? " (what fp32 would cost)" : "")},
      {"nn.int8_forward_us", int8 ? 1.0 / batch_mean : 0.0, int8_ms * 1e3,
       "us", int8 ? int8_ms / batch_mean : 0.0,
       int8 ? share(int8_ms / batch_mean) : 0.0,
       ForwardNote(cfg, probe_batch, true, int8_ms) +
           (int8 ? "" : " (what int8 would cost)")},
      {"env.client_us", client_calls, client_ms * 1e3, "us",
       client_calls * client_ms, 0.0,
       int8 ? "Env::Step + Encode + mask, state-pool generation (setup)"
            : "Env::Step + Encode + mask per decision, off the latency path"},
      {"serve.publish_ms", publish_calls, publish_ms, "ms",
       publish_calls * publish_ms, 0.0,
       int8 ? "Fleet::Publish incl. int8 quantize + pack"
            : "Fleet::Publish in set-up (fp32 copy-out)"},
  };
  PrintLayerTable("per-layer (one decision; forward rows are per batched "
                  "call, shared by the batch):",
                  rows);
  std::printf(
      "tracing overhead (traced - untraced load): ops_per_s %+.1f (%.1f vs "
      "%.1f), p50_ms %+.4f (%.4f vs %.4f)\n",
      traced.OpsPerS() - untraced.OpsPerS(), traced.OpsPerS(),
      untraced.OpsPerS(),
      e2e_p50 - Quantile(untraced.all.latency_ms, 0.5), e2e_p50,
      Quantile(untraced.all.latency_ms, 0.5));
  std::printf("spans: %zu recorded, first %zu %s %s\n", spans.size(),
              std::min(spans.size(), kMaxWrittenSpans),
              written ? "written to" : "FAILED to write", path.c_str());
  if (!written) report->FailCheck("could not write spans to " + path);
}

void ReportE2e(const std::vector<double>& setups, const Load& load,
               Report* report) {
  report->SetE2e("setup_s", Median(setups));
  report->SetE2e("ops_per_s", load.OpsPerS());
  report->SetE2e("p50_ms", Quantile(load.all.latency_ms, 0.5));
  report->SetE2e("p90_ms", Quantile(load.all.latency_ms, 0.9));
  std::printf("setup_s samples:");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
}

/// Number of set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

// ---------------------------------------------------------------------------
// serve_control
// ---------------------------------------------------------------------------

constexpr int kControlThreads = 3;
constexpr int kLoopsPerThread = 8;

struct ControlLoop {
  std::unique_ptr<env::Env> env;
  uint64_t client_id = 0;
  bool client_encodes = false;
  uint64_t sent = 0;
  std::vector<float> state;  ///< Client-encoded state (client_encodes).
  std::vector<uint8_t> mask;
  std::vector<float> checked_state;
  bool deterministic = false;
  bool active = true;
  uint64_t submit_ns = 0;
  std::future<serve::ScheduleResponse> pending;
};

struct ControlSetup {
  std::unique_ptr<serve::Fleet> fleet;
  std::vector<std::vector<ControlLoop>> threads;
};

void SubmitControl(serve::Fleet& fleet, const std::string& scenario,
                   ControlLoop& loop) {
  serve::ScheduleRequest request;
  request.client_id = loop.client_id;
  request.scenario = scenario;
  request.move_mask = loop.mask;
  loop.deterministic = loop.sent % kCheckEvery == 0;
  request.deterministic = loop.deterministic;
  if (loop.client_encodes) {
    if (loop.deterministic) loop.checked_state = loop.state;
    request.state = std::move(loop.state);
  } else {
    request.env = loop.env.get();
  }
  ++loop.sent;
  loop.submit_ns = NowNs();
  ScopedSpan span("serve.submit");
  loop.pending = fleet.Submit(std::move(request));
}

/// The controller's own step: act on the served decision, then observe.
void StepControl(const env::StateEncoder& encoder, ControlLoop& loop,
                 const std::vector<env::WorkerAction>* actions) {
  ScopedSpan span("env.client");
  if (actions != nullptr) {
    loop.env->Step(*actions);
    if (loop.env->Done()) loop.env->Reset();
  }
  loop.mask = env::MoveValidityMask(*loop.env);
  if (loop.client_encodes) loop.state = encoder.Encode(*loop.env);
}

/// Takes one ready response: records and checks it, then (inside the
/// window) steps the controller and submits its next request.
void Complete(serve::Fleet& fleet, const std::string& scenario,
              const env::StateEncoder& encoder,
              const agents::PolicyNetConfig& cfg, ControlLoop& loop,
              const Window& window, Tally* tally, size_t* active) {
  const serve::ScheduleResponse response = loop.pending.get();
  const uint64_t done = NowNs();
  const bool usable = Record(response, loop.mask, cfg.num_workers,
                             cfg.num_moves, loop.submit_ns, done, window,
                             tally);
  if (usable && loop.deterministic) {
    Checked c;
    c.epoch = response.epoch;
    c.state = loop.client_encodes ? std::move(loop.checked_state)
                                  : encoder.Encode(*loop.env);
    c.mask = loop.mask;
    c.moves = response.act.moves;
    c.charges = response.act.charges;
    tally->checked.push_back(std::move(c));
  }
  if (done >= window.end_ns) {
    loop.active = false;
    --*active;
    return;
  }
  StepControl(encoder, loop, usable ? &response.act.actions : nullptr);
  SubmitControl(fleet, scenario, loop);
}

void ControlThread(serve::Fleet& fleet, const std::string& scenario,
                   const env::StateEncoder& encoder,
                   const agents::PolicyNetConfig& cfg,
                   std::vector<ControlLoop>& loops, const Window& window,
                   Tally* tally) {
  for (ControlLoop& loop : loops) {
    loop.active = true;
    StepControl(encoder, loop, nullptr);
    SubmitControl(fleet, scenario, loop);
  }
  size_t active = loops.size();
  while (active > 0) {
    bool progressed = false;
    for (ControlLoop& loop : loops) {
      if (!loop.active || !Ready(loop.pending)) continue;
      progressed = true;
      Complete(fleet, scenario, encoder, cfg, loop, window, tally, &active);
    }
    if (!progressed) Pause();
  }
}


Window MakeWindow(const Options& options) {
  Window window;
  window.start_ns =
      NowNs() + static_cast<uint64_t>(RampSeconds(options) * 1e9);
  window.end_ns = window.start_ns + static_cast<uint64_t>(options.seconds * 1e9);
  return window;
}

Load RunControlLoad(ControlSetup& setup, const Scenario& scenario,
                    const agents::PolicyNetConfig& cfg,
                    const Options& options) {
  const env::StateEncoder encoder(env::StateEncoderConfig{cfg.grid});
  const Window window = MakeWindow(options);
  Load load;
  load.start_ns = window.start_ns;
  load.window_s = options.seconds;
  std::vector<Tally> tallies(kControlThreads);
  std::vector<std::thread> threads;
  // The calling thread runs controller thread 0: 3 client threads plus the
  // shard worker stay within 4 cores.
  for (int t = 1; t < kControlThreads; ++t) {
    threads.emplace_back([&, t]() {
      ControlThread(*setup.fleet, scenario.name, encoder, cfg,
                    setup.threads[static_cast<size_t>(t)], window,
                    &tallies[static_cast<size_t>(t)]);
    });
  }
  ControlThread(*setup.fleet, scenario.name, encoder, cfg, setup.threads[0],
                window, &tallies[0]);
  for (std::thread& t : threads) t.join();
  for (Tally& t : tallies) load.Merge(std::move(t));
  return load;
}

Result<ControlSetup> SetUpControl(const Scenario& scenario,
                                  const agents::PolicyNetConfig& cfg,
                                  const Options& options) {
  ControlSetup setup;
  serve::FleetConfig fc;
  fc.net = cfg;
  fc.num_shards = 1;
  fc.threads_per_shard = 1;
  fc.max_batch = 16;
  fc.max_queue_delay_us = 200;
  fc.runtime_threads = 1;
  fc.seed = options.seed;
  fc.scenarios = {scenario.name};
  fc.precision = serve::Precision::kFp32;
  CEWS_ASSIGN_OR_RETURN(setup.fleet, serve::Fleet::Create(fc));
  const std::unique_ptr<agents::PolicyNet> net =
      EpochNet(cfg, options.seed, 0, 1);
  {
    ScopedSpan span("serve.publish");
    CEWS_RETURN_IF_ERROR(setup.fleet->Publish(scenario.name, net->Parameters()));
  }
  env::EnvConfig env_config;
  env_config.horizon = options.tiny ? 20 : 100;
  setup.threads.resize(kControlThreads);
  for (int t = 0; t < kControlThreads; ++t) {
    for (int l = 0; l < kLoopsPerThread; ++l) {
      ControlLoop loop;
      loop.env = std::make_unique<env::Env>(env_config, scenario.map);
      loop.client_id = static_cast<uint64_t>(t * kLoopsPerThread + l);
      loop.client_encodes = l % 2 == 0;
      setup.threads[static_cast<size_t>(t)].push_back(std::move(loop));
    }
  }
  // Warm-up: four closed-loop decisions per controller, untimed.
  const env::StateEncoder encoder(env::StateEncoderConfig{cfg.grid});
  for (int round = 0; round < 4; ++round) {
    for (std::vector<ControlLoop>& loops : setup.threads) {
      for (ControlLoop& loop : loops) {
        StepControl(encoder, loop, nullptr);
        SubmitControl(*setup.fleet, scenario.name, loop);
      }
    }
    for (std::vector<ControlLoop>& loops : setup.threads) {
      for (ControlLoop& loop : loops) {
        const serve::ScheduleResponse r = loop.pending.get();
        if (!r.ok()) return r.status;
        loop.env->Step(r.act.actions);
      }
    }
  }
  for (std::vector<ControlLoop>& loops : setup.threads) {
    for (ControlLoop& loop : loops) {
      loop.env->Reset();
      loop.sent = 0;
    }
  }
  return setup;
}

// ---------------------------------------------------------------------------
// serve_fleet
// ---------------------------------------------------------------------------

constexpr uint64_t kClientPopulation = 100000;
/// earthquake-site carries most of the traffic and is the one hot-swapped,
/// so publishes land beside most reads.
constexpr int kPublishScenario = 0;
/// Share of requests for dense-rubble. A worker runs one forward per
/// scenario in a flush, so a request waits for one or two forwards; with an
/// even mix the median sits on that boundary and jumps from run to run.
constexpr double kMinorityShare = 0.2;

struct PoolEntry {
  std::vector<float> state;
  std::vector<uint8_t> mask;
};

/// Real encoded states and masks from seeded random-valid-action rollouts.
std::vector<PoolEntry> MakePool(const Scenario& scenario,
                                const agents::PolicyNetConfig& cfg,
                                int size, uint64_t seed, int horizon) {
  env::EnvConfig env_config;
  env_config.horizon = horizon;
  env::Env env(env_config, scenario.map);
  const env::StateEncoder encoder(env::StateEncoderConfig{cfg.grid});
  Rng rng(seed);
  std::vector<PoolEntry> pool;
  std::vector<uint8_t> mask = env::MoveValidityMask(env);
  std::vector<env::WorkerAction> actions(static_cast<size_t>(cfg.num_workers));
  while (static_cast<int>(pool.size()) < size) {
    for (int w = 0; w < cfg.num_workers; ++w) {
      std::vector<int> valid;
      for (int m = 0; m < cfg.num_moves; ++m) {
        if (mask[static_cast<size_t>(w * cfg.num_moves + m)] != 0) {
          valid.push_back(m);
        }
      }
      env::WorkerAction& a = actions[static_cast<size_t>(w)];
      a.move = valid.empty() ? 0
                             : valid[static_cast<size_t>(
                                   rng.UniformInt(valid.size()))];
      a.charge = rng.Uniform() < 0.1;
    }
    PoolEntry entry;
    {
      ScopedSpan span("env.client");
      env.Step(actions);
      if (env.Done()) env.Reset();
      entry.state = encoder.Encode(env);
      mask = env::MoveValidityMask(env);
    }
    entry.mask = mask;
    pool.push_back(std::move(entry));
  }
  return pool;
}

struct FleetSetup {
  std::unique_ptr<serve::Fleet> fleet;
  std::vector<std::vector<PoolEntry>> pools;  ///< Per scenario.
  uint64_t next_epoch = 2;  ///< Of the hot-swapped scenario.
  uint64_t dispatched = 0;
};

struct InFlight {
  std::future<serve::ScheduleResponse> response;
  uint64_t submit_ns = 0;
  int scenario = 0;
  int pool_index = 0;
  bool deterministic = false;
};

/// Keeps `in_flight_target` requests in flight until the window ends, then
/// drains. After get() a slot's future is invalid until it is resubmitted.
void Dispatch(FleetSetup& setup, const std::vector<Scenario>& scenarios,
              const agents::PolicyNetConfig& cfg, Rng& rng,
              int in_flight_target, const Window& window, Tally* tally) {
  std::vector<InFlight> slots(static_cast<size_t>(in_flight_target));
  const int shards = setup.fleet->num_shards();
  auto submit = [&](InFlight& f, int shard) {
    f.scenario = rng.Uniform() < kMinorityShare ? 1 : 0;
    const std::vector<PoolEntry>& pool =
        setup.pools[static_cast<size_t>(f.scenario)];
    f.pool_index = static_cast<int>(rng.UniformInt(pool.size()));
    serve::ScheduleRequest request;
    request.scenario = scenarios[static_cast<size_t>(f.scenario)].name;
    // Each slot keeps one shard's share of the window: a client is drawn
    // from the population until the router sends it to the slot's shard.
    // With free routing the closed loop piles the window onto whichever
    // shard is slower while the other idles, and the latency split between
    // the two jumps from run to run.
    request.client_id = rng.UniformInt(kClientPopulation);
    for (int draw = 0; draw < 64 && setup.fleet->ShardFor(
                                        request.client_id, request.scenario) !=
                                        shard;
         ++draw) {
      request.client_id = rng.UniformInt(kClientPopulation);
    }
    request.state = pool[static_cast<size_t>(f.pool_index)].state;
    request.move_mask = pool[static_cast<size_t>(f.pool_index)].mask;
    f.deterministic = setup.dispatched++ % kCheckEvery == 0;
    request.deterministic = f.deterministic;
    f.submit_ns = NowNs();
    {
      ScopedSpan span("serve.submit");
      f.response = setup.fleet->Submit(std::move(request));
    }
  };
  for (size_t i = 0; i < slots.size(); ++i) {
    submit(slots[i], static_cast<int>(i) % shards);
  }
  size_t pending = slots.size();
  while (pending > 0) {
    bool progressed = false;
    for (size_t i = 0; i < slots.size(); ++i) {
      InFlight& f = slots[i];
      if (!f.response.valid() || !Ready(f.response)) continue;
      progressed = true;
      const serve::ScheduleResponse response = f.response.get();
      const uint64_t done = NowNs();
      const PoolEntry& entry = setup.pools[static_cast<size_t>(f.scenario)]
                                          [static_cast<size_t>(f.pool_index)];
      const bool usable = Record(response, entry.mask, cfg.num_workers,
                                 cfg.num_moves, f.submit_ns, done, window,
                                 tally);
      if (usable && f.deterministic) {
        Checked c;
        c.scenario = f.scenario;
        c.epoch = response.epoch;
        c.state = entry.state;
        c.mask = entry.mask;
        c.moves = response.act.moves;
        c.charges = response.act.charges;
        tally->checked.push_back(std::move(c));
      }
      if (done < window.end_ns) {
        submit(f, static_cast<int>(i) % shards);
      } else {
        --pending;
      }
    }
    if (!progressed) Pause();
  }
}

/// Hot-swaps the publish scenario once a second until stopped.
class Publisher {
 public:
  Publisher(FleetSetup& setup, const std::vector<Scenario>& scenarios,
            const agents::PolicyNetConfig& cfg, uint64_t seed)
      : setup_(setup), scenarios_(scenarios), cfg_(cfg), seed_(seed),
        thread_([this]() { Loop(); }) {}
  ~Publisher() { Stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after Stop().
  const std::vector<double>& publish_ms() const { return publish_ms_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void Loop() {
    auto next = std::chrono::steady_clock::now() + std::chrono::seconds(1);
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_until(lock, next, [this]() { return stop_; })) return;
      }
      next += std::chrono::seconds(1);
      const std::unique_ptr<agents::PolicyNet> net =
          EpochNet(cfg_, seed_, kPublishScenario, setup_.next_epoch);
      const uint64_t t = NowNs();
      Status status;
      {
        ScopedSpan span("serve.publish");
        status = setup_.fleet->Publish(
            scenarios_[kPublishScenario].name, net->Parameters());
      }
      publish_ms_.push_back(static_cast<double>(NowNs() - t) * 1e-6);
      if (!status.ok()) {
        errors_.push_back(status.ToString());
        return;
      }
      ++setup_.next_epoch;
    }
  }

  FleetSetup& setup_;
  const std::vector<Scenario>& scenarios_;
  const agents::PolicyNetConfig cfg_;
  const uint64_t seed_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // Guarded by mu_.
  std::vector<double> publish_ms_;
  std::vector<std::string> errors_;
  std::thread thread_;
};

/// Requests the dispatcher keeps in flight: more than both shards' batches
/// hold (2 x 16); 24 per shard, as serve_control keeps on its one shard.
int FleetWindow(const Options& options) { return options.tiny ? 16 : 48; }

Load RunFleetLoad(FleetSetup& setup, const std::vector<Scenario>& scenarios,
                  const agents::PolicyNetConfig& cfg, const Options& options,
                  uint64_t rng_salt, Report* report) {
  Rng rng(options.seed * 0x2545F4914F6CDD1DULL + rng_salt);
  const Window window = MakeWindow(options);
  Load load;
  load.start_ns = window.start_ns;
  load.window_s = options.seconds;
  Tally tally;
  Publisher publisher(setup, scenarios, cfg, options.seed);
  Dispatch(setup, scenarios, cfg, rng, FleetWindow(options), window, &tally);
  publisher.Stop();
  load.publish_ms = publisher.publish_ms();
  for (const std::string& e : publisher.errors()) {
    report->FailCheck("publish: " + e);
  }
  load.Merge(std::move(tally));
  return load;
}

Result<FleetSetup> SetUpFleet(const std::vector<Scenario>& scenarios,
                              const agents::PolicyNetConfig& cfg,
                              const Options& options) {
  FleetSetup setup;
  const int pool_size = options.tiny ? 64 : 512;
  for (size_t s = 0; s < scenarios.size(); ++s) {
    setup.pools.push_back(MakePool(scenarios[s], cfg, pool_size,
                                   options.seed * 131 + s,
                                   options.tiny ? 20 : 100));
  }
  serve::FleetConfig fc;
  fc.net = cfg;
  fc.num_shards = 2;
  fc.threads_per_shard = 1;
  fc.max_batch = 16;
  fc.max_queue_delay_us = 200;
  fc.runtime_threads = 1;
  fc.seed = options.seed;
  for (const Scenario& s : scenarios) fc.scenarios.push_back(s.name);
  fc.precision = serve::Precision::kInt8;
  CEWS_ASSIGN_OR_RETURN(setup.fleet, serve::Fleet::Create(fc));
  for (size_t s = 0; s < scenarios.size(); ++s) {
    const std::unique_ptr<agents::PolicyNet> net =
        EpochNet(cfg, options.seed, static_cast<int>(s), 1);
    ScopedSpan span("serve.publish");
    CEWS_RETURN_IF_ERROR(setup.fleet->Publish(scenarios[s].name,
                                              net->Parameters()));
  }
  // Warm-up: four windows of requests, untimed and unchecked.
  Rng rng(options.seed + 99);
  Tally warm;
  Dispatch(setup, scenarios, cfg, rng, 4 * FleetWindow(options), Window{},
           &warm);
  if (warm.failed > 0) return Status::Internal("warm-up: " + warm.failures[0]);
  setup.dispatched = 0;
  return setup;
}

std::vector<float> PoolStates(const std::vector<PoolEntry>& pool) {
  std::vector<float> states;
  for (const PoolEntry& e : pool) {
    states.insert(states.end(), e.state.begin(), e.state.end());
  }
  return states;
}

}  // namespace

void RunServeControl(const Options& options, Report* report) {
  Result<Scenario> scenario = MakeServeScenario(
      core::Scenario::kEarthquakeSite, options.tiny ? 60 : 200, options.seed);
  if (!scenario.ok()) {
    report->FailCheck("map: " + scenario.status().ToString());
    return;
  }
  const agents::PolicyNetConfig cfg = PaperNet(scenario->map);
  std::printf("config: 1 fp32 shard x 1 worker, max_batch 16, 200 us delay; "
              "%d client threads x %d controller loops (%d in flight); "
              "earthquake-site %zu PoIs\n",
              kControlThreads, kLoopsPerThread,
              kControlThreads * kLoopsPerThread, scenario->map.pois.size());

  SetTracing(options.trace);
  std::vector<double> setups;
  ControlSetup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = ControlSetup{};  // Stops the previous fleet before the next.
    const uint64_t t = NowNs();
    Result<ControlSetup> made = SetUpControl(*scenario, cfg, options);
    setups.push_back(SecondsSince(t));
    if (!made.ok()) {
      report->FailCheck("set-up: " + made.status().ToString());
      return;
    }
    setup = std::move(*made);
  }
  SetTracing(false);

  Load load = RunControlLoad(setup, *scenario, cfg, options);
  PrintLoad("untraced load", load);
  AddToReport(load, report);
  CheckDecisions(cfg, load.all.checked, false, options, report);
  ReportE2e(setups, load, report);

  if (options.trace) {
    SetTracing(true);
    Load traced = RunControlLoad(setup, *scenario, cfg, options);
    SetTracing(false);
    PrintLoad("traced load", traced);
    AddToReport(traced, report);
    CheckDecisions(cfg, traced.all.checked, false, options, report);
    std::vector<float> probe_states;
    for (const Checked& c : traced.all.checked) {
      probe_states.insert(probe_states.end(), c.state.begin(), c.state.end());
      if (probe_states.size() >= 64 * c.state.size()) break;
    }
    setup.fleet->Stop();
    LayerReport(cfg, load, traced, probe_states, options, "serve_control",
                report);
  }
}

void RunServeFleet(const Options& options, Report* report) {
  std::vector<Scenario> scenarios;
  for (const core::Scenario id :
       {core::Scenario::kEarthquakeSite, core::Scenario::kDenseRubble}) {
    Result<Scenario> s =
        MakeServeScenario(id, options.tiny ? 60 : 200, options.seed);
    if (!s.ok()) {
      report->FailCheck("map: " + s.status().ToString());
      return;
    }
    scenarios.push_back(std::move(*s));
  }
  const agents::PolicyNetConfig cfg = PaperNet(scenarios[0].map);
  std::printf("config: 2 int8 shards x 1 worker, max_batch 16, 200 us delay; "
              "1 dispatcher keeping %d in flight; client ids from %llu; "
              "%s and %s (%.0f%% of requests), %s republished every "
              "second\n",
              FleetWindow(options),
              static_cast<unsigned long long>(kClientPopulation),
              scenarios[0].name.c_str(), scenarios[1].name.c_str(),
              100.0 * kMinorityShare,
              scenarios[kPublishScenario].name.c_str());

  SetTracing(options.trace);
  std::vector<double> setups;
  FleetSetup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = FleetSetup{};  // Stops the previous fleet before the next.
    const uint64_t t = NowNs();
    Result<FleetSetup> made = SetUpFleet(scenarios, cfg, options);
    setups.push_back(SecondsSince(t));
    if (!made.ok()) {
      report->FailCheck("set-up: " + made.status().ToString());
      return;
    }
    setup = std::move(*made);
  }
  SetTracing(false);

  Load load = RunFleetLoad(setup, scenarios, cfg, options, 1, report);
  PrintLoad("untraced load", load);
  std::printf("  publishes: %zu, median %.3f ms\n", load.publish_ms.size(),
              Median(load.publish_ms));
  AddToReport(load, report);
  CheckDecisions(cfg, load.all.checked, true, options, report);
  ReportE2e(setups, load, report);

  if (options.trace) {
    SetTracing(true);
    Load traced = RunFleetLoad(setup, scenarios, cfg, options, 2, report);
    SetTracing(false);
    PrintLoad("traced load", traced);
    AddToReport(traced, report);
    CheckDecisions(cfg, traced.all.checked, true, options, report);
    setup.fleet->Stop();
    LayerReport(cfg, load, traced, PoolStates(setup.pools[0]), options,
                "serve_fleet", report);
  }
}

}  // namespace perfbench
