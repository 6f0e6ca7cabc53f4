#include "serve/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "env/state_encoder.h"
#include "env/vec_env.h"

namespace cews::serve {

namespace {

/// Latencies and error/shed counts one client or submitter collected.
struct ClientTally {
  std::vector<uint64_t> latency_ns;
  std::vector<uint64_t> server_latency_ns;  // ScheduleResponse::latency_ns
  uint64_t batch_size_sum = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
  uint64_t submitted = 0;
};

/// Folds one harvested response into the tally. `latency_ns` is the
/// caller-measured latency (closed loop: client-side submit-to-response;
/// open loop: scheduled-arrival lag + server enqueue-to-completion).
void Tally(const ScheduleResponse& response, uint64_t latency_ns,
           ClientTally& tally) {
  if (response.status.code() == StatusCode::kResourceExhausted) {
    ++tally.shed;
    return;
  }
  if (!response.ok()) {
    ++tally.errors;
    return;
  }
  ++tally.completed;
  tally.batch_size_sum += static_cast<uint64_t>(response.batch_size);
  tally.latency_ns.push_back(latency_ns);
  tally.server_latency_ns.push_back(response.latency_ns);
}

void RunClosedLoopClient(Fleet& fleet, const env::Map& map,
                         const LoadSpec& spec, int encoder_grid,
                         int client_index, ClientTally& tally) {
  env::Env env(spec.env, map);
  env.Reset();
  const env::StateEncoder encoder(env::StateEncoderConfig{encoder_grid});
  const bool pre_encode = client_index % 2 == 0;
  tally.latency_ns.reserve(static_cast<size_t>(spec.requests_per_client));
  tally.server_latency_ns.reserve(
      static_cast<size_t>(spec.requests_per_client));

  for (int r = 0; r < spec.requests_per_client; ++r) {
    ScheduleRequest request;
    request.client_id = static_cast<uint64_t>(client_index);
    request.scenario = spec.scenario;
    if (pre_encode) {
      request.state = encoder.Encode(env);
    } else {
      request.env = &env;
    }
    if (spec.use_masks) request.move_mask = env::MoveValidityMask(env);
    request.deterministic = spec.deterministic;

    const uint64_t start_ns = Stopwatch::NowNs();
    const ScheduleResponse response = fleet.Submit(std::move(request)).get();
    ++tally.submitted;
    Tally(response, Stopwatch::NowNs() - start_ns, tally);
    if (!response.ok()) continue;  // shed/error: retry same observation
    env.Step(response.act.actions);
    if (env.Done()) env.Reset();
  }
}

/// One open-loop submitter: generates its share of the Poisson process for
/// the duration window (submit at scheduled arrivals, never gated by
/// completions), then harvests its futures. Latency is charged from the
/// *scheduled* arrival — submitter lag adds to the measured latency rather
/// than silently thinning the offered load (no coordinated omission).
void RunOpenLoopSubmitter(Fleet& fleet, const env::Map& map,
                          const LoadSpec& spec, int encoder_grid,
                          int thread_index, ClientTally& tally) {
  struct InFlight {
    std::future<ScheduleResponse> future;
    uint64_t intended_ns = 0;
    uint64_t submit_ns = 0;
  };

  env::Env env(spec.env, map);
  env.Reset();
  const env::StateEncoder encoder(env::StateEncoderConfig{encoder_grid});
  // Pre-encode once: at 10^5+ requests/second the generator must cost
  // almost nothing per request, and the open-loop mode measures the
  // serving path, not the encoder.
  const std::vector<float> base_state = encoder.Encode(env);
  const std::vector<uint8_t> base_mask =
      spec.use_masks ? env::MoveValidityMask(env) : std::vector<uint8_t>{};

  Rng rng(spec.seed + 0x9E3779B97F4A7C15ULL *
                          static_cast<uint64_t>(thread_index + 1));
  const double rate_per_thread =
      spec.arrival_rps / static_cast<double>(spec.submit_threads);
  const uint64_t population = static_cast<uint64_t>(spec.clients);
  const uint64_t window_ns =
      static_cast<uint64_t>(spec.duration_seconds * 1e9);

  std::vector<InFlight> in_flight;
  in_flight.reserve(static_cast<size_t>(rate_per_thread *
                                        spec.duration_seconds * 1.25) +
                    16);

  const uint64_t start_ns = Stopwatch::NowNs();
  double next_arrival_s = 0.0;
  for (;;) {
    // Exponential inter-arrival gap of this thread's Poisson sub-process.
    next_arrival_s +=
        -std::log(1.0 - rng.Uniform()) / rate_per_thread;
    const uint64_t intended_ns =
        start_ns + static_cast<uint64_t>(next_arrival_s * 1e9);
    if (intended_ns - start_ns >= window_ns) break;

    uint64_t now_ns = Stopwatch::NowNs();
    if (intended_ns > now_ns + 100'000) {
      // Sleep out the bulk; the residue (scheduler wakeup jitter) is
      // charged into the request's latency below, not hidden.
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(intended_ns - now_ns - 50'000));
    }

    ScheduleRequest request;
    request.client_id = rng.NextU64() % population;
    request.scenario = spec.scenario;
    request.state = base_state;
    request.move_mask = base_mask;
    request.deterministic = spec.deterministic;
    // Declare the scheduled arrival so the server's rolling latency gauges
    // charge from it (matching the lag_ns + latency_ns sum tallied below).
    request.arrival_ns = intended_ns;

    InFlight flight;
    flight.intended_ns = intended_ns;
    flight.submit_ns = Stopwatch::NowNs();
    flight.future = fleet.Submit(std::move(request));
    in_flight.push_back(std::move(flight));
  }

  tally.submitted = in_flight.size();
  tally.latency_ns.reserve(in_flight.size());
  tally.server_latency_ns.reserve(in_flight.size());
  for (InFlight& flight : in_flight) {
    const ScheduleResponse response = flight.future.get();
    const uint64_t lag_ns = flight.submit_ns > flight.intended_ns
                                ? flight.submit_ns - flight.intended_ns
                                : 0;
    Tally(response, lag_ns + response.latency_ns, tally);
  }
}

double PercentileUs(const std::vector<uint64_t>& sorted_ns, double p) {
  if (sorted_ns.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted_ns.size() - 1);
  const size_t idx = static_cast<size_t>(std::llround(rank));
  return static_cast<double>(sorted_ns[std::min(idx, sorted_ns.size() - 1)]) /
         1e3;
}

Status ValidateSpec(const LoadSpec& spec) {
  if (spec.clients <= 0) {
    return Status::InvalidArgument("clients must be positive, got " +
                                   std::to_string(spec.clients));
  }
  if (spec.mode == LoadMode::kClosedLoop) {
    if (spec.requests_per_client <= 0) {
      return Status::InvalidArgument(
          "requests_per_client must be positive, got " +
          std::to_string(spec.requests_per_client));
    }
  } else {
    if (!(spec.arrival_rps > 0.0)) {
      return Status::InvalidArgument("arrival_rps must be positive");
    }
    if (!(spec.duration_seconds > 0.0)) {
      return Status::InvalidArgument("duration_seconds must be positive");
    }
    if (spec.submit_threads <= 0) {
      return Status::InvalidArgument("submit_threads must be positive, got " +
                                     std::to_string(spec.submit_threads));
    }
  }
  return Status::OK();
}

}  // namespace

Result<LoadResult> RunLoad(Fleet& fleet, const env::Map& map,
                           const LoadSpec& spec) {
  CEWS_RETURN_IF_ERROR(ValidateSpec(spec));
  const int encoder_grid = fleet.net_config().grid;

  const int num_threads = spec.mode == LoadMode::kClosedLoop
                              ? spec.clients
                              : spec.submit_threads;
  std::vector<ClientTally> tallies(static_cast<size_t>(num_threads));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_threads));
  const uint64_t start_ns = Stopwatch::NowNs();
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&fleet, &map, &spec, encoder_grid, t, &tallies] {
      if (spec.mode == LoadMode::kClosedLoop) {
        RunClosedLoopClient(fleet, map, spec, encoder_grid, t,
                            tallies[static_cast<size_t>(t)]);
      } else {
        RunOpenLoopSubmitter(fleet, map, spec, encoder_grid, t,
                             tallies[static_cast<size_t>(t)]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_seconds =
      static_cast<double>(Stopwatch::NowNs() - start_ns) / 1e9;

  LoadResult result;
  result.wall_seconds = wall_seconds;
  std::vector<uint64_t> all_latencies, server_latencies;
  uint64_t batch_sum = 0;
  uint64_t completed = 0;
  for (const ClientTally& tally : tallies) {
    result.requests += tally.submitted;
    result.errors += tally.errors;
    result.shed += tally.shed;
    completed += tally.completed;
    batch_sum += tally.batch_size_sum;
    all_latencies.insert(all_latencies.end(), tally.latency_ns.begin(),
                         tally.latency_ns.end());
    server_latencies.insert(server_latencies.end(),
                            tally.server_latency_ns.begin(),
                            tally.server_latency_ns.end());
  }
  std::sort(all_latencies.begin(), all_latencies.end());
  std::sort(server_latencies.begin(), server_latencies.end());
  result.throughput_rps =
      wall_seconds > 0.0 ? static_cast<double>(completed) / wall_seconds
                         : 0.0;
  result.offered_rps =
      spec.mode == LoadMode::kOpenLoop
          ? static_cast<double>(result.requests) / spec.duration_seconds
          : (wall_seconds > 0.0
                 ? static_cast<double>(result.requests) / wall_seconds
                 : 0.0);
  if (!all_latencies.empty()) {
    double sum_us = 0.0;
    for (const uint64_t ns : all_latencies) {
      sum_us += static_cast<double>(ns) / 1e3;
    }
    result.latency_mean_us = sum_us / static_cast<double>(all_latencies.size());
    result.latency_p50_us = PercentileUs(all_latencies, 0.50);
    result.latency_p95_us = PercentileUs(all_latencies, 0.95);
    result.latency_p99_us = PercentileUs(all_latencies, 0.99);
    result.latency_p999_us = PercentileUs(all_latencies, 0.999);
    result.server_latency_p99_us = PercentileUs(server_latencies, 0.99);
  }
  result.mean_batch =
      completed > 0
          ? static_cast<double>(batch_sum) / static_cast<double>(completed)
          : 0.0;
  return result;
}

}  // namespace cews::serve
