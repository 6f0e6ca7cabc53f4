#include "obs/stats_reporter.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/check.h"
#include "common/log.h"
#include "common/stopwatch.h"

namespace cews::obs {

namespace {

/// "8123.4" -> "8.1k" style for step rates; plain for small numbers.
std::string FmtRate(double v) {
  char buf[32];
  if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fM", v * 1e-6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v * 1e-3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  }
  return buf;
}

}  // namespace

StatsReporter::StatsReporter(double period_seconds)
    : period_seconds_(period_seconds) {
  CEWS_CHECK_GT(period_seconds_, 0.0);
  thread_ = std::thread([this]() { Loop(); });
}

StatsReporter::~StatsReporter() { Stop(); }

void StatsReporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::string StatsReporter::FormatHeartbeat(const MetricsSnapshot& prev,
                                           const MetricsSnapshot& cur,
                                           double dt_seconds) {
  const double dt = dt_seconds > 0.0 ? dt_seconds : 1.0;
  std::string line = "heartbeat:";
  char buf[96];

  const uint64_t episodes =
      cur.CounterValue("train.episodes") - prev.CounterValue("train.episodes");
  std::snprintf(buf, sizeof(buf), " %s ep/s",
                FmtRate(static_cast<double>(episodes) / dt).c_str());
  line += buf;

  const uint64_t steps =
      cur.CounterValue("env.steps") - prev.CounterValue("env.steps");
  std::snprintf(buf, sizeof(buf), " | %s steps/s",
                FmtRate(static_cast<double>(steps) / dt).c_str());
  line += buf;

  if (cur.FindGauge("train.loss") != nullptr) {
    std::snprintf(buf, sizeof(buf), " | loss %.4g",
                  cur.GaugeValue("train.loss"));
    line += buf;
  }
  if (cur.FindGauge("train.kappa") != nullptr) {
    std::snprintf(buf, sizeof(buf), " | kappa %.3f xi %.3f rho %.3f",
                  cur.GaugeValue("train.kappa"), cur.GaugeValue("train.xi"),
                  cur.GaugeValue("train.rho"));
    line += buf;
  }

  // Serving fleet: request/shed rates plus the deepest shard queue, so a
  // heartbeat shows back-pressure building before sheds start. Gated on the
  // serve.requests counter existing — training-only runs keep the old line.
  if (cur.FindCounter("serve.requests") != nullptr) {
    const uint64_t requests =
        cur.CounterValue("serve.requests") - prev.CounterValue("serve.requests");
    const uint64_t sheds = cur.CounterValue("serve.fleet.shed_total") -
                           prev.CounterValue("serve.fleet.shed_total");
    double max_depth = 0.0;
    for (const GaugeSnapshot& g : cur.gauges) {
      // serve.shard.N.queue_depth.
      const std::string suffix = "queue_depth";
      if (g.name.size() >= suffix.size() && g.name.rfind("serve.", 0) == 0 &&
          g.name.compare(g.name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
        max_depth = std::max(max_depth, g.value);
      }
    }
    std::snprintf(buf, sizeof(buf), " | serve %s req/s %s shed/s qmax %d",
                  FmtRate(static_cast<double>(requests) / dt).c_str(),
                  FmtRate(static_cast<double>(sheds) / dt).c_str(),
                  static_cast<int>(max_depth));
    line += buf;
  }

  // Distributed trainer (dist/trainer.h): iteration and transport byte
  // rates plus the publish gate's accept/reject tally. Gated on the
  // dist.iterations counter existing — non-distributed runs keep the old
  // line.
  if (cur.FindCounter("dist.iterations") != nullptr) {
    const uint64_t iters = cur.CounterValue("dist.iterations") -
                           prev.CounterValue("dist.iterations");
    const uint64_t tx = cur.CounterValue("dist.bytes_tx") -
                        prev.CounterValue("dist.bytes_tx");
    const uint64_t rx = cur.CounterValue("dist.bytes_rx") -
                        prev.CounterValue("dist.bytes_rx");
    std::snprintf(buf, sizeof(buf),
                  " | dist %s it/s tx %sB/s rx %sB/s pub %llu/%llu",
                  FmtRate(static_cast<double>(iters) / dt).c_str(),
                  FmtRate(static_cast<double>(tx) / dt).c_str(),
                  FmtRate(static_cast<double>(rx) / dt).c_str(),
                  static_cast<unsigned long long>(
                      cur.CounterValue("dist.publish.accepted")),
                  static_cast<unsigned long long>(
                      cur.CounterValue("dist.publish.rejected")));
    line += buf;
  }

  // Pool utilization: lane-busy nanoseconds per wall-second per lane.
  const double pool_threads = cur.GaugeValue("threadpool.threads");
  if (pool_threads > 0.0) {
    const uint64_t busy = cur.CounterValue("threadpool.busy_ns") -
                          prev.CounterValue("threadpool.busy_ns");
    const double frac =
        static_cast<double>(busy) / (dt * 1e9 * pool_threads);
    std::snprintf(buf, sizeof(buf), " | pool %d thr %.0f%% busy",
                  static_cast<int>(pool_threads), frac * 100.0);
    line += buf;
  }
  return line;
}

void StatsReporter::Loop() {
  MetricsSnapshot prev = SnapshotMetrics();
  Stopwatch watch;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    const bool stopping = cv_.wait_for(
        lock, std::chrono::duration<double>(period_seconds_),
        [this]() { return stop_; });
    const double dt = watch.ElapsedSeconds();
    watch.Restart();
    MetricsSnapshot cur = SnapshotMetrics();
    CEWS_LOG(Info) << FormatHeartbeat(prev, cur, dt);
    prev = std::move(cur);
    if (stopping) return;
  }
}

}  // namespace cews::obs
