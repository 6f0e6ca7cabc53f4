#include "obs/slo.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/table.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/rolling_histogram.h"

namespace cews::obs {

namespace {

/// The latency source: the fleet-wide rolling histogram, or nullptr before
/// a fleet has been created. Resolved per evaluation because the histogram
/// is minted lazily by the first shard.
RollingHistogram* FindLatencySource() {
  for (RollingHistogram* hist : AllRollingHistograms()) {
    if (hist->name() == "serve.fleet.latency") return hist;
  }
  return nullptr;
}

double PercentileFor(SloKind kind) {
  switch (kind) {
    case SloKind::kP50: return 0.50;
    case SloKind::kP99: return 0.99;
    case SloKind::kP999: return 0.999;
    case SloKind::kShedRatio: break;
  }
  return 0.0;
}

/// "slo.p99.10s" / "slo.shed" — the stable stem for per-target gauges.
std::string GaugeStem(const SloTarget& target) {
  std::string stem = "slo.";
  stem += SloKindName(target.kind);
  if (target.kind != SloKind::kShedRatio) {
    stem += '.';
    stem += std::to_string(target.window_seconds);
    stem += 's';
  }
  return stem;
}

}  // namespace

const char* SloKindName(SloKind kind) {
  switch (kind) {
    case SloKind::kP50: return "p50";
    case SloKind::kP99: return "p99";
    case SloKind::kP999: return "p999";
    case SloKind::kShedRatio: return "shed";
  }
  return "unknown";
}

std::string SloTarget::Describe() const {
  char buf[64];
  if (kind == SloKind::kShedRatio) {
    std::snprintf(buf, sizeof(buf), "shed<%.4g", threshold);
  } else {
    std::snprintf(buf, sizeof(buf), "%s<%.6gus@%ds", SloKindName(kind),
                  threshold, window_seconds);
  }
  return buf;
}

Result<std::vector<SloTarget>> ParseSloTargets(const std::string& spec) {
  std::vector<SloTarget> targets;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string clause = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (clause.empty()) {
      if (spec.empty()) break;
      return Status::InvalidArgument("empty SLO clause in '" + spec + "'");
    }
    const size_t lt = clause.find('<');
    if (lt == std::string::npos) {
      return Status::InvalidArgument("SLO clause '" + clause +
                                     "' has no '<' (want e.g. p99<5000)");
    }
    const std::string kind_token = clause.substr(0, lt);
    SloTarget target;
    if (kind_token == "p50") {
      target.kind = SloKind::kP50;
    } else if (kind_token == "p99") {
      target.kind = SloKind::kP99;
    } else if (kind_token == "p999") {
      target.kind = SloKind::kP999;
    } else if (kind_token == "shed") {
      target.kind = SloKind::kShedRatio;
    } else {
      return Status::InvalidArgument(
          "unknown SLO kind '" + kind_token +
          "' (want p50, p99, p999, or shed)");
    }
    std::string value_token = clause.substr(lt + 1);
    const size_t at = value_token.find('@');
    if (at != std::string::npos) {
      if (target.kind == SloKind::kShedRatio) {
        return Status::InvalidArgument(
            "shed targets take no @window (clause '" + clause +
            "'): their window is the evaluation period");
      }
      const std::string window_token = value_token.substr(at + 1);
      char* end = nullptr;
      const long window = std::strtol(window_token.c_str(), &end, 10);
      if (end == window_token.c_str() || *end != '\0' || window < 1 ||
          window > kMaxWindowSeconds) {
        return Status::InvalidArgument(
            "bad SLO window '" + window_token + "' (want 1.." +
            std::to_string(kMaxWindowSeconds) + " seconds)");
      }
      target.window_seconds = static_cast<int>(window);
      value_token.resize(at);
    }
    char* end = nullptr;
    target.threshold = std::strtod(value_token.c_str(), &end);
    if (end == value_token.c_str() || *end != '\0' ||
        target.threshold <= 0.0) {
      return Status::InvalidArgument("bad SLO threshold '" + value_token +
                                     "' in clause '" + clause + "'");
    }
    if (target.kind == SloKind::kShedRatio && target.threshold > 1.0) {
      return Status::InvalidArgument(
          "shed threshold is a ratio in (0, 1], got '" + value_token + "'");
    }
    targets.push_back(target);
  }
  if (targets.empty()) {
    return Status::InvalidArgument("SLO spec '" + spec +
                                   "' contains no targets");
  }
  return targets;
}

SloMonitor::SloMonitor(std::vector<SloTarget> targets)
    : targets_(std::move(targets)), states_(targets_.size()) {}

std::vector<SloStatus> SloMonitor::Evaluate(uint64_t now_ns) {
  static Counter* const breaches = GetCounter("slo.breaches");
  std::vector<SloStatus> statuses;
  statuses.reserve(targets_.size());

  // Shed-ratio inputs are shared across targets: read the counters once.
  // serve.requests counts accepted submits; serve.fleet.shed_total counts
  // sheds from every shard, so attempted = accepted + shed.
  const MetricsSnapshot snap = SnapshotMetrics();
  const uint64_t shed = snap.CounterValue("serve.fleet.shed_total");
  const uint64_t accepted = snap.CounterValue("serve.requests");
  const uint64_t dshed = have_prev_counters_ ? shed - prev_shed_ : 0;
  const uint64_t daccepted =
      have_prev_counters_ ? accepted - prev_accepted_ : 0;
  const bool have_shed_window = have_prev_counters_ && dshed + daccepted > 0;
  const double shed_ratio =
      have_shed_window ? static_cast<double>(dshed) /
                             static_cast<double>(dshed + daccepted)
                       : 0.0;
  prev_shed_ = shed;
  prev_accepted_ = accepted;
  have_prev_counters_ = true;

  RollingHistogram* const latency = FindLatencySource();

  for (size_t i = 0; i < targets_.size(); ++i) {
    const SloTarget& target = targets_[i];
    TargetState& state = states_[i];
    SloStatus status;
    status.target = target;

    if (target.kind == SloKind::kShedRatio) {
      status.measured = have_shed_window;
      status.value = shed_ratio;
    } else if (latency != nullptr) {
      const HistogramSnapshot window =
          latency->Window(target.window_seconds, now_ns);
      if (window.count > 0) {
        status.measured = true;
        status.value =
            static_cast<double>(window.Percentile(PercentileFor(
                target.kind))) /
            1e3;  // latency histograms record nanoseconds; SLOs are in us
      }
    }
    status.breached = status.measured && status.value >= target.threshold;

    state.history_bits =
        (state.history_bits << 1 | (status.breached ? 1u : 0u)) &
        ((1u << kBurnWindowEvals) - 1);
    if (state.history_len < kBurnWindowEvals) ++state.history_len;
    status.burn_rate =
        static_cast<double>(std::popcount(state.history_bits)) /
        static_cast<double>(state.history_len);

    if (status.breached != state.last_breached) {
      // Transition, not level: a sustained breach is one event, so a bad
      // minute cannot flood the flight-recorder ring.
      const std::string desc = target.Describe();
      const double scale =
          target.kind == SloKind::kShedRatio ? 1e6 : 1.0;  // ppm vs us
      FlightRecorder::Global().Record(
          status.breached ? FlightEventKind::kSloBreach
                          : FlightEventKind::kSloRecover,
          desc.c_str(), static_cast<int64_t>(status.value * scale),
          static_cast<int64_t>(target.threshold * scale));
      if (status.breached) breaches->Increment();
      state.last_breached = status.breached;
    }

    const std::string stem = GaugeStem(target);
    GetGauge(stem + ".value")->Set(status.value);
    GetGauge(stem + ".burn")->Set(status.burn_rate);

    statuses.push_back(std::move(status));
  }
  return statuses;
}

std::string SloMonitor::FormatTable(
    const std::vector<SloStatus>& statuses) {
  Table table({"target", "value", "threshold", "burn", "status"});
  for (const SloStatus& status : statuses) {
    const bool ratio = status.target.kind == SloKind::kShedRatio;
    table.AddRow({status.target.Describe(),
                  status.measured
                      ? Table::Fmt(status.value, ratio ? 4 : 1)
                      : "-",
                  Table::Fmt(status.target.threshold, ratio ? 4 : 1),
                  Table::Fmt(status.burn_rate, 2),
                  !status.measured ? "NO DATA"
                  : status.breached ? "BREACH"
                                    : "OK"});
  }
  return table.ToString();
}

}  // namespace cews::obs
