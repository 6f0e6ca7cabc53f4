#include "bench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

std::string Format(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_span_id{1};

struct ThreadSpans {
  int tid = 0;
  std::vector<Span> spans;
  std::vector<uint64_t> open;  ///< Ids of the spans open on this thread.
};

std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // Guarded by g_threads_mu.

ThreadSpans& LocalSpans() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    local = g_threads.back().get();
    local->tid = static_cast<int>(g_threads.size());
    local->spans.reserve(1 << 16);
  }
  return *local;
}

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name, int lane) {
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  ThreadSpans& local = LocalSpans();
  active_ = true;
  span_.name = name;
  span_.lane = lane;
  span_.tid = local.tid;
  span_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = local.open.empty() ? 0 : local.open.back();
  local.open.push_back(span_.id);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  ThreadSpans& local = LocalSpans();
  local.open.pop_back();
  local.spans.push_back(span_);
}

std::vector<Span> TakeSpans() {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  std::vector<Span> all;
  for (const std::unique_ptr<ThreadSpans>& t : g_threads) {
    all.insert(all.end(), t->spans.begin(), t->spans.end());
    t->spans.clear();
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  const uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  const size_t n = std::min(spans.size(), kMaxWrittenSpans);
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"lane\":%d}}%s\n",
                  s.name, s.tid, static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.lane,
                  i + 1 < n ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::map<std::string, SpanStats> AggregateSpans(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    child_ms[it->second] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  }
  std::map<std::string, SpanStats> stats;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    SpanStats& st = stats[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    const double self = dur - child_ms[i];
    ++st.calls;
    st.durations_ms.push_back(dur);
    (s.lane == kChief ? st.self_ms_chief : st.self_ms_ranks) += self;
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Statistics and host
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return times;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  uint64_t fields[8] = {};
  for (uint64_t& f : fields) {
    if (!(in >> f)) return times;
  }
  for (const uint64_t f : fields) times.total += f;
  times.steal = fields[7];
  times.ok = true;
  return times;
}

double StealShare(const CpuTimes& before, const CpuTimes& after) {
  if (!before.ok || !after.ok || after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

uint64_t Digest(const std::vector<float>& values) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (size_t i = 0; i < values.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool AllFinite(const std::vector<float>& values) {
  for (const float v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void PrintLayerTable(const std::string& title,
                     const std::vector<LayerRow>& rows) {
  std::printf("%s\n", title.c_str());
  std::printf("  %-24s %9s %14s %12s %8s  %s\n", "layer", "calls/op",
              "per call", "self ms/op", "share", "note");
  for (const LayerRow& row : rows) {
    std::printf("  %-24s %9.2f %11.4f %-2s %12.4f %7.1f%%  %s\n",
                row.name.c_str(), row.calls_per_op, row.per_call,
                row.unit.c_str(), row.self_ms_per_op, 100.0 * row.share,
                row.note.c_str());
  }
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"p50_ms", "ms"},
      {"p90_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"dist.rollout_ms", "ms"},       {"dist.learn_ms", "ms"},
      {"dist.merge_ms", "ms"},         {"dist.params_ms", "ms"},
      {"dist.codec_ms", "ms"},         {"dist.bytes_per_iter", "bytes"},
      {"env.step_us", "us"},           {"env.encode_us", "us"},
      {"nn.act_forward_us", "us"},     {"nn.ppo_update_ms", "ms"},
      {"nn.curiosity_update_ms", "ms"}, {"serve.submit_us", "us"},
      {"serve.server_ms", "ms"},       {"serve.batch_mean", "count"},
      {"serve.publish_ms", "ms"},      {"env.client_us", "us"},
      {"nn.fp32_forward_us", "us"},    {"nn.int8_forward_us", "us"},
      {"unattributed_ms", "ms"},       {"host.steal_share", "share"},
  };
  return specs;
}

void Report::Fail(const std::string& why) {
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(why);
}

void Report::FailCheck(const std::string& why) {
  correct_ = false;
  if (failures_.size() < 8) failures_.push_back(why);
}

int Report::Finish(const Options& options) const {
  const std::vector<MetricSpec>& specs =
      options.trace ? LayerMetrics() : EndToEndMetrics();
  const std::map<std::string, double>& values = options.trace ? layer_ : e2e_;
  bool finite = true;
  std::string json_metrics;
  std::printf("%s metrics:\n", options.trace ? "per-layer" : "end-to-end");
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    double value = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      finite = false;
      value = 0.0;
    }
    std::printf("  %-24s %16.6f %-6s%s\n", spec.name, value, spec.unit,
                it == values.end() ? " (not exercised by this workload)" : "");
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += Format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                           spec.name, value, spec.unit);
  }
  const bool ok = correct() && finite && attempted_ > 0;
  for (const std::string& why : failures_) {
    std::printf("FAILED: %s\n", why.c_str());
  }
  if (!finite) std::printf("FAILED: a metric is not finite\n");
  std::printf("attempted=%lld failed=%lld correct=%s\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_), ok ? "true" : "false");
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      ok ? "true" : "false", static_cast<long long>(attempted_),
      static_cast<long long>(failed_), json_metrics.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace perfbench
