// Shared infrastructure of the perfbench workloads: options, the
// benchmark-side span recorder, statistics, the host-noise meter, digests
// and the result report (human-readable table + the one-line JSON verdict).
//
// Spans are recorded by the benchmark around its own calls into the
// repository's layers (env, nn, agents, dist, serve, core); nothing inside
// the program is instrumented. With tracing off a ScopedSpan costs one
// relaxed atomic load.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Self-test sizes (small maps, short horizons, few iterations).
  bool tiny = false;
  /// Self-test: corrupt the reference side of every correctness check, so
  /// the run must report correct=false and exit non-zero.
  bool perturb_reference = false;
  /// Where spans and the socket of the dist workload go (inside the
  /// checkout; ignored by git).
  const std::string out_dir = ".bench_build/perfbench-out";
};

uint64_t NowNs();
double SecondsSince(uint64_t start_ns);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Lane of a span: kChief for work on the critical path of every op, or the
/// employee rank for work that ranks do in parallel in the real run.
inline constexpr int kChief = -1;

struct Span {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root.
  int lane = kChief;
  int tid = 0;
};

void SetTracing(bool on);

/// Records [construction, destruction) as one span when tracing is on. The
/// enclosing ScopedSpan on the same thread is the parent.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int lane = kChief);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool active_ = false;
};

/// Moves every thread's recorded spans out (threads must have stopped
/// recording).
std::vector<Span> TakeSpans();

/// Chrome trace_event JSON ("X" events; parent and lane as args) of the
/// first kMaxWrittenSpans spans (a 30 s serving load records ~10^6; the
/// per-layer numbers always use all of them).
inline constexpr size_t kMaxWrittenSpans = 200000;
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

/// Per-name aggregate of a span set.
struct SpanStats {
  int64_t calls = 0;
  std::vector<double> durations_ms;  ///< One per call.
  double self_ms_chief = 0.0;        ///< Self time on the chief lane.
  double self_ms_ranks = 0.0;        ///< Self time on employee lanes.
};
std::map<std::string, SpanStats> AggregateSpans(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Statistics and host
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Aggregate CPU jiffies from /proc/stat (steal and total).
struct CpuTimes {
  bool ok = false;
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();
/// Share of CPU time the hypervisor stole between two readings (0 when the
/// readings are unavailable).
double StealShare(const CpuTimes& before, const CpuTimes& after);

/// FNV-1a over the bytes of a float array: identical parameters, identical
/// digest.
uint64_t Digest(const std::vector<float>& values);
bool AllFinite(const std::vector<float>& values);

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run prints, in BENCHMARK.json
/// order.
const std::vector<MetricSpec>& EndToEndMetrics();
/// The per-layer metrics every traced run prints, in BENCHMARK.json order.
/// A layer a workload does not exercise reads 0.
const std::vector<MetricSpec>& LayerMetrics();

class Report {
 public:
  /// Counts one failed operation (an error, a shed, a mismatch) and records
  /// why; the first few reasons are printed.
  void Fail(const std::string& why);
  /// Marks the run incorrect without an operation (a failed global check).
  void FailCheck(const std::string& why);
  void AddAttempted(int64_t n) { attempted_ += n; }

  void SetE2e(const std::string& name, double value) { e2e_[name] = value; }
  void SetLayer(const std::string& name, double value) { layer_[name] = value; }

  bool correct() const { return correct_ && failed_ == 0; }

  /// Prints the metric table, the verdict, and as the very last line the
  /// JSON object {correct, attempted, failed, metrics}. Returns the process
  /// exit code.
  int Finish(const Options& options) const;

 private:
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layer_;
};

/// One row of the traced run's per-layer table.
struct LayerRow {
  std::string name;            ///< Per-layer metric (or span) name.
  double calls_per_op = 0.0;   ///< Calls per end-to-end op.
  double per_call = 0.0;       ///< Median per call, in `unit`.
  std::string unit;
  double self_ms_per_op = 0.0; ///< Critical-path self time per op.
  double share = 0.0;          ///< self_ms_per_op / end-to-end p50_ms.
  std::string note;
};
void PrintLayerTable(const std::string& title,
                     const std::vector<LayerRow>& rows);

/// printf into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Workloads (train.cc, serve.cc).
void RunTrainPaper(const Options& options, Report* report);
void RunTrainDist(const Options& options, Report* report);
void RunServeControl(const Options& options, Report* report);
void RunServeFleet(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
