// perfbench: the repository benchmark. One process runs one workload:
//
//   perfbench --workload <train_paper|train_dist|serve_control|serve_fleet>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny 1] [--perturb-reference 1]
//
// --trace 0 measures the end-to-end metrics; --trace 1 additionally replays
// the workload with benchmark-side spans around every call into a layer and
// reports the per-layer metrics. The last stdout line is the JSON verdict.
// See README.md in this directory.
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train_paper|train_dist|serve_control|serve_fleet> --seed N "
               "--seconds S --trace 0|1 [--tiny 1] [--perturb-reference 1]\n",
               why);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  *out = v;
  return true;
}

bool MakeDirs(const std::string& path) {
  std::string prefix;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!prefix.empty() && mkdir(prefix.c_str(), 0755) != 0 &&
          errno != EEXIST) {
        return false;
      }
    }
    if (i < path.size()) prefix += path[i];
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &n)) return Usage("--seed must be an integer");
      options.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 120.0) {
        return Usage("--seconds must be in (0, 120]");
      }
      have_seconds = true;
    } else if (flag == "--trace" || flag == "--tiny" ||
               flag == "--perturb-reference") {
      if (!ParseUint(value, &n) || n > 1) {
        return Usage((flag + " must be 0 or 1").c_str());
      }
      if (flag == "--trace") options.trace = n == 1;
      if (flag == "--tiny") options.tiny = n == 1;
      if (flag == "--perturb-reference") options.perturb_reference = n == 1;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    return Usage("--workload, --seed and --seconds are required");
  }
  using Workload = void (*)(const perfbench::Options&, perfbench::Report*);
  Workload run = nullptr;
  if (options.workload == "train_paper") run = perfbench::RunTrainPaper;
  if (options.workload == "train_dist") run = perfbench::RunTrainDist;
  if (options.workload == "serve_control") run = perfbench::RunServeControl;
  if (options.workload == "serve_fleet") run = perfbench::RunServeFleet;
  if (run == nullptr) {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (!MakeDirs(options.out_dir)) {
    return Usage(("cannot create " + options.out_dir).c_str());
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.tiny ? " tiny" : "",
              options.perturb_reference ? " perturb-reference" : "");
  std::fflush(stdout);

  perfbench::Report report;
  const perfbench::CpuTimes cpu_before = perfbench::ReadCpuTimes();
  run(options, &report);
  const perfbench::CpuTimes cpu_after = perfbench::ReadCpuTimes();
  const double steal = perfbench::StealShare(cpu_before, cpu_after);
  report.SetLayer("host.steal_share", steal);
  std::printf("host.steal_share %.4f (hypervisor steal over the whole run%s)\n",
              steal, cpu_before.ok ? "" : ", /proc/stat unavailable");
  return report.Finish(options);
}
