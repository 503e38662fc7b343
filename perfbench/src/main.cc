// Repository benchmark program: runs one workload, prints each figure on its
// own line with unit and sample count, and ends with the machine-readable
// result as the last line of standard output:
//
//   {"correct": true, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// run.py builds this binary, pins the OpenMP settings and records the host
// fingerprint before starting it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/logging.h"
#include "common/stopwatch.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n");
  return 2;
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int OpenMpThreads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  if (argc % 2 != 1) return Usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == args.workload;
  }
  if (!known || !(args.seconds > 0.0) || args.work_dir.empty()) {
    return Usage();
  }

  graphrare::SetLogLevel(graphrare::LogLevel::kWarning);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "openmp_threads=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, OpenMpThreads());
  std::fflush(stdout);

  const graphrare::Stopwatch wall;
  perfbench::Report report = perfbench::RunWorkload(args);

  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const auto& [name, m] : report.metrics) {
    std::printf("%s %s = %s %s (n=%lld)%s\n",
                args.trace ? "layer" : "metric", name.c_str(),
                Number(m.value).c_str(), m.unit.c_str(),
                static_cast<long long>(m.count),
                args.trace ? (m.on_path ? " [path]" : " [replay only]") : "");
  }
  std::printf("wall_s = %.3f\n", wall.ElapsedSeconds());

  std::string metrics;
  for (const auto& [name, m] : report.metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      report.correct = false;
      value = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + Number(value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), metrics.c_str());
  return 0;
}
