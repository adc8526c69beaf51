// Benchmark driver: runs one workload and prints a report, then, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics (the end-to-end metrics, or with --trace 1
// the per-layer metrics the workload reached). Exits non-zero on a wrong
// answer.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir DIR]
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR]\n"
               "workloads: update_path query_path city_rush\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::map<std::string, Outcome (*)(const Args&)> workloads = {
      {"update_path", perfbench::run_update_path},
      {"query_path", perfbench::run_query_path},
      {"city_rush", perfbench::run_city_rush},
  };
  Args a;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = value == "1";
      } else if (key == "--trace-dir") {
        a.trace_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  const auto it = workloads.find(a.workload);
  if (argc % 2 == 0 || it == workloads.end() || !(a.seconds > 0)) return usage();
  if (a.trace) {
    std::error_code ec;
    std::filesystem::create_directories(a.trace_dir, ec);
  }

  std::printf("workload %s  seed %llu  nproc %ld  seconds %g  trace %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              sysconf(_SC_NPROCESSORS_ONLN), a.seconds, a.trace ? 1 : 0);
  const Outcome out = it->second(a);
  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
  for (const std::string& e : out.errors) std::fprintf(stderr, "FAIL: %s\n", e.c_str());

  const perfbench::Metrics& shown = a.trace ? out.layers : out.e2e;
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metrics::Entry& e : shown.entries()) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(e.value) ? e.value : 0.0);
    json += (first ? "\"" : ", \"") + e.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + e.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}
