// perfbench command line:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
// Prints a details line (host record, sample counts, tail percentiles,
// gate verdicts) and, last, the result object. Exits 1 when a correctness
// gate failed; the result then reports correct=false and no metrics.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "perfbench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <read-dense|sparse-rw|"
               "tenants-dram> --seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

std::string number(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the heap, as a long-lived server process would:
  // each trial then reuses the previous trial's pages instead of paying
  // the kernel to fault in and zero fresh ones, which is host noise.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
    } else {
      usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      usage("bad value for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) {
    known = known || w == options.workload;
  }
  if (!known) usage("unknown workload " + options.workload);
  if (!(options.seconds >= 0)) usage("--seconds must be >= 0");

  const perfbench::Outcome outcome = perfbench::run(options);
  std::cout << outcome.details << "\n";
  for (const std::string& e : outcome.errors) {
    std::cerr << "perfbench: gate failed: " << e << "\n";
  }

  const auto& catalog = options.trace ? perfbench::per_layer_metrics()
                                      : perfbench::end_to_end_metrics();
  std::string metrics = "{";
  if (outcome.correct) {
    for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
      if (i != 0) metrics += ", ";
      metrics += "\"" + outcome.metrics[i].first + "\": {\"value\": " +
                 number(outcome.metrics[i].second) + ", \"unit\": \"" +
                 catalog[i].unit + "\"}";
    }
  }
  metrics += "}";
  std::cout << "{\"correct\": " << (outcome.correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed
            << ", \"metrics\": " << metrics << "}" << std::endl;
  return outcome.correct ? 0 : 1;
}
