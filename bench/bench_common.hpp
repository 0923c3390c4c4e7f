// Shared helpers for the pmtree benchmark harness.
//
// Each bench binary regenerates one experiment of EXPERIMENTS.md: it
// prints the experiment's result table(s) once at startup (so plain
// `./bench_*` output contains the paper-shaped tables) and registers
// google-benchmark timings where runtime is the measured quantity.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "pmtree/util/json.hpp"
#include "pmtree/util/table.hpp"

namespace pmtree::bench {

/// Prints a banner + table to stdout, once, before google-benchmark runs.
/// If the environment variable PMTREE_BENCH_CSV names a directory, the
/// table is additionally written there as <experiment-id>.csv so plots
/// can be regenerated without parsing the text tables.
inline void print_experiment(const std::string& id, const std::string& claim,
                             const TableWriter& table) {
  std::cout << "\n=== " << id << " — " << claim << " ===\n";
  table.print(std::cout);
  std::cout << std::endl;

  if (const char* dir = std::getenv("PMTREE_BENCH_CSV"); dir != nullptr) {
    std::string file;
    for (const char c : id) {
      file += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    }
    std::string path(dir);
    if (!path.empty() && path.back() != '/') path += '/';
    path += file + ".csv";
    std::ofstream out(path);
    if (out) {
      table.print_csv(out);
    } else {
      std::cerr << "pmtree-bench: cannot write " << path
                << " (PMTREE_BENCH_CSV=" << dir
                << " — does the directory exist?)\n";
    }
  }
}

/// Writes an experiment's JSON report as `file` (e.g.
/// "BENCH_E16_engine.json") into the directory PMTREE_BENCH_JSON names —
/// it must exist — or the working directory, and prints where; an
/// unwritable path prints a warning instead.
inline void write_report(const std::string& file, const Json& report) {
  const char* dir = std::getenv("PMTREE_BENCH_JSON");
  const std::string path = std::string(dir != nullptr ? dir : ".") + "/" + file;
  std::ofstream out(path);
  if (out) {
    out << report.dump(2) << '\n';
    std::cout << "JSON report written to " << path << "\n";
  } else {
    std::cout << "warning: could not write " << path << "\n";
  }
}

/// "0" / "<=1" style verdict cell.
inline std::string pass_cell(bool ok) { return ok ? "PASS" : "FAIL"; }

/// True when the experiment's smoke toggle (e.g. "PMTREE_E19_SMOKE") is
/// set to anything but "0" — the perf-smoke ctest entries run each bench
/// in reduced dimensions through this one switch.
inline bool smoke_mode(const char* env_var) {
  const char* env = std::getenv(env_var);
  return env != nullptr && std::string(env) != "0";
}

/// True median of a non-empty sample: odd N takes the middle element of
/// the sorted sample; even N averages the two middles. `sorted[n / 2]`
/// alone is the UPPER middle for even N — a systematic high bias that
/// skews A/B ratios whenever the two sides' jitter tails differ.
inline double median_of(std::vector<double> sample) {
  std::sort(sample.begin(), sample.end());
  const std::size_t n = sample.size();
  if (n % 2 == 1) return sample[n / 2];
  return (sample[n / 2 - 1] + sample[n / 2]) / 2.0;
}

/// Warmed, median-of-N wall-clock measurement for the comparison tables
/// (E19/E22/E23 ratios on a noisy shared 1-CPU host). `warmup` untimed
/// runs of `body` populate caches/allocators/thread pools, then `trials`
/// timed runs are taken and the MEDIAN wall-seconds returned — the
/// best-of-N idiom the serving benches used before is biased low under
/// scheduler jitter, which inflates A/B ratios when A and B are hit
/// unevenly; the median is the standard robust estimator here. `trials`
/// of 0 behaves as 1.
/// The `setup` callback runs UNTIMED before every body invocation
/// (warmup included) — the place for request submission and for tearing
/// down the previous trial's buffers, so the timed window bills the
/// measured call alone.
template <typename Setup, typename Fn>
inline double median_wall_seconds(int warmup, int trials, Setup&& setup,
                                  Fn&& body) {
  using Clock = std::chrono::steady_clock;
  for (int i = 0; i < warmup; ++i) {
    setup();
    body();
  }
  std::vector<double> wall;
  wall.reserve(static_cast<std::size_t>(std::max(trials, 1)));
  for (int i = 0; i < std::max(trials, 1); ++i) {
    setup();
    const Clock::time_point start = Clock::now();
    body();
    wall.push_back(std::chrono::duration<double>(Clock::now() - start)
                       .count());
  }
  return median_of(std::move(wall));
}

template <typename Fn>
inline double median_wall_seconds(int warmup, int trials, Fn&& body) {
  return median_wall_seconds(warmup, trials, [] {}, std::forward<Fn>(body));
}

/// The smoke-vs-full dimensions shared by the single-tree serving benches
/// (E19 faults-free, E20 faulted, E22 pipeline): one place to retune the
/// perf-smoke footprint for all of them, so the gates stay comparable.
struct ServeBenchDims {
  std::uint32_t tree_levels;
  std::uint32_t modules;
  std::size_t requests;
  int reps;  ///< timed trials per warmed median-of-N measurement
             ///< (median_wall_seconds; CI boxes are noisy)
};

inline ServeBenchDims serve_bench_dims(bool smoke) {
  return smoke ? ServeBenchDims{12, 15, 2000, 2}
               : ServeBenchDims{16, 31, 20000, 7};
}

/// E21's multi-tenant variant: shallower trees, per-tenant request
/// counts.
inline ServeBenchDims forest_bench_dims(bool smoke) {
  return smoke ? ServeBenchDims{10, 15, 600, 2}
               : ServeBenchDims{13, 31, 6000, 3};
}

}  // namespace pmtree::bench
