// E18 — engine throughput: the event-driven core vs the seed loop, and
// shard scale-out.
//
// The seed engine (ReferenceEngine, the frozen PR-1 loop) pays O(modules)
// per cycle in deque scans and histogram sampling; the event-driven core
// (DESIGN.md §8) pays O(backlogged modules) per stepped cycle and retires
// whole busy spans in bulk when sampling permits. Two bursty scenarios on
// a height-20 tree bracket the design space:
//
//   * "uniform": mixed template families at roughly balanced module load.
//     Most modules are backlogged during a burst, so O(backlogged) is
//     close to O(modules) and the win is the constant factor of the flat
//     ring queues over deques.
//   * "hot-spot": Zipf-skewed point lookups with a parent-pointer chase —
//     the traffic a real tree index sees (popular keys dominate, every
//     chase ends in the root region). One module's queue runs a hundred
//     deep while the other ~510 sit idle, and the seed loop still scans
//     all of them every cycle of that drain. This is the regime the
//     active worklist and the cycle skip target, and the scenario the
//     >= 5x single-thread acceptance bar is measured on.
//
// Every configuration's trajectory is checked identical to the seed's
// before its row is printed, and the sharded runner rows additionally
// check bit-identity across 1/2/8 worker threads (wall-clock speedup is
// bounded by hardware_concurrency, which the JSON records for 1-core CI
// readers).
//
// A BENCH_E18_engine_throughput.json report goes to $PMTREE_BENCH_JSON
// (or the working directory). PMTREE_E18_SMOKE=1 shrinks every dimension
// so the ctest perf-smoke label finishes in seconds.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "pmtree/engine/engine.hpp"
#include "pmtree/engine/reference.hpp"
#include "pmtree/engine/sharded.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/pms/workload.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/json.hpp"
#include "pmtree/util/rng.hpp"

namespace {

using namespace pmtree;
using engine::ArrivalSchedule;
using engine::CycleEngine;
using engine::EngineOptions;
using engine::EngineResult;
using engine::ReferenceEngine;
using engine::ShardedEngineRunner;
using engine::ShardedOptions;

bool smoke_mode() {
  const char* env = std::getenv("PMTREE_E18_SMOKE");
  return env != nullptr && std::string(env) != "0";
}

// Height-20 tree (21 levels) per the acceptance criteria; smoke shrinks it.
// The module array is production-sized (hundreds of modules): accesses of
// a few dozen nodes back up only a sliver of it, which is exactly the
// asymmetry — O(backlogged) vs O(modules) — the event core exploits.
std::uint32_t tree_levels() { return smoke_mode() ? 15 : 21; }
std::uint32_t module_count() { return smoke_mode() ? 127 : 511; }
std::size_t uniform_access_count() { return smoke_mode() ? 3000 : 30000; }
std::size_t hotspot_access_count() { return smoke_mode() ? 6000 : 60000; }
std::uint64_t access_size() { return smoke_mode() ? 15 : 31; }
int reps() { return smoke_mode() ? 2 : 3; }

/// Zipf-skewed point lookups with a short parent-pointer chase. Each
/// access reads a popular node plus (up to) two ancestors — the classic
/// hot-spot pattern of tree indexes, where a handful of keys absorb most
/// of the traffic and every chase climbs toward the root. Popularity is
/// Zipf(s = 1.25) over the top 2^16 BFS ids (the cached "hot set"); the
/// resulting module load is so skewed that one queue drains for ~a
/// hundred cycles while almost every other module idles.
Workload hotspot_workload(const CompleteBinaryTree& tree, std::size_t count,
                          std::uint64_t seed) {
  const std::uint64_t hot =
      std::min<std::uint64_t>(tree.size(), std::uint64_t{1} << 16);
  std::vector<double> cum(hot);
  double total = 0;
  for (std::uint64_t r = 0; r < hot; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 1.25);
    cum[r] = total;
  }
  Rng rng(seed);
  std::vector<Workload::Access> accesses;
  accesses.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u =
        static_cast<double>(rng.below(std::uint64_t{1} << 53)) /
        static_cast<double>(std::uint64_t{1} << 53) * total;
    const std::uint64_t rank = static_cast<std::uint64_t>(
        std::lower_bound(cum.begin(), cum.end(), u) - cum.begin());
    Node n = node_at(std::min(rank, hot - 1));
    Workload::Access access{n};
    for (int hop = 0; hop < 2 && n.level > 0; ++hop) {
      n = parent(n);
      access.push_back(n);
    }
    accesses.push_back(std::move(access));
  }
  return Workload(std::move(accesses));
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Trajectory equality (everything EngineOptions promises to preserve).
bool same_trajectory(const EngineResult& a, const EngineResult& b) {
  if (a.accesses != b.accesses || a.requests != b.requests ||
      a.completion_cycle != b.completion_cycle ||
      a.busy_cycles != b.busy_cycles || a.served != b.served ||
      a.queue_high_water != b.queue_high_water ||
      a.records.size() != b.records.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    if (a.records[i].arrival != b.records[i].arrival ||
        a.records[i].completion != b.records[i].completion) {
      return false;
    }
  }
  return true;
}

struct Row {
  std::string config;
  double wall_seconds = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t requests = 0;
  bool identical = false;

  [[nodiscard]] double cycles_per_sec() const {
    return static_cast<double>(sim_cycles) / wall_seconds;
  }
  [[nodiscard]] double requests_per_sec() const {
    return static_cast<double>(requests) / wall_seconds;
  }
};

template <typename Run>
Row measure(const std::string& config, const EngineResult* oracle, int repeat,
            Run&& run) {
  Row row;
  row.config = config;
  row.wall_seconds = 1e9;  // best-of-N: shared CI boxes are noisy
  EngineResult last;
  for (int rep = 0; rep < repeat; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    last = run();
    row.wall_seconds = std::min(row.wall_seconds, seconds_since(t0));
  }
  row.sim_cycles = last.completion_cycle;
  row.requests = last.requests;
  row.identical = oracle == nullptr || same_trajectory(last, *oracle);
  return row;
}

/// One scenario: seed vs the event core's three sampling modes, each
/// trajectory-checked against the seed run. Returns the JSON block.
Json run_scenario(const std::string& name, const ColorMapping& mapping,
                  const Workload& workload, const ArrivalSchedule& schedule,
                  std::uint64_t burst, std::uint64_t gap) {
  const ReferenceEngine seed(mapping);
  const CycleEngine eng(mapping);
  const EngineResult oracle = seed.run(workload, schedule);

  EngineOptions full;  // kEveryBusyCycle
  EngineOptions strided;
  strided.sampling = EngineOptions::DepthSampling::kStrided;
  strided.sample_stride = 64;
  EngineOptions off;
  off.sampling = EngineOptions::DepthSampling::kOff;

  std::vector<Row> rows;
  rows.push_back(measure("seed (ReferenceEngine)", nullptr, reps(),
                         [&] { return seed.run(workload, schedule); }));
  rows[0].identical = true;  // the oracle is its own baseline
  rows.push_back(measure("event core, sample every cycle", &oracle, reps(),
                         [&] { return eng.run(workload, schedule, full); }));
  rows.push_back(measure("event core, strided sampling /64", &oracle, reps(),
                         [&] { return eng.run(workload, schedule, strided); }));
  rows.push_back(measure("event core, sampling off", &oracle, reps(),
                         [&] { return eng.run(workload, schedule, off); }));

  const double seed_cps = rows[0].cycles_per_sec();
  TableWriter table({"engine", "wall s", "sim Mcycles/s", "Mreq/s",
                     "speedup vs seed", "trajectory"});
  Json jrows = Json::array();
  for (const Row& r : rows) {
    table.row(r.config, r.wall_seconds, r.cycles_per_sec() / 1e6,
              r.requests_per_sec() / 1e6, r.cycles_per_sec() / seed_cps,
              bench::pass_cell(r.identical));
    Json e = Json::object();
    e.set("config", Json(r.config));
    e.set("wall_seconds", Json(r.wall_seconds));
    e.set("sim_cycles", Json(r.sim_cycles));
    e.set("requests", Json(r.requests));
    e.set("cycles_per_sec", Json(r.cycles_per_sec()));
    e.set("requests_per_sec", Json(r.requests_per_sec()));
    e.set("speedup_vs_seed", Json(r.cycles_per_sec() / seed_cps));
    e.set("trajectory_identical", Json(r.identical));
    jrows.push_back(std::move(e));
  }
  bench::print_experiment(
      "E18 (engine throughput: " + name + ")",
      "bursty(" + std::to_string(burst) + "," + std::to_string(gap) + ") x " +
          std::to_string(workload.size()) + " accesses, height-" +
          std::to_string(tree_levels() - 1) + " tree, M = " +
          std::to_string(mapping.num_modules()),
      table);

  Json scenario = Json::object();
  scenario.set("scenario", Json(name));
  scenario.set("accesses", Json(static_cast<std::uint64_t>(workload.size())));
  scenario.set("schedule", Json(schedule.name()));
  scenario.set("engines", std::move(jrows));
  return scenario;
}

void run_experiment() {
  const unsigned hw = std::thread::hardware_concurrency();
  const CompleteBinaryTree tree(tree_levels());
  const ColorMapping mapping = make_optimal_color_mapping(tree, module_count());
  const std::uint64_t burst = 96;
  const std::uint64_t gap = 128;
  const ArrivalSchedule schedule = ArrivalSchedule::bursty(burst, gap);

  // Scenario 1 — uniform: mixed template families, load spread across the
  // module array. Bounds the constant-factor win when nearly everything
  // is backlogged.
  const Workload uniform =
      Workload::mixed(tree, access_size(), uniform_access_count(), 0xE18);
  Json juniform =
      run_scenario("uniform mixed templates", mapping, uniform, schedule,
                   burst, gap);

  // Scenario 2 — hot-spot: Zipf point lookups + parent chase. Each burst
  // buries a handful of root-region modules and the window drains through
  // a long one-module-active tail, which the seed walks at O(modules) per
  // cycle. The >= 5x acceptance bar applies to "sampling off" here.
  const Workload hotspot =
      hotspot_workload(tree, hotspot_access_count(), 0xE18);
  Json jhotspot = run_scenario("hot-spot Zipf lookups", mapping, hotspot,
                               schedule, burst, gap);

  // Shard scale-out: S independent replicas, the stream round-robined
  // across them, at 1/2/8 worker threads. Requests/sec is the fleet
  // figure of merit; results must be bit-identical at every thread count.
  const std::size_t shards = 8;
  const ShardedEngineRunner runner(mapping);
  ShardedOptions sharded_base;
  sharded_base.shards = shards;
  sharded_base.engine.sampling = EngineOptions::DepthSampling::kOff;

  TableWriter stable({"threads", "wall s", "Mreq/s", "speedup vs 1t",
                      "bit-identical"});
  Json jshard = Json::array();
  double shard_1t = 0;
  EngineResult merged_1t;
  for (const unsigned threads : {1u, 2u, 8u}) {
    ShardedOptions opts = sharded_base;
    opts.threads = threads;
    double wall = 1e9;
    EngineResult merged;
    for (int rep = 0; rep < reps(); ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      merged = runner.run(hotspot, schedule, opts).merged;
      wall = std::min(wall, seconds_since(t0));
    }
    if (threads == 1) {
      shard_1t = wall;
      merged_1t = merged;
    }
    const bool identical = same_trajectory(merged, merged_1t);
    const double rps = static_cast<double>(merged.requests) / wall;
    stable.row(threads, wall, rps / 1e6, shard_1t / wall,
               bench::pass_cell(identical));
    Json e = Json::object();
    e.set("threads", Json(static_cast<std::uint64_t>(threads)));
    e.set("wall_seconds", Json(wall));
    e.set("requests_per_sec", Json(rps));
    e.set("speedup_vs_1t", Json(shard_1t / wall));
    e.set("identical", Json(identical));
    jshard.push_back(std::move(e));
  }
  bench::print_experiment(
      "E18 (sharded runner)",
      std::to_string(shards) + " shards, sampling off, hot-spot workload "
      "(hardware_concurrency = " + std::to_string(hw) + ")",
      stable);

  Json report = Json::object();
  report.set("experiment", Json("E18"));
  report.set("smoke", Json(smoke_mode()));
  report.set("hardware_concurrency", Json(static_cast<std::uint64_t>(hw)));
  report.set("tree_levels", Json(static_cast<std::uint64_t>(tree_levels())));
  report.set("modules",
             Json(static_cast<std::uint64_t>(mapping.num_modules())));
  report.set("target_speedup", Json(5.0));
  Json scenarios = Json::array();
  scenarios.push_back(std::move(juniform));
  scenarios.push_back(std::move(jhotspot));
  report.set("scenarios", std::move(scenarios));
  Json sh = Json::object();
  sh.set("shards", Json(static_cast<std::uint64_t>(shards)));
  sh.set("runs", std::move(jshard));
  sh.set("note",
         Json(std::string("wall-clock speedup is bounded by "
                          "hardware_concurrency; merged results are "
                          "bit-identical at every thread count")));
  report.set("sharded", std::move(sh));

  std::string dir = ".";
  if (const char* env = std::getenv("PMTREE_BENCH_JSON"); env != nullptr) {
    dir = env;
  }
  const std::string path = dir + "/BENCH_E18_engine_throughput.json";
  std::ofstream out(path);
  if (out) {
    out << report.dump(2) << '\n';
    std::cout << "JSON throughput report written to " << path << "\n";
  } else {
    std::cout << "warning: could not write " << path << "\n";
  }
}

// google-benchmark timings on a fixed mid-size configuration.

struct BenchSetup {
  CompleteBinaryTree tree;
  ColorMapping mapping;
  Workload workload;
  ArrivalSchedule schedule;
  BenchSetup()
      : tree(smoke_mode() ? 12 : 16),
        mapping(make_optimal_color_mapping(tree, 31)),
        workload(Workload::mixed(tree, 15, smoke_mode() ? 500 : 4000, 7)),
        schedule(ArrivalSchedule::bursty(64, 16)) {}
};

void BM_SeedEngine(benchmark::State& state) {
  const BenchSetup s;
  const ReferenceEngine eng(s.mapping);
  for (auto _ : state) {
    const EngineResult r = eng.run(s.workload, s.schedule);
    benchmark::DoNotOptimize(r.completion_cycle);
  }
}
BENCHMARK(BM_SeedEngine);

void BM_EventEngine(benchmark::State& state) {
  const BenchSetup s;
  const CycleEngine eng(s.mapping);
  EngineOptions opts;
  opts.sampling = state.range(0) == 0 ? EngineOptions::DepthSampling::kOff
                                      : EngineOptions::DepthSampling::kStrided;
  for (auto _ : state) {
    const EngineResult r = eng.run(s.workload, s.schedule, opts);
    benchmark::DoNotOptimize(r.completion_cycle);
  }
}
BENCHMARK(BM_EventEngine)->Arg(0)->Arg(1);

void BM_ShardedEngine(benchmark::State& state) {
  const BenchSetup s;
  const ShardedEngineRunner runner(s.mapping);
  ShardedOptions opts;
  opts.shards = 8;
  opts.threads = static_cast<unsigned>(state.range(0));
  opts.engine.sampling = EngineOptions::DepthSampling::kOff;
  for (auto _ : state) {
    const auto r = runner.run(s.workload, s.schedule, opts);
    benchmark::DoNotOptimize(r.merged.completion_cycle);
  }
}
BENCHMARK(BM_ShardedEngine)->Arg(1)->Arg(2)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
