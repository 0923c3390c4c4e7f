// E16 — the cycle-accurate engine: from closed-form makespans to observed
// queueing trajectories.
//
// For COLOR vs. the baselines, a mixed template workload is driven through
// CycleEngine under batch, fixed-rate and bursty arrivals. The table shows
// what the aggregate models hide: two mappings with similar total rounds
// can differ sharply in queue-depth high-water marks and tail (p95/p99)
// access latency once accesses overlap. The full trajectory snapshot —
// per-module queue high-water marks, latency percentiles, metrics registry
// — is also written as a BENCH_E16_engine.json report (to $PMTREE_BENCH_JSON
// if set, else the working directory), the machine-readable companion of
// this table.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pmtree/engine/engine.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/pms/scheduler.hpp"

namespace {

using namespace pmtree;
using engine::ArrivalSchedule;
using engine::CycleEngine;
using engine::EngineResult;
using engine::MetricsRegistry;

constexpr std::uint32_t kM = 15;
constexpr std::uint32_t kLevels = 14;
constexpr std::size_t kAccesses = 2000;

Workload make_workload(const CompleteBinaryTree& tree) {
  return Workload::mixed(tree, kM, kAccesses, 4242);
}

std::vector<ArrivalSchedule> schedules() {
  return {ArrivalSchedule::all_at_once(), ArrivalSchedule::fixed_rate(1),
          ArrivalSchedule::fixed_rate(4), ArrivalSchedule::bursty(64, 128)};
}

void run_experiment() {
  const CompleteBinaryTree tree(kLevels);
  const ColorMapping color = make_optimal_color_mapping(tree, kM);
  const ModuloMapping naive(tree, kM);
  const RandomMapping random(tree, kM, 7);
  const std::vector<const TreeMapping*> mappings = {&color, &naive, &random};
  const Workload workload = make_workload(tree);

  TableWriter table({"mapping", "arrivals", "cycles", "ideal", "throughput",
                     "q depth max", "lat p50", "lat p95", "lat p99",
                     "lat max"});
  MetricsRegistry registry;
  Json report = Json::object();
  report.set("experiment", Json("E16"));
  report.set("tree_levels", Json(static_cast<std::uint64_t>(kLevels)));
  report.set("modules", Json(static_cast<std::uint64_t>(kM)));
  report.set("accesses", Json(static_cast<std::uint64_t>(workload.size())));
  Json runs = Json::array();

  for (const TreeMapping* mapping : mappings) {
    const std::uint64_t ideal =
        BatchScheduler(*mapping).schedule(workload).ideal;
    for (const ArrivalSchedule& schedule : schedules()) {
      const std::string prefix = mapping->name() + "/" + schedule.name();
      const CycleEngine eng(*mapping, &registry, prefix);
      const EngineResult r = eng.run(workload, schedule);
      table.row(mapping->name(), schedule.name(), r.completion_cycle, ideal,
                r.throughput(), r.max_queue_depth(), r.latency.p50(),
                r.latency.p95(), r.latency.p99(), r.latency.max());

      Json entry = Json::object();
      entry.set("mapping", Json(mapping->name()));
      entry.set("arrivals", Json(schedule.name()));
      entry.set("ideal_makespan", Json(ideal));
      entry.set("trajectory", r.to_json());
      runs.push_back(std::move(entry));
    }
  }
  report.set("runs", std::move(runs));
  report.set("metrics", registry.to_json());

  bench::print_experiment(
      "E16 (engine: queueing trajectories)",
      "cycle-accurate drain of " + std::to_string(workload.size()) +
          " mixed accesses, COLOR vs baselines, M = " + std::to_string(kM),
      table);

  bench::write_report("BENCH_E16_engine.json", report);
}

void BM_EngineBatchDrain(benchmark::State& state) {
  const CompleteBinaryTree tree(kLevels);
  const ColorMapping map = make_optimal_color_mapping(tree, kM);
  const Workload workload = make_workload(tree);
  const CycleEngine eng(map);
  for (auto _ : state) {
    const EngineResult r = eng.run(workload, ArrivalSchedule::all_at_once());
    benchmark::DoNotOptimize(r.completion_cycle);
  }
}
BENCHMARK(BM_EngineBatchDrain);

void BM_EngineBurstyDrain(benchmark::State& state) {
  const CompleteBinaryTree tree(kLevels);
  const ModuloMapping map(tree, kM);
  const Workload workload = make_workload(tree);
  const CycleEngine eng(map);
  for (auto _ : state) {
    const EngineResult r = eng.run(workload, ArrivalSchedule::bursty(64, 128));
    benchmark::DoNotOptimize(r.completion_cycle);
  }
}
BENCHMARK(BM_EngineBurstyDrain);

void BM_HistogramRecord(benchmark::State& state) {
  engine::Histogram h;
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = (v * 2862933555777941757ULL + 3037000493ULL) >> 40;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

}  // namespace

int main(int argc, char** argv) {
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
