// E20 — fault injection and degraded-mode serving: what happens to the
// paper's guarantees when the parallel memory system loses modules.
//
// The fault layer (pmtree/fault, DESIGN.md §12) makes degradation a
// deterministic, measurable input: seeded FaultPlans fail-stop a fraction
// of the modules and throttle others transiently, the engines reroute and
// stall accordingly, and the serve front-end retries timed-out attempts
// with capped exponential backoff. Three questions are measured:
//
//   * SLO under module loss: the E19-style request stream against the
//     same COLOR mapping while 0% / 10% / 25% of the modules fail-stop
//     mid-run (plus two transient slowdowns). Reported: p50/p99/p999
//     end-to-end latency, retries, reroutes, stalled module-cycles and
//     simulated throughput. The headline claim — p99 stays *bounded*
//     (degraded, not dead) with 10% of modules failed — is a checked
//     cell, not prose: every request must reach a terminal status and the
//     p99 inflation factor over healthy is printed.
//   * Engine-level cost of degradation: completion-cycle inflation of the
//     cycle engine under the same plans, healthy vs faulted wall-clock,
//     and the DegradedMapping cross-check (a steady-state post-failure
//     run must land every access exactly where the degraded mapping says).
//   * Determinism under faults: the full faulted + retrying pipeline at
//     1/2/8 workers, checked bit-identical row by row against the
//     1-worker oracle.
//
// A BENCH_E20_faults.json report goes to $PMTREE_BENCH_JSON (or the
// working directory). PMTREE_E20_SMOKE=1 shrinks every dimension so the
// ctest perf-smoke label finishes in seconds.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "pmtree/engine/engine.hpp"
#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/combinators.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/json.hpp"
#include "pmtree/util/rng.hpp"

namespace {

using namespace pmtree;
using namespace pmtree::serve;

bool smoke_mode() { return bench::smoke_mode("PMTREE_E20_SMOKE"); }

// Dimensions shared with E19/E22 (bench_common.hpp) so the serving gates
// stay comparable.
std::uint32_t tree_levels() {
  return bench::serve_bench_dims(smoke_mode()).tree_levels;
}
std::uint32_t module_count() {
  return bench::serve_bench_dims(smoke_mode()).modules;
}
std::size_t request_count() {
  return bench::serve_bench_dims(smoke_mode()).requests;
}
int reps() { return bench::serve_bench_dims(smoke_mode()).reps; }

/// The E19 request mix: mostly root-to-leaf path lookups, some sibling
/// pairs, a few short level runs, from `clients` client streams.
std::vector<Request> request_stream(const CompleteBinaryTree& tree,
                                    std::size_t count, std::uint32_t clients,
                                    std::uint64_t gap, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> requests;
  requests.reserve(count);
  std::vector<std::uint64_t> next_seq(clients, 0);
  std::uint64_t clock = 0;
  const std::uint32_t bottom = tree.levels() - 1;
  for (std::size_t i = 0; i < count; ++i) {
    clock += gap == 0 ? 0 : rng.below(2 * gap + 1);  // mean ~= gap
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(clients));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    const std::uint64_t kind = rng.below(10);
    if (kind < 7) {
      Node n = v(rng.below(pow2(bottom)), bottom);
      r.nodes.push_back(n);
      while (n.level > 0) {
        n = parent(n);
        r.nodes.push_back(n);
      }
    } else if (kind < 9) {
      const Node n = v(rng.below(pow2(bottom)) & ~std::uint64_t{1}, bottom);
      r.nodes.push_back(n);
      r.nodes.push_back(sibling(n));
    } else {
      const std::uint32_t level = bottom - 1;
      const std::uint64_t width = rng.between(4, 8);
      const std::uint64_t first = rng.below(pow2(level) - width);
      for (std::uint64_t k = 0; k < width; ++k) {
        r.nodes.push_back(v(first + k, level));
      }
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

/// A fail-`fraction` plan over the bench's module count: failures land in
/// the first quarter of the expected run so most of the stream is served
/// degraded, plus two transient slowdowns.
fault::FaultPlan make_plan(double fraction, std::uint64_t seed) {
  fault::FaultPlan::RandomOptions opts;
  opts.seed = seed;
  opts.modules = module_count();
  opts.fail_fraction = fraction;
  opts.fail_window = 2048;
  opts.slowdown_count = fraction == 0.0 ? 0 : 2;
  opts.slowdown_window = 4096;
  opts.slowdown_max_length = 512;
  opts.slowdown_max_period = 3;
  return fault::FaultPlan::random(opts);
}

ServerOptions serve_options(unsigned workers, std::uint32_t replicas,
                            const fault::FaultPlan* plan) {
  ServerOptions opts;
  opts.tick_cycles = 4;
  opts.replicas = replicas;
  opts.workers = workers;
  opts.admission.queue_bound = 128;
  opts.admission.overflow = OverflowPolicy::kShed;
  opts.batch.max_batch_nodes = 96;
  opts.batch.max_wait_cycles = 8;
  opts.engine.sampling = engine::EngineOptions::DepthSampling::kOff;
  opts.engine.faults = plan;
  // Tight enough that fault-inflated residencies actually retry (healthy
  // residencies sit well under it), loose enough not to thrash.
  opts.retry.max_retries = 2;
  opts.retry.attempt_timeout_cycles = 16;
  opts.retry.backoff_base_cycles = 8;
  opts.retry.backoff_cap_cycles = 128;
  return opts;
}

struct RunOutcome {
  ServeReport report;
  double wall_seconds = 0;
};

/// Warmed median-of-N wall time of run() only (bench_common.hpp); the
/// untimed setup phase constructs/submits so the timed window bills the
/// serve loop alone.
RunOutcome run_server(const TreeMapping& mapping, const ServerOptions& opts,
                      const std::vector<Request>& requests, int repeat) {
  RunOutcome outcome;
  std::unique_ptr<Server> server;
  outcome.wall_seconds = bench::median_wall_seconds(
      /*warmup=*/1, repeat,
      [&] {
        server = std::make_unique<Server>(mapping, opts);
        for (const Request& r : requests) server->submit(r);
        outcome.report = ServeReport{};
      },
      [&] { outcome.report = server->run(); });
  return outcome;
}

std::uint64_t metric_uint(const Json& metrics, const std::string& group,
                          const std::string& field) {
  return metrics.find(group)->find(field)->as_uint();
}

bool same_responses(const ServeReport& a, const ServeReport& b) {
  if (a.responses.size() != b.responses.size()) return false;
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    const Response& x = a.responses[i];
    const Response& y = b.responses[i];
    if (x.client != y.client || x.seq != y.seq || x.status != y.status ||
        x.completion_cycle != y.completion_cycle || x.batch != y.batch ||
        x.retries != y.retries) {
      return false;
    }
  }
  return a.to_json().dump() == b.to_json().dump();
}

/// Degraded SLO sweep: one row per failed-module fraction.
Json sweep_fail_fraction(const ColorMapping& mapping,
                         const CompleteBinaryTree& tree, bool& all_terminal,
                         std::uint64_t& p99_healthy,
                         std::uint64_t& p99_ten_percent) {
  TableWriter table({"failed", "ok", "expired", "retries", "rerouted",
                     "stalled", "p50", "p99", "p999", "terminal"});
  Json rows = Json::array();
  const std::vector<Request> requests =
      request_stream(tree, request_count(), 16, 2, 0xE20);
  for (const double fraction : {0.0, 0.10, 0.25}) {
    const fault::FaultPlan plan = make_plan(fraction, 0xFA);
    const RunOutcome out = run_server(
        mapping, serve_options(1, 1, plan.empty() ? nullptr : &plan),
        requests, reps());
    const Json& m = out.report.metrics;
    const std::uint64_t ok = out.report.count(RequestStatus::kOk);
    const std::uint64_t expired = out.report.count(RequestStatus::kExpired);
    const std::uint64_t shed = out.report.count(RequestStatus::kShed);
    const bool terminal = ok + expired + shed == requests.size();
    all_terminal = all_terminal && terminal;
    const std::uint64_t p99 = metric_uint(m, "latency", "p99");
    if (fraction == 0.0) p99_healthy = p99;
    if (fraction == 0.10) p99_ten_percent = p99;
    const std::uint64_t failed_modules =
        static_cast<std::uint64_t>(fraction * module_count());
    table.row(failed_modules, ok, expired,
              metric_uint(m, "faults", "retries"),
              metric_uint(m, "faults", "rerouted_requests"),
              metric_uint(m, "faults", "stalled_cycles"),
              metric_uint(m, "latency", "p50"), p99,
              metric_uint(m, "latency", "p999"),
              pmtree::bench::pass_cell(terminal));

    Json row = Json::object();
    row.set("fail_fraction", Json(fraction));
    row.set("failed_modules", Json(failed_modules));
    row.set("fault_plan", plan.to_json());
    row.set("requests", Json(requests.size()));
    row.set("ok", Json(ok));
    row.set("expired", Json(expired));
    row.set("shed", Json(shed));
    row.set("all_terminal", Json(terminal));
    row.set("retries", Json(metric_uint(m, "faults", "retries")));
    row.set("rerouted_requests",
            Json(metric_uint(m, "faults", "rerouted_requests")));
    row.set("stalled_cycles", Json(metric_uint(m, "faults", "stalled_cycles")));
    row.set("latency_p50", Json(metric_uint(m, "latency", "p50")));
    row.set("latency_p99", Json(p99));
    row.set("latency_p999", Json(metric_uint(m, "latency", "p999")));
    row.set("rounds", Json(out.report.rounds));
    row.set("final_cycle", Json(out.report.final_cycle));
    rows.push_back(std::move(row));
  }
  pmtree::bench::print_experiment(
      "E20 (degraded serving SLO vs failed modules)",
      "COLOR mapping, M = " + std::to_string(mapping.num_modules()) +
          ", retry budget 2x16cyc, " + std::to_string(request_count()) +
          " requests",
      table);
  return rows;
}

/// Engine-level degradation: completion inflation and the DegradedMapping
/// routing cross-check.
Json engine_degradation(const ColorMapping& mapping,
                        const CompleteBinaryTree& tree, bool& routing_ok) {
  TableWriter table({"failed", "completion cyc", "inflation", "rerouted",
                     "stalled", "wall ms", "routing"});
  Json rows = Json::array();
  const Workload workload =
      Workload::mixed(tree, tree.levels(), smoke_mode() ? 400 : 4000, 0xE20);
  const engine::CycleEngine eng(mapping);
  std::uint64_t healthy_completion = 0;
  for (const double fraction : {0.0, 0.10, 0.25}) {
    // Failures from cycle 0: the whole run is steady-state degraded, so
    // the engine's routing must agree with DegradedMapping exactly.
    fault::FaultPlan plan;
    const fault::FaultTimeline probe(make_plan(fraction, 0xFA),
                                     mapping.num_modules());
    for (const std::uint32_t m : probe.dead_modules()) plan.fail_stop(m, 0);

    engine::EngineOptions opts;
    opts.sampling = engine::EngineOptions::DepthSampling::kOff;
    opts.faults = plan.empty() ? nullptr : &plan;

    engine::EngineResult res;
    const double wall = bench::median_wall_seconds(
        /*warmup=*/1, reps(), [&] {
          res = eng.run(workload, engine::ArrivalSchedule::all_at_once(),
                        opts);
        });
    if (fraction == 0.0) healthy_completion = res.completion_cycle;

    bool routing = true;
    if (!plan.empty()) {
      std::vector<Color> dead(probe.dead_modules().begin(),
                              probe.dead_modules().end());
      const DegradedMapping degraded(mapping, std::move(dead));
      const engine::CycleEngine deng(degraded);
      engine::EngineOptions healthy_opts;
      healthy_opts.sampling = engine::EngineOptions::DepthSampling::kOff;
      const engine::EngineResult want = deng.run(
          workload, engine::ArrivalSchedule::all_at_once(), healthy_opts);
      routing = res.served == want.served &&
                res.completion_cycle == want.completion_cycle;
    }
    routing_ok = routing_ok && routing;

    const double inflation =
        healthy_completion == 0
            ? 0.0
            : static_cast<double>(res.completion_cycle) /
                  static_cast<double>(healthy_completion);
    table.row(probe.dead_modules().size(), res.completion_cycle, inflation,
              res.rerouted_requests, res.stalled_cycles, wall * 1e3,
              pmtree::bench::pass_cell(routing));

    Json row = Json::object();
    row.set("fail_fraction", Json(fraction));
    row.set("failed_modules", Json(probe.dead_modules().size()));
    row.set("completion_cycle", Json(res.completion_cycle));
    row.set("inflation_vs_healthy", Json(inflation));
    row.set("rerouted_requests", Json(res.rerouted_requests));
    row.set("stalled_cycles", Json(res.stalled_cycles));
    row.set("wall_seconds", Json(wall));
    row.set("matches_degraded_mapping", Json(routing));
    rows.push_back(std::move(row));
  }
  pmtree::bench::print_experiment(
      "E20 (engine completion inflation under module loss)",
      "steady-state fail-stop from cycle 0; routing checked against "
      "DegradedMapping",
      table);
  return rows;
}

void run_experiment() {
  const unsigned hw = std::thread::hardware_concurrency();
  const CompleteBinaryTree tree(tree_levels());
  const ColorMapping color = make_optimal_color_mapping(tree, module_count());

  bool all_terminal = true;
  std::uint64_t p99_healthy = 0;
  std::uint64_t p99_ten = 0;
  Json jsweep =
      sweep_fail_fraction(color, tree, all_terminal, p99_healthy, p99_ten);

  bool routing_ok = true;
  Json jengine = engine_degradation(color, tree, routing_ok);

  // Worker scale-out of the full degraded pipeline: faults + retries at
  // 1/2/8 workers, bit-identical to the 1-worker oracle.
  const fault::FaultPlan plan = make_plan(0.10, 0xFA);
  const std::vector<Request> heavy =
      request_stream(tree, request_count(), 16, 0, 0xE20);
  TableWriter wtable({"workers", "wall s", "speedup vs 1w", "bit-identical"});
  Json jworkers = Json::array();
  RunOutcome oracle;
  bool workers_identical = true;
  for (const unsigned workers : {1u, 2u, 8u}) {
    const RunOutcome out =
        run_server(color, serve_options(workers, 8, &plan), heavy, reps());
    if (workers == 1) oracle = out;
    const bool identical = same_responses(out.report, oracle.report);
    workers_identical = workers_identical && identical;
    wtable.row(workers, out.wall_seconds,
               oracle.wall_seconds / out.wall_seconds,
               pmtree::bench::pass_cell(identical));
    Json row = Json::object();
    row.set("workers", Json(static_cast<std::uint64_t>(workers)));
    row.set("wall_seconds", Json(out.wall_seconds));
    row.set("speedup_vs_1w", Json(oracle.wall_seconds / out.wall_seconds));
    row.set("identical", Json(identical));
    jworkers.push_back(std::move(row));
  }
  pmtree::bench::print_experiment(
      "E20 (worker scale-out under faults)",
      "10% modules failed, retries on, 8 replicas (hardware_concurrency = " +
          std::to_string(hw) + ")",
      wtable);

  // The headline claim, as data: p99 with 10% of modules failed is a
  // finite multiple of healthy p99, and nothing was lost.
  const double p99_inflation =
      p99_healthy == 0 ? 0.0
                       : static_cast<double>(p99_ten) /
                             static_cast<double>(p99_healthy);
  std::cout << "E20 headline: p99(10% failed) = " << p99_ten << " cyc, "
            << p99_inflation << "x healthy; all requests terminal: "
            << (all_terminal ? "yes" : "NO") << "\n";

  Json report = Json::object();
  report.set("experiment", Json("E20"));
  report.set("smoke", Json(smoke_mode()));
  report.set("hardware_concurrency", Json(static_cast<std::uint64_t>(hw)));
  report.set("tree_levels", Json(static_cast<std::uint64_t>(tree_levels())));
  report.set("modules", Json(static_cast<std::uint64_t>(module_count())));
  report.set("requests", Json(request_count()));
  report.set("slo_vs_failed_modules", std::move(jsweep));
  report.set("engine_degradation", std::move(jengine));
  report.set("worker_scaleout", std::move(jworkers));
  Json headline = Json::object();
  headline.set("p99_healthy", Json(p99_healthy));
  headline.set("p99_ten_percent_failed", Json(p99_ten));
  headline.set("p99_inflation", Json(p99_inflation));
  headline.set("all_requests_terminal", Json(all_terminal));
  headline.set("routing_matches_degraded_mapping", Json(routing_ok));
  headline.set("workers_bit_identical", Json(workers_identical));
  report.set("headline", std::move(headline));

  bench::write_report("BENCH_E20_faults.json", report);
}

// google-benchmark timings: the cycle engine healthy vs faulted on the
// same workload (the fault path forgoes bulk cycle skipping, so this is
// the price of per-cycle fault evaluation), and the degraded serve
// pipeline end to end.

struct BenchSetup {
  CompleteBinaryTree tree;
  ColorMapping mapping;
  Workload workload;
  fault::FaultPlan plan;
  BenchSetup()
      : tree(smoke_mode() ? 10 : 13),
        mapping(make_optimal_color_mapping(tree, 15)),
        workload(Workload::mixed(tree, tree.levels(), smoke_mode() ? 200 : 1000,
                                 7)),
        plan(make_plan(0.10, 0xFA)) {}
};

void BM_EngineHealthy(benchmark::State& state) {
  const BenchSetup s;
  const engine::CycleEngine eng(s.mapping);
  engine::EngineOptions opts;
  opts.sampling = engine::EngineOptions::DepthSampling::kOff;
  for (auto _ : state) {
    const auto res =
        eng.run(s.workload, engine::ArrivalSchedule::all_at_once(), opts);
    benchmark::DoNotOptimize(res.completion_cycle);
  }
}
BENCHMARK(BM_EngineHealthy);

void BM_EngineFaulted(benchmark::State& state) {
  const BenchSetup s;
  const engine::CycleEngine eng(s.mapping);
  engine::EngineOptions opts;
  opts.sampling = engine::EngineOptions::DepthSampling::kOff;
  opts.faults = &s.plan;
  for (auto _ : state) {
    const auto res =
        eng.run(s.workload, engine::ArrivalSchedule::all_at_once(), opts);
    benchmark::DoNotOptimize(res.completion_cycle);
  }
}
BENCHMARK(BM_EngineFaulted);

void BM_ServeDegraded(benchmark::State& state) {
  const BenchSetup s;
  const std::vector<Request> requests =
      request_stream(s.tree, smoke_mode() ? 300 : 2000, 8, 2, 7);
  const ServerOptions opts = serve_options(
      static_cast<unsigned>(state.range(0)), 8, &s.plan);
  for (auto _ : state) {
    Server server(s.mapping, opts);
    for (const Request& r : requests) server.submit(r);
    const ServeReport report = server.run();
    benchmark::DoNotOptimize(report.final_cycle);
  }
}
BENCHMARK(BM_ServeDegraded)->Arg(1)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
