// E19 — serving: throughput and tail latency of the pmtree::serve
// front-end under offered load, COLOR vs baseline mappings, and worker
// scale-out.
//
// The serve layer turns the library into a request/response system:
// concurrent clients submit node-set lookups, admission control bounds
// the queue, the dynamic batcher coalesces co-pending requests into
// composite template instances, and every batch is one parallel memory
// access through the cycle engine. Two questions are measured:
//
//   * SLO vs load: sweep the offered load (mean inter-arrival gap) and
//     report p50/p99/p999 end-to-end latency, shed/expired counts and
//     simulated throughput — for the paper's COLOR mapping vs the modulo
//     baseline on the same stream. The mapping's conflict behaviour on
//     the coalesced composites lands directly in the latency columns.
//   * Worker scale-out: the same configuration at 1/2/8 worker threads
//     over 8 replicas. Responses must be bit-identical to the 1-worker
//     oracle (checked row by row); wall-clock throughput is the payoff.
//
// A BENCH_E19_serving.json report goes to $PMTREE_BENCH_JSON (or the
// working directory). PMTREE_E19_SMOKE=1 shrinks every dimension so the
// ctest perf-smoke label finishes in seconds.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/json.hpp"
#include "pmtree/util/rng.hpp"

namespace {

using namespace pmtree;
using namespace pmtree::serve;

bool smoke_mode() { return bench::smoke_mode("PMTREE_E19_SMOKE"); }

// Dimensions shared with E20/E22 (bench_common.hpp) so the serving gates
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

/// The request mix of a tree index front-end: mostly speculative
/// root-to-leaf path lookups (dictionary searches), some sibling-pair
/// reads, a sprinkle of short level scans — all as serve Requests from
/// `clients` client streams at a mean inter-arrival gap of `gap` cycles.
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
      // Root-to-leaf path of a random leaf (a P-template lookup).
      Node n = v(rng.below(pow2(bottom)), bottom);
      r.nodes.push_back(n);
      while (n.level > 0) {
        n = parent(n);
        r.nodes.push_back(n);
      }
    } else if (kind < 9) {
      // A sibling pair near the bottom (heap child comparison).
      const Node n = v(rng.below(pow2(bottom)) & ~std::uint64_t{1}, bottom);
      r.nodes.push_back(n);
      r.nodes.push_back(sibling(n));
    } else {
      // A short level run (range scan fragment).
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

ServerOptions serve_options(unsigned workers, std::uint32_t replicas) {
  ServerOptions opts;
  opts.tick_cycles = 4;
  opts.replicas = replicas;
  opts.workers = workers;
  opts.admission.queue_bound = 128;
  opts.admission.overflow = OverflowPolicy::kShed;
  opts.batch.max_batch_nodes = 96;
  opts.batch.max_wait_cycles = 8;
  opts.engine.sampling = engine::EngineOptions::DepthSampling::kOff;
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

/// SLO-vs-load sweep for one mapping; returns the JSON rows and prints
/// the table section.
Json sweep_load(const TreeMapping& mapping, const std::string& label,
                const CompleteBinaryTree& tree) {
  TableWriter table({"gap cyc", "ok", "shed", "p50", "p99", "p999",
                     "sim req/cyc", "wall Mreq/s"});
  Json rows = Json::array();
  for (const std::uint64_t gap : {std::uint64_t{0}, std::uint64_t{2},
                                  std::uint64_t{8}}) {
    const std::vector<Request> requests =
        request_stream(tree, request_count(), 16, gap, 0xE19 + gap);
    const RunOutcome out =
        run_server(mapping, serve_options(1, 1), requests, reps());
    const Json& m = out.report.metrics;
    const std::uint64_t ok = out.report.count(RequestStatus::kOk);
    const double sim_tput =
        out.report.final_cycle == 0
            ? 0.0
            : static_cast<double>(ok) /
                  static_cast<double>(out.report.final_cycle);
    const double wall_rps =
        static_cast<double>(requests.size()) / out.wall_seconds;
    table.row(gap, ok, metric_uint(m, "counters", "shed"),
              metric_uint(m, "latency", "p50"),
              metric_uint(m, "latency", "p99"),
              metric_uint(m, "latency", "p999"), sim_tput, wall_rps / 1e6);

    Json row = Json::object();
    row.set("gap", Json(gap));
    row.set("requests", Json(requests.size()));
    row.set("ok", Json(ok));
    row.set("shed", Json(out.report.count(RequestStatus::kShed)));
    row.set("expired", Json(out.report.count(RequestStatus::kExpired)));
    row.set("latency_p50", Json(metric_uint(m, "latency", "p50")));
    row.set("latency_p99", Json(metric_uint(m, "latency", "p99")));
    row.set("latency_p999", Json(metric_uint(m, "latency", "p999")));
    row.set("mean_batch_nodes",
            Json(m.find("batches")->find("mean_nodes")->as_number()));
    row.set("coalesced_nodes",
            Json(metric_uint(m, "batches", "coalesced_nodes")));
    row.set("sim_requests_per_cycle", Json(sim_tput));
    row.set("wall_requests_per_sec", Json(wall_rps));
    rows.push_back(std::move(row));
  }
  bench::print_experiment(
      "E19 (serving SLO vs load: " + label + ")",
      std::to_string(request_count()) + " requests, 16 clients, M = " +
          std::to_string(mapping.num_modules()) + ", height-" +
          std::to_string(tree.levels() - 1) + " tree",
      table);
  return rows;
}

bool same_responses(const ServeReport& a, const ServeReport& b) {
  if (a.responses.size() != b.responses.size()) return false;
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    const Response& x = a.responses[i];
    const Response& y = b.responses[i];
    if (x.client != y.client || x.seq != y.seq || x.status != y.status ||
        x.completion_cycle != y.completion_cycle || x.batch != y.batch) {
      return false;
    }
  }
  return a.to_json().dump() == b.to_json().dump();
}

void run_experiment() {
  const unsigned hw = std::thread::hardware_concurrency();
  const CompleteBinaryTree tree(tree_levels());
  const ColorMapping color = make_optimal_color_mapping(tree, module_count());
  const ModuloMapping modulo(tree, module_count());

  Json jcolor = sweep_load(color, "COLOR", tree);
  Json jmodulo = sweep_load(modulo, "modulo baseline", tree);

  // Worker scale-out at the heaviest load, 8 replicas: wall-clock is the
  // only thing allowed to move; every row is checked bit-identical to the
  // 1-worker oracle.
  const std::vector<Request> heavy =
      request_stream(tree, request_count(), 16, 0, 0xE19);
  TableWriter wtable({"workers", "wall s", "wall Mreq/s", "speedup vs 1w",
                      "bit-identical"});
  Json jworkers = Json::array();
  RunOutcome oracle;
  for (const unsigned workers : {1u, 2u, 8u}) {
    const RunOutcome out =
        run_server(color, serve_options(workers, 8), heavy, reps());
    if (workers == 1) oracle = out;
    const bool identical = same_responses(out.report, oracle.report);
    const double rps = static_cast<double>(heavy.size()) / out.wall_seconds;
    wtable.row(workers, out.wall_seconds, rps / 1e6,
               oracle.wall_seconds / out.wall_seconds,
               bench::pass_cell(identical));
    Json row = Json::object();
    row.set("workers", Json(static_cast<std::uint64_t>(workers)));
    row.set("wall_seconds", Json(out.wall_seconds));
    row.set("wall_requests_per_sec", Json(rps));
    row.set("speedup_vs_1w", Json(oracle.wall_seconds / out.wall_seconds));
    row.set("identical", Json(identical));
    jworkers.push_back(std::move(row));
  }
  bench::print_experiment(
      "E19 (worker scale-out)",
      "COLOR mapping, 8 replicas, gap 0 stream (hardware_concurrency = " +
          std::to_string(hw) + ")",
      wtable);

  Json report = Json::object();
  report.set("experiment", Json("E19"));
  report.set("smoke", Json(smoke_mode()));
  report.set("hardware_concurrency", Json(static_cast<std::uint64_t>(hw)));
  report.set("tree_levels", Json(static_cast<std::uint64_t>(tree_levels())));
  report.set("modules", Json(static_cast<std::uint64_t>(module_count())));
  report.set("requests", Json(request_count()));
  Json sweeps = Json::object();
  sweeps.set("color", std::move(jcolor));
  sweeps.set("modulo", std::move(jmodulo));
  report.set("slo_vs_load", std::move(sweeps));
  report.set("worker_scaleout", std::move(jworkers));

  bench::write_report("BENCH_E19_serving.json", report);
}

// google-benchmark timings on a fixed mid-size configuration.

struct BenchSetup {
  CompleteBinaryTree tree;
  ColorMapping mapping;
  std::vector<Request> requests;
  BenchSetup()
      : tree(smoke_mode() ? 10 : 13),
        mapping(make_optimal_color_mapping(tree, 15)),
        requests(request_stream(tree, smoke_mode() ? 300 : 2000, 8, 2, 7)) {}
};

void BM_ServeEndToEnd(benchmark::State& state) {
  const BenchSetup s;
  ServerOptions opts = serve_options(static_cast<unsigned>(state.range(0)),
                                     static_cast<std::uint32_t>(
                                         state.range(0) == 1 ? 1 : 8));
  for (auto _ : state) {
    Server server(s.mapping, opts);
    for (const Request& r : s.requests) server.submit(r);
    const ServeReport report = server.run();
    benchmark::DoNotOptimize(report.final_cycle);
  }
}
BENCHMARK(BM_ServeEndToEnd)->Arg(1)->Arg(2)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
