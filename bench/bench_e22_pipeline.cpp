// E22 — staged serve pipeline: wall-clock throughput of the PALM-style
// StagedRunner (DESIGN.md §14) against the frozen single-threaded tick
// loop, plus the SIMD batch kernels it rides on.
//
// E19 measured the classic serve loop; its recorded full-size run is this
// experiment's baseline. Three questions are measured:
//
//   * Pipeline vs oracle: the E19 SLO-vs-load stream (COLOR mapping,
//     gap 0/2/8) served by the oracle (pipeline.workers == 0) and by the
//     staged pipeline at 1/2/8 workers. Responses are self-checked
//     bit-identical to the oracle on every row — the speedup must come
//     from doing less work per batch (packed coalesce sort, session
//     replay instead of per-round workload rebuilds, SIMD color gather +
//     conflict histogram), never from changing results.
//   * The acceptance gate: on the serving-dominated gap-2 row, the
//     8-worker pipeline must clear 3x the RECORDED E19 single-threaded
//     wall req/s (672,406 req/s, BENCH_E19_serving.json) in full
//     dimensions. The smoke slice checks bit-identity and prints
//     speedups vs the locally measured oracle instead (its dimensions
//     don't match the recorded baseline's).
//   * Kernel microbenches: the AVX2 gather and conflict-histogram kernels
//     against their scalar twins on serving-shaped batch sizes.
//
// Stage attribution (control/resolve/execute/drain/barrier nanoseconds,
// batches in flight) is read back from the report's "pipeline" metrics
// section — the same counters ServeMetrics exports.
//
// A BENCH_E22_pipeline.json report goes to $PMTREE_BENCH_JSON (or the
// working directory). PMTREE_E22_SMOKE=1 shrinks every dimension so the
// ctest perf-smoke label finishes in seconds.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/json.hpp"
#include "pmtree/util/rng.hpp"
#include "pmtree/util/simd.hpp"

namespace {

using namespace pmtree;
using namespace pmtree::serve;

/// The recorded full-size E19 gap-2 COLOR row (BENCH_E19_serving.json):
/// the single-threaded control-plane wall req/s this pipeline must beat
/// 3x at 8 workers. The gap-0 row is shed-dominated and the worker-
/// scale-out row measures replica execution, so gap 2 — 100% served,
/// batching and engine both hot — is the honest serving baseline.
constexpr double kRecordedE19Gap2Rps = 672406.0;

bool smoke_mode() { return bench::smoke_mode("PMTREE_E22_SMOKE"); }

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

/// The E19 request mix, reproduced exactly (same generator, same seeds):
/// mostly root-to-leaf path lookups, some sibling pairs, a few short
/// level runs.
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

/// E19's serving configuration with the pipeline dialed in on top.
ServerOptions serve_options(unsigned pipeline_workers) {
  ServerOptions opts;
  opts.tick_cycles = 4;
  opts.replicas = 1;
  opts.workers = 1;
  opts.admission.queue_bound = 128;
  opts.admission.overflow = OverflowPolicy::kShed;
  opts.batch.max_batch_nodes = 96;
  opts.batch.max_wait_cycles = 8;
  opts.engine.sampling = engine::EngineOptions::DepthSampling::kOff;
  opts.pipeline.workers = pipeline_workers;
  return opts;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct RunOutcome {
  ServeReport report;
  double wall_seconds = 0;
};

/// Warmed median-of-N wall time of run() only; the server (and its warm
/// runner, when pipelined) is constructed once and reused, mirroring a
/// long-lived serving process. The untimed setup phase submits the
/// requests and tears the previous rep's report down — move-assigning
/// into it inside the window would bill run() for freeing thousands of
/// last-rep batch/response buffers.
RunOutcome run_server(const TreeMapping& mapping, const ServerOptions& opts,
                      const std::vector<Request>& requests, int repeat) {
  RunOutcome outcome;
  Server server(mapping, opts);
  outcome.wall_seconds = bench::median_wall_seconds(
      /*warmup=*/1, repeat,
      [&] {
        for (const Request& r : requests) server.submit(r);
        outcome.report = ServeReport{};
      },
      [&] { outcome.report = server.run(); });
  return outcome;
}

/// Bit-identity of everything deterministic: responses row-for-row, then
/// the whole report minus the pipelined run's wall-time stage section.
bool same_responses(const ServeReport& got, const ServeReport& oracle) {
  if (got.responses.size() != oracle.responses.size()) return false;
  for (std::size_t i = 0; i < got.responses.size(); ++i) {
    const Response& x = got.responses[i];
    const Response& y = oracle.responses[i];
    if (x.client != y.client || x.seq != y.seq || x.status != y.status ||
        x.completion_cycle != y.completion_cycle || x.batch != y.batch ||
        x.dispatch_cycle != y.dispatch_cycle || x.retries != y.retries) {
      return false;
    }
  }
  if (got.batches.size() != oracle.batches.size()) return false;
  if (got.final_cycle != oracle.final_cycle) return false;
  for (const auto& [key, value] : oracle.metrics.members()) {
    const Json* other = got.metrics.find(key);
    if (other == nullptr || other->dump() != value.dump()) return false;
  }
  return true;
}

Json stage_json(const ServeReport& report) {
  const Json* p = report.metrics.find("pipeline");
  return p == nullptr ? Json() : *p;
}

void run_experiment() {
  const CompleteBinaryTree tree(tree_levels());
  const ColorMapping color = make_optimal_color_mapping(tree, module_count());

  Json jgaps = Json::array();
  bool all_identical = true;
  bool gate_pass = true;
  double gap2_rps_8w = 0;

  // Gap 2 runs first, and within a gap the deepest pipeline runs before
  // the oracle: the acceptance gate reads the gap-2 8-worker wall time,
  // and on a single-core box even a warmed median-of-N is only honest
  // while the process hasn't yet heated the machine with the other
  // configurations.
  for (const std::uint64_t gap : {std::uint64_t{2}, std::uint64_t{0},
                                  std::uint64_t{8}}) {
    const std::vector<Request> requests =
        request_stream(tree, request_count(), 16, gap, 0xE19 + gap);
    TableWriter table({"pipeline", "wall s", "wall Mreq/s", "speedup",
                       "vs E19 rec", "bit-identical"});
    const std::array<unsigned, 3> worker_cfgs{1u, 2u, 8u};
    std::array<RunOutcome, 3> outs;
    for (int i = 2; i >= 0; --i) {
      outs[static_cast<std::size_t>(i)] = run_server(
          color, serve_options(worker_cfgs[static_cast<std::size_t>(i)]),
          requests, reps());
    }
    const RunOutcome oracle =
        run_server(color, serve_options(0), requests, reps());
    const double oracle_rps =
        static_cast<double>(requests.size()) / oracle.wall_seconds;
    table.row("oracle", oracle.wall_seconds, oracle_rps / 1e6, 1.0,
              smoke_mode() ? 0.0 : oracle_rps / kRecordedE19Gap2Rps,
              bench::pass_cell(true));

    Json jrows = Json::array();
    Json jstages = Json::object();
    for (std::size_t i = 0; i < worker_cfgs.size(); ++i) {
      const unsigned workers = worker_cfgs[i];
      const RunOutcome& out = outs[i];
      const bool identical = same_responses(out.report, oracle.report);
      all_identical = all_identical && identical;
      const double rps =
          static_cast<double>(requests.size()) / out.wall_seconds;
      table.row(std::to_string(workers) + "w", out.wall_seconds, rps / 1e6,
                oracle.wall_seconds / out.wall_seconds,
                smoke_mode() ? 0.0 : rps / kRecordedE19Gap2Rps,
                bench::pass_cell(identical));
      if (gap == 2 && workers == 8) gap2_rps_8w = rps;

      Json row = Json::object();
      row.set("pipeline_workers", Json(static_cast<std::uint64_t>(workers)));
      row.set("wall_seconds", Json(out.wall_seconds));
      row.set("wall_requests_per_sec", Json(rps));
      row.set("speedup_vs_oracle", Json(oracle.wall_seconds /
                                        out.wall_seconds));
      row.set("identical", Json(identical));
      jrows.push_back(std::move(row));
      jstages.set(std::to_string(workers) + "w", stage_json(out.report));
    }
    bench::print_experiment(
        "E22 (staged pipeline vs oracle: gap " + std::to_string(gap) + ")",
        std::to_string(request_count()) + " requests, 16 clients, COLOR M=" +
            std::to_string(module_count()) + ", height-" +
            std::to_string(tree.levels() - 1) +
            " tree; oracle = single-threaded tick loop",
        table);

    Json jgap = Json::object();
    jgap.set("gap", Json(gap));
    jgap.set("oracle_wall_seconds", Json(oracle.wall_seconds));
    jgap.set("oracle_requests_per_sec", Json(oracle_rps));
    jgap.set("pipeline", std::move(jrows));
    jgap.set("stage_attribution", std::move(jstages));
    jgaps.push_back(std::move(jgap));
  }

  // The acceptance gate (full dimensions only — smoke dimensions don't
  // match the recorded baseline's).
  TableWriter gate({"metric", "value", "target", "verdict"});
  if (!smoke_mode()) {
    const double ratio = gap2_rps_8w / kRecordedE19Gap2Rps;
    gate_pass = ratio >= 3.0;
    gate.row("gap-2 8w req/s vs recorded E19", ratio, ">= 3.0",
             bench::pass_cell(gate_pass));
  } else {
    gate.row("gap-2 8w req/s vs recorded E19", "n/a (smoke dims)", ">= 3.0",
             "SKIP");
  }
  gate.row("all rows bit-identical to oracle", all_identical ? 1 : 0, "1",
           bench::pass_cell(all_identical));
  bench::print_experiment(
      "E22 (acceptance)",
      "recorded E19 gap-2 baseline = " +
          std::to_string(static_cast<std::uint64_t>(kRecordedE19Gap2Rps)) +
          " req/s (BENCH_E19_serving.json); simd kernel = " +
          simd::active_kernel(),
      gate);

  // Kernel microbenches: serving-shaped sizes (a big batch's node count).
  const std::size_t kN = 4096;
  Rng rng(0xE22);
  std::vector<std::uint32_t> table_(pow2(12));
  for (std::uint32_t& t : table_) t = static_cast<std::uint32_t>(rng());
  std::vector<std::uint32_t> idx(kN), out(kN), colors(kN),
      counts(module_count());
  for (std::size_t i = 0; i < kN; ++i) {
    idx[i] = static_cast<std::uint32_t>(rng.below(table_.size()));
    colors[i] = static_cast<std::uint32_t>(rng.below(module_count()));
  }
  const auto time_loop = [&](auto&& fn) {
    const int iters = smoke_mode() ? 200 : 2000;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    return seconds_since(t0) / iters;
  };
  const double gather_simd = time_loop(
      [&] { simd::gather_u32(table_.data(), idx.data(), kN, out.data()); });
  const double hist_simd = time_loop([&] {
    simd::conflict_histogram(colors.data(), kN, counts.data(),
                             module_count());
  });
  simd::force_scalar_for_testing(true);
  const double gather_scalar = time_loop(
      [&] { simd::gather_u32(table_.data(), idx.data(), kN, out.data()); });
  const double hist_scalar = time_loop([&] {
    simd::conflict_histogram(colors.data(), kN, counts.data(),
                             module_count());
  });
  simd::force_scalar_for_testing(false);
  TableWriter ktable({"kernel", "dispatched ns/elem", "scalar ns/elem",
                      "speedup"});
  ktable.row("gather_u32", gather_simd / kN * 1e9, gather_scalar / kN * 1e9,
             gather_scalar / gather_simd);
  ktable.row("conflict_histogram", hist_simd / kN * 1e9,
             hist_scalar / kN * 1e9, hist_scalar / hist_simd);
  bench::print_experiment(
      "E22 (SIMD kernels)",
      "n = " + std::to_string(kN) + ", M = " +
          std::to_string(module_count()) + ", kernel = " +
          simd::active_kernel(),
      ktable);

  Json report = Json::object();
  report.set("experiment", Json("E22"));
  report.set("smoke", Json(smoke_mode()));
  report.set("simd_kernel", Json(std::string(simd::active_kernel())));
  report.set("tree_levels", Json(static_cast<std::uint64_t>(tree_levels())));
  report.set("modules", Json(static_cast<std::uint64_t>(module_count())));
  report.set("requests", Json(request_count()));
  report.set("recorded_e19_gap2_rps", Json(kRecordedE19Gap2Rps));
  report.set("gaps", std::move(jgaps));
  report.set("all_identical", Json(all_identical));
  report.set("gate_pass", Json(gate_pass));
  Json kernels = Json::object();
  kernels.set("gather_ns_per_elem", Json(gather_simd / kN * 1e9));
  kernels.set("gather_scalar_ns_per_elem", Json(gather_scalar / kN * 1e9));
  kernels.set("histogram_ns_per_elem", Json(hist_simd / kN * 1e9));
  kernels.set("histogram_scalar_ns_per_elem",
              Json(hist_scalar / kN * 1e9));
  report.set("kernels", std::move(kernels));

  bench::write_report("BENCH_E22_pipeline.json", report);

  if (!all_identical) {
    std::cout << "ERROR: pipelined responses diverged from the oracle\n";
    std::exit(1);
  }
}

// google-benchmark timings: end-to-end serve at each pipeline setting.

struct BenchSetup {
  CompleteBinaryTree tree;
  ColorMapping mapping;
  std::vector<Request> requests;
  BenchSetup()
      : tree(smoke_mode() ? 10 : 13),
        mapping(make_optimal_color_mapping(tree, 15)),
        requests(request_stream(tree, smoke_mode() ? 300 : 2000, 8, 2, 7)) {}
};

void BM_PipelineEndToEnd(benchmark::State& state) {
  const BenchSetup s;
  Server server(s.mapping,
                serve_options(static_cast<unsigned>(state.range(0))));
  for (auto _ : state) {
    for (const Request& r : s.requests) server.submit(r);
    const ServeReport report = server.run();
    benchmark::DoNotOptimize(report.final_cycle);
  }
}
BENCHMARK(BM_PipelineEndToEnd)->Arg(0)->Arg(1)->Arg(2)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
