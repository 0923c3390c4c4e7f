// E17 — retrieval and evaluation throughput: the batch kernels vs the
// scalar paths.
//
// Section 3.2 of the paper prices retrieval per node: O(H) with no
// preprocessing, O(H/(N-k)) with the block table, O(1) with the full
// table. The batch kernel (color_of_batch) changes the accounting: the
// top-of-tree colors and the per-block Gamma resolutions are paid once per
// batch instead of once per node, so even the no-preprocessing
// configuration retrieves at near-gather speed. This bench measures
// colors/second, scalar vs batch, for COLOR under kLazy and kBlockTable
// and for the eager full-table mapping, on a height-24 tree (25 levels —
// too tall for a full table, so the amortization is doing real work), and
// then times the parallel family evaluators at 1/2/8 threads, checking
// the results stay bit-identical while they scale.
//
// Wall-clock threading speedups are physically bounded by the host's
// cores; the JSON report records hardware_concurrency so a 1-core CI
// reading ~1.0x is interpretable. A BENCH_E17_throughput.json report goes
// to $PMTREE_BENCH_JSON (or the working directory). PMTREE_E17_SMOKE=1
// shrinks every dimension so the ctest perf-smoke label finishes in
// seconds.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "pmtree/analysis/cost.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/json.hpp"
#include "pmtree/util/rng.hpp"

namespace {

using namespace pmtree;

bool smoke_mode() {
  const char* env = std::getenv("PMTREE_E17_SMOKE");
  return env != nullptr && std::string(env) != "0";
}

std::uint32_t deep_levels() { return smoke_mode() ? 18 : 25; }
std::uint32_t eval_levels() { return smoke_mode() ? 14 : 20; }
std::size_t probe_nodes() { return smoke_mode() ? (1u << 16) : (1u << 20); }

std::vector<Node> random_nodes(const CompleteBinaryTree& tree,
                               std::size_t count) {
  Rng rng(20250805);
  std::vector<Node> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Uniform over bfs ids: roughly half the probes land on the deepest
    // level, like a leaf-heavy workload would.
    out.push_back(node_at(rng.below(tree.size())));
  }
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct RetrievalRow {
  std::string config;
  double scalar_cps = 0;  // colors per second, one color_of per node
  double batch_cps = 0;   // colors per second, one color_of_batch call
  bool identical = false;
};

RetrievalRow measure_retrieval(const TreeMapping& mapping,
                               const std::string& config,
                               const std::vector<Node>& nodes) {
  RetrievalRow row;
  row.config = config;

  std::vector<Color> scalar(nodes.size());
  std::vector<Color> batch(nodes.size());

  // Warm both paths (builds ColorMapping's lazy accelerator outside the
  // timed region — one-off cost, amortized over the mapping's lifetime).
  mapping.color_of_batch(nodes, batch);

  auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    scalar[i] = mapping.color_of(nodes[i]);
  }
  const double scalar_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  mapping.color_of_batch(nodes, batch);
  const double batch_s = seconds_since(t0);

  row.scalar_cps = static_cast<double>(nodes.size()) / scalar_s;
  row.batch_cps = static_cast<double>(nodes.size()) / batch_s;
  row.identical = scalar == batch;
  return row;
}

struct EvalRow {
  unsigned threads = 1;
  double wall_seconds = 0;
  bool identical = true;
};

void run_experiment() {
  const unsigned hw = std::thread::hardware_concurrency();
  const CompleteBinaryTree deep(deep_levels());
  const std::vector<Node> nodes = random_nodes(deep, probe_nodes());

  // N = 6, k = 3: stride 3, so a bottom-of-tree chase crosses ~8 block
  // generations — the deep-chase regime the batch kernel targets.
  const ColorMapping lazy(deep, 6, 3, internal::GammaVariant::kCorrect,
                          ColorMapping::Retrieval::kLazy);
  const ColorMapping table(deep, 6, 3, internal::GammaVariant::kCorrect,
                           ColorMapping::Retrieval::kBlockTable);
  // The eager full table needs O(2^H) space, so it gets a shallower tree
  // (the paper's trade-off, not a bench artifact).
  const std::uint32_t eager_levels = smoke_mode() ? 16 : 21;
  const CompleteBinaryTree eager_tree(eager_levels);
  const ColorMapping eager_base(eager_tree, 6, 3);
  const EagerColorMapping eager(eager_base);
  const std::vector<Node> eager_nodes =
      random_nodes(eager_tree, probe_nodes());

  std::vector<RetrievalRow> rows;
  rows.push_back(measure_retrieval(lazy, "COLOR kLazy", nodes));
  rows.push_back(measure_retrieval(table, "COLOR kBlockTable", nodes));
  rows.push_back(measure_retrieval(eager, "Eager full table", eager_nodes));

  const double scalar_lazy_cps = rows[0].scalar_cps;
  TableWriter rtable({"config", "tree levels", "scalar col/s", "batch col/s",
                      "batch vs scalar", "batch vs scalar-kLazy", "agree"});
  Json jrows = Json::array();
  for (const RetrievalRow& r : rows) {
    const std::uint32_t lv =
        r.config.rfind("Eager", 0) == 0 ? eager_levels : deep_levels();
    rtable.row(r.config, lv, static_cast<std::uint64_t>(r.scalar_cps),
               static_cast<std::uint64_t>(r.batch_cps),
               r.batch_cps / r.scalar_cps, r.batch_cps / scalar_lazy_cps,
               bench::pass_cell(r.identical));
    Json e = Json::object();
    e.set("config", Json(r.config));
    e.set("tree_levels", Json(static_cast<std::uint64_t>(lv)));
    e.set("scalar_colors_per_sec", Json(r.scalar_cps));
    e.set("batch_colors_per_sec", Json(r.batch_cps));
    e.set("batch_vs_scalar", Json(r.batch_cps / r.scalar_cps));
    e.set("batch_vs_scalar_klazy", Json(r.batch_cps / scalar_lazy_cps));
    e.set("identical", Json(r.identical));
    jrows.push_back(std::move(e));
  }
  bench::print_experiment(
      "E17 (throughput: batch kernels)",
      "colors/sec scalar vs batch, height-" +
          std::to_string(deep_levels() - 1) + " tree, " +
          std::to_string(nodes.size()) + " probes",
      rtable);

  // Parallel evaluator scaling: same family, 1/2/8 threads, identical
  // results required.
  const CompleteBinaryTree etree(eval_levels());
  const ColorMapping emap(etree, 6, 3);
  const std::uint64_t K = 7;
  const FamilyCost base = evaluate_subtrees(emap, K, EvalOptions{1, 0});

  TableWriter etable(
      {"threads", "wall s", "speedup vs 1t", "bit-identical"});
  Json jevals = Json::array();
  double base_s = 0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    EvalRow row;
    row.threads = threads;
    // Best of 3: evaluator wall times on shared CI boxes are noisy.
    row.wall_seconds = 1e9;
    FamilyCost got;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      got = evaluate_subtrees(emap, K, EvalOptions{threads, 0});
      row.wall_seconds = std::min(row.wall_seconds, seconds_since(t0));
    }
    row.identical = got.max_conflicts == base.max_conflicts &&
                    got.mean_conflicts == base.mean_conflicts &&
                    got.instances == base.instances &&
                    got.witness == base.witness;
    if (threads == 1) base_s = row.wall_seconds;
    etable.row(row.threads, row.wall_seconds, base_s / row.wall_seconds,
               bench::pass_cell(row.identical));
    Json e = Json::object();
    e.set("threads", Json(static_cast<std::uint64_t>(row.threads)));
    e.set("wall_seconds", Json(row.wall_seconds));
    e.set("speedup_vs_1t", Json(base_s / row.wall_seconds));
    e.set("identical", Json(row.identical));
    jevals.push_back(std::move(e));
  }
  bench::print_experiment(
      "E17 (parallel evaluators)",
      "evaluate_subtrees on " + std::to_string(eval_levels()) +
          "-level tree, K = " + std::to_string(K) +
          " (hardware_concurrency = " + std::to_string(hw) + ")",
      etable);

  Json report = Json::object();
  report.set("experiment", Json("E17"));
  report.set("smoke", Json(smoke_mode()));
  report.set("hardware_concurrency", Json(static_cast<std::uint64_t>(hw)));
  report.set("deep_tree_levels",
             Json(static_cast<std::uint64_t>(deep_levels())));
  report.set("probe_nodes", Json(static_cast<std::uint64_t>(nodes.size())));
  report.set("retrieval", std::move(jrows));
  Json ev = Json::object();
  ev.set("tree_levels", Json(static_cast<std::uint64_t>(eval_levels())));
  ev.set("family", Json(std::string("subtrees")));
  ev.set("K", Json(K));
  ev.set("runs", std::move(jevals));
  ev.set("note",
         Json(std::string("wall-clock speedup is bounded by "
                          "hardware_concurrency; results are bit-identical "
                          "at every thread count by construction")));
  report.set("evaluator", std::move(ev));

  std::string dir = ".";
  if (const char* env = std::getenv("PMTREE_BENCH_JSON"); env != nullptr) {
    dir = env;
  }
  const std::string path = dir + "/BENCH_E17_throughput.json";
  std::ofstream out(path);
  if (out) {
    out << report.dump(2) << '\n';
    std::cout << "JSON throughput report written to " << path << "\n";
  } else {
    std::cout << "warning: could not write " << path << "\n";
  }
}

void BM_BatchColorLazy(benchmark::State& state) {
  const CompleteBinaryTree tree(deep_levels());
  const ColorMapping mapping(tree, 6, 3);
  const std::vector<Node> nodes = random_nodes(tree, 1u << 14);
  std::vector<Color> out(nodes.size());
  mapping.color_of_batch(nodes, out);  // warm the accelerator
  for (auto _ : state) {
    mapping.color_of_batch(nodes, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes.size()));
}
BENCHMARK(BM_BatchColorLazy);

void BM_ScalarColorLazy(benchmark::State& state) {
  const CompleteBinaryTree tree(deep_levels());
  const ColorMapping mapping(tree, 6, 3);
  const std::vector<Node> nodes = random_nodes(tree, 1u << 14);
  for (auto _ : state) {
    Color sink = 0;
    for (const Node& n : nodes) sink ^= mapping.color_of(n);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes.size()));
}
BENCHMARK(BM_ScalarColorLazy);

void BM_EvaluateSubtreesParallel(benchmark::State& state) {
  const CompleteBinaryTree tree(smoke_mode() ? 12 : 16);
  const ColorMapping mapping(tree, 6, 3);
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const FamilyCost fc =
        evaluate_subtrees(mapping, 7, EvalOptions{threads, 0});
    benchmark::DoNotOptimize(fc.max_conflicts);
  }
}
BENCHMARK(BM_EvaluateSubtreesParallel)->Arg(1)->Arg(2)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
