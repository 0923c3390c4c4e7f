// E24 — dynamic trees: mixed read/write serve throughput over pmtree::dyn
// (DESIGN.md §16) against two bookends sharing the same machinery:
//
//   read-only   — the same request stream with every write demoted to a
//                 read: what the static serving stack (E19) charges for
//                 this traffic, i.e. the ceiling mutation support must
//                 approach.
//   incremental — the real mixed stream; writes apply at the PALM batch
//                 barrier and the IncrementalColorer lazily extends the
//                 COLOR assignment to whatever the barrier touched.
//   strawman    — same mixed stream, but every writing batch invalidates
//                 the whole coloring (recolor_from_scratch): the full
//                 rebuild-per-epoch baseline the incremental scheme
//                 replaces. Colors are coordinate-pure, so the strawman is
//                 bit-identical in every observable — only the work
//                 differs, which is exactly what the wall clock measures
//                 (the colorer's own counters are zeroed by each reset, so
//                 wall time is the honest cross-mode comparison).
//
// The exit-code gate covers ONLY deterministic invariants so the
// perf-smoke ctest entry cannot flake under scheduler noise:
//   * mixed responses + mutation log bit-identical at 1/2/8 workers
//     (full metrics included) and under the staged pipeline at 1/2
//     workers (responses + mutations + final tree state; pipeline metric
//     sections carry wall-clock stage attribution),
//   * the strawman bit-identical to the incremental run,
//   * final live-set colors bit-identical to a from-scratch ColorMapping
//     over the same envelope (the differential oracle at bench scale),
//   * the stream actually wrote (applied mutations > 0).
// The wall-clock ratios are printed, recorded in BENCH_E24_dyn.json, and
// judged in EXPERIMENTS.md from a quiet-box full run. PMTREE_E24_SMOKE=1
// shrinks every dimension.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pmtree/dyn/dynamic_tree.hpp"
#include "pmtree/dyn/incremental.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/json.hpp"
#include "pmtree/util/rng.hpp"

namespace {

using namespace pmtree;
using namespace pmtree::serve;

bool smoke_mode() { return bench::smoke_mode("PMTREE_E24_SMOKE"); }

std::uint32_t tree_levels() {
  return bench::serve_bench_dims(smoke_mode()).tree_levels;
}
/// COLOR(N, k=2) has N + 1 modules; match the serving dims' module count.
std::uint32_t color_n() {
  return bench::serve_bench_dims(smoke_mode()).modules - 1;
}
constexpr std::uint32_t kColorK = 2;
std::size_t request_count() {
  return bench::serve_bench_dims(smoke_mode()).requests;
}
int reps() { return bench::serve_bench_dims(smoke_mode()).reps; }

/// Writes live in the shallow band of the envelope (the region a growing
/// tree actually occupies); reads are full root-to-leaf envelope paths.
constexpr std::uint32_t kWriteLevels = 6;

/// Mixed stream: 60% path reads, 25% inserts, 15% erases. Writers carry
/// their root path as the read set (the planner's walk) plus the target.
/// Validity is stateful — an insert needs a live parent, an erase a live
/// childless non-root — so early writes mostly reject and the tree grows
/// shallow-first; the barrier's verdict stream is part of the measured
/// work and of the determinism gate.
std::vector<Request> request_stream(std::size_t count, std::uint32_t clients,
                                    std::uint64_t gap, std::uint64_t seed,
                                    bool demote_writes_to_reads) {
  Rng rng(seed);
  std::vector<Request> requests;
  requests.reserve(count);
  std::vector<std::uint64_t> next_seq(clients, 0);
  std::uint64_t clock = 0;
  const std::uint32_t bottom = tree_levels() - 1;
  for (std::size_t i = 0; i < count; ++i) {
    clock += gap == 0 ? 0 : rng.below(2 * gap + 1);  // mean ~= gap
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(clients));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    const std::uint64_t draw = rng.below(100);
    if (draw < 60) {  // read: a full root-to-leaf envelope path
      Node n = v(rng.below(pow2(bottom)), bottom);
      r.nodes.push_back(n);
      while (n.level > 0) {
        n = parent(n);
        r.nodes.push_back(n);
      }
    } else {  // write: root path + target in the shallow band
      const auto level =
          static_cast<std::uint32_t>(rng.between(1, kWriteLevels));
      Node n = v(rng.below(pow2(level)), level);
      r.kind = demote_writes_to_reads
                   ? RequestKind::kRead
                   : (draw < 85 ? RequestKind::kInsert : RequestKind::kErase);
      r.target = n;
      r.payload = static_cast<std::int64_t>(i);
      r.nodes.push_back(n);
      while (n.level > 0) {
        n = parent(n);
        r.nodes.push_back(n);
      }
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

ServerOptions serve_options(dyn::DynamicTree& tree,
                            dyn::IncrementalColorer& colorer,
                            bool recolor_from_scratch, unsigned workers,
                            unsigned pipeline_workers) {
  ServerOptions opts;
  opts.tick_cycles = 4;
  opts.replicas = 1;
  opts.workers = workers;
  opts.admission.queue_bound = 128;
  opts.admission.overflow = OverflowPolicy::kShed;
  opts.batch.max_batch_nodes = 96;
  opts.batch.max_wait_cycles = 8;
  opts.pipeline.workers = pipeline_workers;
  opts.dyn.tree = &tree;
  opts.dyn.colorer = &colorer;
  opts.dyn.recolor_from_scratch = recolor_from_scratch;
  return opts;
}

struct RunOutcome {
  ServeReport report;
  double wall_seconds = 0;
  std::vector<Node> live;          ///< final live set, BFS order
  std::vector<Color> live_colors;  ///< their colors under the run's colorer
  std::uint64_t tree_version = 0;
  std::uint64_t nodes_colored = 0;
  std::uint64_t touches = 0;
};

/// Warmed median-of-N wall time of run() alone. Mutations make run()
/// stateful, so — unlike the static benches — every trial rebuilds the
/// tree + colorer + server in the UNTIMED setup phase and the timed body
/// serves one full stream against fresh state.
RunOutcome run_server(const std::vector<Request>& requests,
                      bool recolor_from_scratch, unsigned workers,
                      unsigned pipeline_workers, int repeat) {
  const CompleteBinaryTree envelope(tree_levels());
  RunOutcome outcome;
  std::optional<dyn::DynamicTree> tree;
  std::optional<dyn::IncrementalColorer> colorer;
  std::unique_ptr<Server> server;
  outcome.wall_seconds = bench::median_wall_seconds(
      /*warmup=*/1, repeat,
      [&] {
        tree.emplace(tree_levels());
        colorer.emplace(
            dyn::IncrementalColorer::color(envelope, color_n(), kColorK));
        server = std::make_unique<Server>(
            *colorer, serve_options(*tree, *colorer, recolor_from_scratch,
                                    workers, pipeline_workers));
        for (const Request& r : requests) server->submit(r);
      },
      [&] { outcome.report = server->run(); });
  outcome.live = tree->live_nodes();
  outcome.live_colors.resize(outcome.live.size());
  colorer->color_of_batch(
      std::span<const Node>(outcome.live.data(), outcome.live.size()),
      std::span<Color>(outcome.live_colors.data(),
                       outcome.live_colors.size()));
  outcome.tree_version = tree->version();
  outcome.nodes_colored = colorer->nodes_colored();
  outcome.touches = colorer->touches();
  return outcome;
}

bool same_responses(const ServeReport& got, const ServeReport& oracle,
                    bool compare_metrics) {
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
  if (!compare_metrics) return true;
  for (const auto& [key, value] : oracle.metrics.members()) {
    if (key == "pipeline") continue;  // wall-time stage attribution
    const Json* other = got.metrics.find(key);
    if (other == nullptr || other->dump() != value.dump()) return false;
  }
  return true;
}

bool same_mutations(const ServeReport& got, const ServeReport& oracle) {
  if (got.mutations.size() != oracle.mutations.size()) return false;
  for (std::size_t i = 0; i < got.mutations.size(); ++i) {
    const MutationRecord& x = got.mutations[i];
    const MutationRecord& y = oracle.mutations[i];
    if (x.batch != y.batch || x.client != y.client || x.seq != y.seq ||
        x.kind != y.kind || x.target != y.target || x.payload != y.payload ||
        x.status != y.status || x.applied_cycle != y.applied_cycle) {
      return false;
    }
  }
  return true;
}

bool same_final_state(const RunOutcome& got, const RunOutcome& oracle) {
  return got.tree_version == oracle.tree_version && got.live == oracle.live &&
         got.live_colors == oracle.live_colors;
}

bool warn_unless(bool ok, const char* what) {
  if (!ok) std::cout << "MISMATCH: " << what << "\n";
  return ok;
}

std::uint64_t applied_mutations(const ServeReport& report) {
  std::uint64_t applied = 0;
  for (const MutationRecord& rec : report.mutations) {
    if (rec.status == dyn::DynStatus::kOk) ++applied;
  }
  return applied;
}

void run_experiment() {
  const std::vector<Request> mixed =
      request_stream(request_count(), 16, 2, 0xE24, false);
  const std::vector<Request> read_only =
      request_stream(request_count(), 16, 2, 0xE24, true);

  // ---- Headline: read-only ceiling vs incremental vs strawman. --------
  const RunOutcome reads = run_server(read_only, false, 1, 0, reps());
  const RunOutcome incremental = run_server(mixed, false, 1, 0, reps());
  const RunOutcome strawman = run_server(mixed, true, 1, 0, reps());

  const auto rps = [](const RunOutcome& r) {
    return static_cast<double>(request_count()) / r.wall_seconds;
  };
  const double vs_reads = rps(incremental) / rps(reads);
  const double vs_strawman = rps(incremental) / rps(strawman);

  TableWriter table({"mode", "wall s", "wall Mreq/s", "applied", "live",
                     "colored", "touches"});
  table.row("read-only ceiling", reads.wall_seconds, rps(reads) / 1e6,
            applied_mutations(reads.report), reads.live.size(),
            reads.nodes_colored, reads.touches);
  table.row("incremental", incremental.wall_seconds, rps(incremental) / 1e6,
            applied_mutations(incremental.report), incremental.live.size(),
            incremental.nodes_colored, incremental.touches);
  table.row("full-recolor strawman", strawman.wall_seconds,
            rps(strawman) / 1e6, applied_mutations(strawman.report),
            strawman.live.size(), strawman.nodes_colored, strawman.touches);
  bench::print_experiment(
      "E24 (dynamic trees: mixed read/write serving)",
      std::to_string(request_count()) + " requests (60% path reads, 25% "
          "inserts, 15% erases), INCR-COLOR(N=" + std::to_string(color_n()) +
          ", k=" + std::to_string(kColorK) + "), height-" +
          std::to_string(tree_levels() - 1) + " envelope; strawman counters "
          "reflect only the final epoch (reset() zeroes them)",
      table);

  // ---- Determinism: the exit-code gate. -------------------------------
  const RunOutcome w2 = run_server(mixed, false, 2, 0, reps());
  const RunOutcome w8 = run_server(mixed, false, 8, 0, reps());
  const RunOutcome p1 = run_server(mixed, false, 1, 1, reps());
  const RunOutcome p2 = run_server(mixed, false, 1, 2, reps());

  const bool id_w2 = warn_unless(
      same_responses(w2.report, incremental.report, true) &&
          same_mutations(w2.report, incremental.report) &&
          same_final_state(w2, incremental),
      "2 workers");
  const bool id_w8 = warn_unless(
      same_responses(w8.report, incremental.report, true) &&
          same_mutations(w8.report, incremental.report) &&
          same_final_state(w8, incremental),
      "8 workers");
  const bool id_p1 = warn_unless(
      same_responses(p1.report, incremental.report, false) &&
          same_mutations(p1.report, incremental.report) &&
          same_final_state(p1, incremental),
      "pipeline 1w");
  const bool id_p2 = warn_unless(
      same_responses(p2.report, incremental.report, false) &&
          same_mutations(p2.report, incremental.report) &&
          same_final_state(p2, incremental),
      "pipeline 2w");
  const bool id_strawman = warn_unless(
      same_responses(strawman.report, incremental.report, false) &&
          same_mutations(strawman.report, incremental.report) &&
          same_final_state(strawman, incremental),
      "full-recolor strawman");

  // The differential oracle at bench scale: the final live set's colors
  // against a from-scratch ColorMapping over the same envelope.
  const CompleteBinaryTree envelope(tree_levels());
  const ColorMapping reference(envelope, color_n(), kColorK);
  bool colors_exact = true;
  for (std::size_t i = 0; i < incremental.live.size(); ++i) {
    colors_exact = colors_exact && incremental.live_colors[i] ==
                                       reference.color_of(incremental.live[i]);
  }
  warn_unless(colors_exact, "from-scratch color differential");
  const bool wrote = applied_mutations(incremental.report) > 0;
  warn_unless(wrote, "stream applied no mutations");

  TableWriter gate({"invariant", "verdict"});
  gate.row("mixed 2 workers == 1 worker", bench::pass_cell(id_w2));
  gate.row("mixed 8 workers == 1 worker", bench::pass_cell(id_w8));
  gate.row("pipeline 1w == oracle", bench::pass_cell(id_p1));
  gate.row("pipeline 2w == oracle", bench::pass_cell(id_p2));
  gate.row("strawman bit-identical", bench::pass_cell(id_strawman));
  gate.row("final colors == from-scratch rebuild",
           bench::pass_cell(colors_exact));
  gate.row("applied mutations > 0", bench::pass_cell(wrote));
  gate.row("incremental >= strawman throughput (informational)",
           smoke_mode() ? "SKIP (smoke dims)"
                        : bench::pass_cell(vs_strawman >= 1.0));
  bench::print_experiment(
      "E24 (acceptance)",
      "exit code gates the deterministic rows only; the wall ratios are "
      "recorded for EXPERIMENTS.md",
      gate);

  Json report = Json::object();
  report.set("experiment", Json("E24"));
  report.set("smoke", Json(smoke_mode()));
  report.set("tree_levels", Json(std::uint64_t{tree_levels()}));
  report.set("color_n", Json(std::uint64_t{color_n()}));
  report.set("requests", Json(request_count()));
  Json rows = Json::object();
  const auto mode_row = [&](const RunOutcome& r) {
    Json row = Json::object();
    row.set("wall_seconds", Json(r.wall_seconds));
    row.set("wall_requests_per_sec", Json(rps(r)));
    row.set("applied", Json(applied_mutations(r.report)));
    row.set("live_nodes", Json(std::uint64_t{r.live.size()}));
    row.set("nodes_colored", Json(r.nodes_colored));
    row.set("touches", Json(r.touches));
    return row;
  };
  rows.set("read_only", mode_row(reads));
  rows.set("incremental", mode_row(incremental));
  rows.set("strawman", mode_row(strawman));
  report.set("rows", std::move(rows));
  report.set("throughput_vs_read_only", Json(vs_reads));
  report.set("throughput_vs_strawman", Json(vs_strawman));
  report.set("identical_workers", Json(id_w2 && id_w8));
  report.set("identical_pipeline", Json(id_p1 && id_p2));
  report.set("strawman_identical", Json(id_strawman));
  report.set("colors_exact", Json(colors_exact));

  bench::write_report("BENCH_E24_dyn.json", report);

  if (!(id_w2 && id_w8 && id_p1 && id_p2 && id_strawman && colors_exact &&
        wrote)) {
    std::cout << "ERROR: dyn determinism invariants failed\n";
    std::exit(1);
  }
}

// google-benchmark timings: end-to-end mixed serve per mode. Each
// iteration rebuilds tree + colorer + server untimed (run() is stateful).

void BM_DynMixedServe(benchmark::State& state) {
  const bool demote = state.range(0) == 0;
  const bool from_scratch = state.range(0) == 2;
  const CompleteBinaryTree envelope(tree_levels());
  const std::vector<Request> requests =
      request_stream(smoke_mode() ? 300 : 2000, 8, 2, 7, demote);
  for (auto _ : state) {
    state.PauseTiming();
    dyn::DynamicTree tree(envelope.levels());
    dyn::IncrementalColorer colorer =
        dyn::IncrementalColorer::color(envelope, color_n(), kColorK);
    Server server(colorer,
                  serve_options(tree, colorer, from_scratch, 1, 0));
    for (const Request& r : requests) server.submit(r);
    state.ResumeTiming();
    const ServeReport report = server.run();
    benchmark::DoNotOptimize(report.final_cycle);
  }
}
BENCHMARK(BM_DynMixedServe)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
