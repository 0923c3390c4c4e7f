// E21 — multi-tenant forest serving: per-tenant SLO isolation over one
// shared replica pool (pmtree/serve/forest, DESIGN.md §13).
//
// The forest gives every tenant its own tree, mapping, admission quota
// and retry policy, then multiplexes them onto a shared pool of engine
// replicas through deficit-round-robin batch formation. Four claims are
// measured, each as a checked cell rather than prose:
//
//   * Weighted fairness: four tenants with DRR weights 1/2/4/8 saturate
//     the forest with identical streams; over the joint-backlog prefix
//     each tenant's service share tracks its weight share.
//   * Noisy-neighbor isolation: a bursty tenant overrunning its own
//     admission quota sheds, while steady tenants sharing the pool shed
//     nothing and keep their p99 — shed is attributable to the tenant
//     that caused it, never exported to a neighbor.
//   * Fault isolation: a fault plan injected into one tenant's lanes
//     leaves every other tenant's response table bit-identical to the
//     all-healthy forest.
//   * Determinism: the whole forest — quotas, DRR, retries, sharded
//     lanes — is bit-identical at 1/2/8 workers.
//
// A BENCH_E21_forest.json report goes to $PMTREE_BENCH_JSON (or the
// working directory). PMTREE_E21_SMOKE=1 shrinks every dimension so the
// ctest perf-smoke label finishes in seconds.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/serve/forest.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/json.hpp"
#include "pmtree/util/rng.hpp"

namespace {

using namespace pmtree;
using namespace pmtree::serve;

bool smoke_mode() { return bench::smoke_mode("PMTREE_E21_SMOKE"); }

// Multi-tenant dimensions from bench_common.hpp (the forest variant of
// the shared serving dims).
std::uint32_t tree_levels() {
  return bench::forest_bench_dims(smoke_mode()).tree_levels;
}
std::uint32_t module_count() {
  return bench::forest_bench_dims(smoke_mode()).modules;
}
std::size_t per_tenant_requests() {
  return bench::forest_bench_dims(smoke_mode()).requests;
}
int reps() { return bench::forest_bench_dims(smoke_mode()).reps; }

/// Equal-size requests (one full root-to-leaf path each) so request
/// counts and node credits coincide — fairness shares read off directly.
std::vector<Request> path_stream(const CompleteBinaryTree& tree,
                                 std::size_t count, std::uint64_t gap,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> requests;
  requests.reserve(count);
  const std::uint32_t bottom = tree.levels() - 1;
  std::uint64_t clock = 0;
  for (std::size_t i = 0; i < count; ++i) {
    clock += gap == 0 ? 0 : rng.below(2 * gap + 1);
    Request r;
    r.client = 0;
    r.seq = i;
    r.submit_cycle = clock;
    Node n = v(rng.below(pow2(bottom)), bottom);
    r.nodes.push_back(n);
    while (n.level > 0) {
      n = parent(n);
      r.nodes.push_back(n);
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

TenantOptions tenant_options(std::uint64_t weight, std::size_t queue_bound,
                             OverflowPolicy overflow) {
  TenantOptions opts;
  opts.weight = weight;
  opts.rate = static_cast<double>(weight);
  opts.admission.queue_bound = queue_bound;
  opts.admission.overflow = overflow;
  opts.batch.max_batch_nodes = 96;
  opts.batch.max_wait_cycles = 8;
  opts.engine.sampling = engine::EngineOptions::DepthSampling::kOff;
  return opts;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool same_tenant(const TenantReport& a, const TenantReport& b) {
  if (a.responses.size() != b.responses.size()) return false;
  if (a.batches.size() != b.batches.size()) return false;
  if (a.served_nodes != b.served_nodes) return false;
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    const Response& x = a.responses[i];
    const Response& y = b.responses[i];
    if (x.client != y.client || x.seq != y.seq || x.status != y.status ||
        x.admitted_cycle != y.admitted_cycle ||
        x.dispatch_cycle != y.dispatch_cycle ||
        x.completion_cycle != y.completion_cycle || x.batch != y.batch ||
        x.retries != y.retries) {
      return false;
    }
  }
  return true;
}

bool same_forest(const ForestReport& a, const ForestReport& b) {
  if (a.tenants.size() != b.tenants.size()) return false;
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    if (!same_tenant(a.tenants[i], b.tenants[i])) return false;
  }
  return a.ticks == b.ticks && a.rounds == b.rounds &&
         a.final_cycle == b.final_cycle &&
         a.to_json().dump() == b.to_json().dump();
}

std::uint64_t tenant_p99(const TenantReport& t) {
  const Json* latency = t.metrics.find("latency");
  return latency == nullptr ? 0 : latency->find("p99")->as_uint();
}

/// Weighted fairness: four saturating tenants, weights 1/2/4/8. Service
/// is compared over the joint-backlog prefix (up to the earliest tenant's
/// last dispatch) where DRR's weight proportionality is the contract.
Json fairness_sweep(const ColorMapping& mapping,
                    const CompleteBinaryTree& tree, bool& fairness_ok) {
  const std::vector<std::uint64_t> weights{1, 2, 4, 8};
  ForestOptions fopts;
  fopts.tick_cycles = 2;
  fopts.replicas = 1;  // one shared lane: contention is the point
  fopts.drr_quantum_nodes = 2 * tree.levels();
  Forest forest(fopts);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    forest.add_tenant(mapping, tenant_options(weights[i],
                                              per_tenant_requests(),
                                              OverflowPolicy::kBlock));
  }
  for (std::uint32_t i = 0; i < weights.size(); ++i) {
    forest.submit(i, path_stream(tree, per_tenant_requests(), 0, 0xE21 + i));
  }
  const ForestReport report = forest.run();

  // Joint-backlog cutoff: the earliest final dispatch across tenants.
  std::uint64_t cutoff = ~std::uint64_t{0};
  for (const TenantReport& t : report.tenants) {
    std::uint64_t last = 0;
    for (const Response& r : t.responses) {
      if (r.status == RequestStatus::kOk && r.dispatch_cycle > last) {
        last = r.dispatch_cycle;
      }
    }
    cutoff = std::min(cutoff, last);
  }

  std::uint64_t weight_sum = 0;
  for (const std::uint64_t w : weights) weight_sum += w;
  std::vector<std::uint64_t> served(weights.size(), 0);
  std::uint64_t served_sum = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    for (const Response& r : report.tenants[i].responses) {
      if (r.status == RequestStatus::kOk && r.dispatch_cycle < cutoff) {
        served[i] += 1;
      }
    }
    served_sum += served[i];
  }

  TableWriter table({"tenant", "weight", "want share", "got share",
                     "rel err", "verdict"});
  Json rows = Json::array();
  double max_rel_err = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double want =
        static_cast<double>(weights[i]) / static_cast<double>(weight_sum);
    const double got = served_sum == 0
                           ? 0.0
                           : static_cast<double>(served[i]) /
                                 static_cast<double>(served_sum);
    const double rel_err = want == 0.0 ? 0.0 : std::abs(got - want) / want;
    max_rel_err = std::max(max_rel_err, rel_err);
    const bool ok = rel_err < 0.40;
    fairness_ok = fairness_ok && ok;
    table.row("t" + std::to_string(i), weights[i], want, got, rel_err,
              pmtree::bench::pass_cell(ok));
    Json row = Json::object();
    row.set("tenant", Json(static_cast<std::uint64_t>(i)));
    row.set("weight", Json(weights[i]));
    row.set("want_share", Json(want));
    row.set("got_share", Json(got));
    row.set("rel_err", Json(rel_err));
    rows.push_back(std::move(row));
  }
  pmtree::bench::print_experiment(
      "E21 (DRR weighted fairness under saturation)",
      "4 tenants, weights 1/2/4/8, one shared lane; shares over the "
      "joint-backlog prefix (max rel err " + std::to_string(max_rel_err) +
          ")",
      table);
  Json section = Json::object();
  section.set("cutoff_cycle", Json(cutoff));
  section.set("max_rel_err", Json(max_rel_err));
  section.set("tenants", std::move(rows));
  return section;
}

/// Noisy-neighbor isolation: a bursting tenant sheds against its own
/// quota; steady tenants sharing the pool shed nothing.
Json noisy_neighbor(const ColorMapping& mapping,
                    const CompleteBinaryTree& tree, bool& isolation_ok) {
  ForestOptions fopts;
  fopts.tick_cycles = 4;
  fopts.replicas = 4;
  fopts.global_queue_bound = 64;
  Forest forest(fopts);
  const std::uint32_t kSteady = 3;
  for (std::uint32_t i = 0; i < kSteady; ++i) {
    forest.add_tenant(
        mapping, tenant_options(1, 64, OverflowPolicy::kShed));
  }
  const std::uint32_t noisy = forest.add_tenant(
      mapping, tenant_options(1, 8, OverflowPolicy::kShed));

  for (std::uint32_t i = 0; i < kSteady; ++i) {
    forest.submit(i, path_stream(tree, per_tenant_requests() / 4,
                                 /*gap=*/2 * tree.levels(), 0x51EAD + i));
  }
  // The burst: everything at cycle 0 into a queue of 8.
  forest.submit(noisy, path_stream(tree, per_tenant_requests(), 0, 0xB1257));
  const ForestReport report = forest.run();

  TableWriter table({"tenant", "role", "ok", "shed", "p99", "verdict"});
  Json rows = Json::array();
  std::uint64_t steady_shed = 0;
  for (std::uint32_t i = 0; i <= kSteady; ++i) {
    const TenantReport& t = report.tenants[i];
    const std::uint64_t shed = t.count(RequestStatus::kShed);
    const bool is_noisy = i == noisy;
    if (!is_noisy) steady_shed += shed;
    const bool ok = is_noisy ? shed > 0 : shed == 0;
    isolation_ok = isolation_ok && ok;
    table.row(t.name, is_noisy ? "noisy" : "steady",
              t.count(RequestStatus::kOk), shed, tenant_p99(t),
              pmtree::bench::pass_cell(ok));
    Json row = Json::object();
    row.set("tenant", Json(static_cast<std::uint64_t>(i)));
    row.set("role", Json(is_noisy ? std::string("noisy")
                                  : std::string("steady")));
    row.set("ok", Json(t.count(RequestStatus::kOk)));
    row.set("shed", Json(shed));
    row.set("p99", Json(tenant_p99(t)));
    rows.push_back(std::move(row));
  }
  pmtree::bench::print_experiment(
      "E21 (noisy-neighbor shed attribution)",
      "burst into a quota of 8 sheds at the noisy tenant only; steady "
      "tenants shed 0 (global bound 64, shared pool of 4 lanes)",
      table);
  Json section = Json::object();
  section.set("steady_shed_total", Json(steady_shed));
  section.set("tenants", std::move(rows));
  return section;
}

/// Fault isolation: tenant 0's fault plan must not perturb a single bit
/// of any other tenant's responses.
Json fault_isolation(const ColorMapping& mapping,
                     const CompleteBinaryTree& tree, bool& faults_isolated) {
  fault::FaultPlan::RandomOptions popts;
  popts.seed = 0xFA27;
  popts.modules = module_count();
  popts.fail_fraction = 0.25;
  popts.fail_window = 512;
  popts.slowdown_count = 2;
  popts.slowdown_window = 2048;
  popts.slowdown_max_length = 256;
  popts.slowdown_max_period = 3;
  const fault::FaultPlan plan = fault::FaultPlan::random(popts);

  const std::uint32_t kTenants = 4;
  ForestReport healthy;
  ForestReport faulted;
  for (const bool inject : {false, true}) {
    ForestOptions fopts;
    fopts.tick_cycles = 4;
    fopts.replicas = 4;
    Forest forest(fopts);
    for (std::uint32_t i = 0; i < kTenants; ++i) {
      TenantOptions topts =
          tenant_options(1, per_tenant_requests(), OverflowPolicy::kBlock);
      if (inject && i == 0) {
        topts.engine.faults = &plan;
        topts.retry.max_retries = 2;
        topts.retry.attempt_timeout_cycles = 16;
      }
      forest.add_tenant(mapping, topts);
    }
    for (std::uint32_t i = 0; i < kTenants; ++i) {
      forest.submit(i, path_stream(tree, per_tenant_requests() / 2,
                                   /*gap=*/2, 0xFA0 + i));
    }
    (inject ? faulted : healthy) = forest.run();
  }

  TableWriter table({"tenant", "faulted", "ok", "retries", "bit-identical",
                     "verdict"});
  Json rows = Json::array();
  for (std::uint32_t i = 0; i < kTenants; ++i) {
    std::uint64_t retries = 0;
    for (const Response& r : faulted.tenants[i].responses) {
      retries += r.retries;
    }
    const bool identical = same_tenant(healthy.tenants[i], faulted.tenants[i]);
    const bool ok = i == 0 || identical;
    faults_isolated = faults_isolated && ok;
    table.row("t" + std::to_string(i), i == 0 ? "yes" : "no",
              faulted.tenants[i].count(RequestStatus::kOk), retries,
              identical ? "yes" : "no", pmtree::bench::pass_cell(ok));
    Json row = Json::object();
    row.set("tenant", Json(static_cast<std::uint64_t>(i)));
    row.set("faulted", Json(i == 0));
    row.set("ok", Json(faulted.tenants[i].count(RequestStatus::kOk)));
    row.set("retries", Json(retries));
    row.set("identical_to_healthy", Json(identical));
    rows.push_back(std::move(row));
  }
  pmtree::bench::print_experiment(
      "E21 (per-tenant fault isolation)",
      "25% of tenant 0's modules fail + 2 slowdowns; tenants 1..3 must be "
      "bit-identical to the all-healthy forest",
      table);
  Json section = Json::object();
  section.set("fault_plan", plan.to_json());
  section.set("tenants", std::move(rows));
  return section;
}

/// Worker scale-out: the full forest, bit-identical at 1/2/8 workers.
Json worker_scaleout(const ColorMapping& mapping,
                     const CompleteBinaryTree& tree, bool& identical_ok,
                     double& oracle_wall) {
  const std::uint32_t kTenants = 6;
  std::vector<std::vector<Request>> streams;
  for (std::uint32_t i = 0; i < kTenants; ++i) {
    streams.push_back(
        path_stream(tree, per_tenant_requests() / 2, /*gap=*/1, 0x5CA1E + i));
  }
  const auto run_forest = [&](unsigned workers) {
    ForestOptions fopts;
    fopts.tick_cycles = 4;
    fopts.replicas = 8;
    fopts.workers = workers;
    fopts.global_queue_bound = 96;
    ForestReport report;
    double wall = 1e9;  // best-of-N: shared CI boxes are noisy
    for (int rep = 0; rep < reps(); ++rep) {
      Forest forest(fopts);
      for (std::uint32_t i = 0; i < kTenants; ++i) {
        forest.add_tenant(mapping, tenant_options(1 + i % 3, 64,
                                                  OverflowPolicy::kBlock));
      }
      for (std::uint32_t i = 0; i < kTenants; ++i) {
        forest.submit(i, streams[i]);
      }
      const auto t0 = std::chrono::steady_clock::now();
      report = forest.run();
      wall = std::min(wall, seconds_since(t0));
    }
    return std::pair<ForestReport, double>(std::move(report), wall);
  };

  TableWriter table({"workers", "wall s", "speedup vs 1w", "bit-identical"});
  Json rows = Json::array();
  ForestReport oracle;
  for (const unsigned workers : {1u, 2u, 8u}) {
    auto [report, wall] = run_forest(workers);
    if (workers == 1) {
      oracle = std::move(report);
      oracle_wall = wall;
    }
    const bool identical =
        workers == 1 || same_forest(oracle, report);
    identical_ok = identical_ok && identical;
    table.row(workers, wall, oracle_wall / wall,
              pmtree::bench::pass_cell(identical));
    Json row = Json::object();
    row.set("workers", Json(static_cast<std::uint64_t>(workers)));
    row.set("wall_seconds", Json(wall));
    row.set("speedup_vs_1w", Json(oracle_wall / wall));
    row.set("identical", Json(identical));
    rows.push_back(std::move(row));
  }
  pmtree::bench::print_experiment(
      "E21 (worker scale-out of the forest)",
      "6 tenants, 8 shared lanes, global bound 96 (hardware_concurrency = " +
          std::to_string(std::thread::hardware_concurrency()) + ")",
      table);
  Json section = Json::object();
  section.set("rows", std::move(rows));
  return section;
}

void run_experiment() {
  const CompleteBinaryTree tree(tree_levels());
  const ColorMapping color = make_optimal_color_mapping(tree, module_count());

  bool fairness_ok = true;
  Json jfair = fairness_sweep(color, tree, fairness_ok);
  bool isolation_ok = true;
  Json jnoisy = noisy_neighbor(color, tree, isolation_ok);
  bool faults_isolated = true;
  Json jfault = fault_isolation(color, tree, faults_isolated);
  bool identical_ok = true;
  double oracle_wall = 0;
  Json jworkers = worker_scaleout(color, tree, identical_ok, oracle_wall);

  std::cout << "E21 headline: weighted fairness "
            << (fairness_ok ? "holds" : "FAILS") << ", shed attribution "
            << (isolation_ok ? "isolated" : "LEAKS") << ", faults "
            << (faults_isolated ? "contained" : "LEAK") << ", workers "
            << (identical_ok ? "bit-identical" : "DIVERGE") << "\n";

  Json report = Json::object();
  report.set("experiment", Json("E21"));
  report.set("smoke", Json(smoke_mode()));
  report.set("tree_levels", Json(static_cast<std::uint64_t>(tree_levels())));
  report.set("modules", Json(static_cast<std::uint64_t>(module_count())));
  report.set("per_tenant_requests", Json(per_tenant_requests()));
  report.set("fairness", std::move(jfair));
  report.set("noisy_neighbor", std::move(jnoisy));
  report.set("fault_isolation", std::move(jfault));
  report.set("worker_scaleout", std::move(jworkers));
  Json headline = Json::object();
  headline.set("weighted_fairness", Json(fairness_ok));
  headline.set("shed_attribution_isolated", Json(isolation_ok));
  headline.set("faults_contained", Json(faults_isolated));
  headline.set("workers_bit_identical", Json(identical_ok));
  report.set("headline", std::move(headline));

  bench::write_report("BENCH_E21_forest.json", report);
}

// google-benchmark timings: the full forest control plane + lane
// execution end to end, 1 worker vs 8 (lane execution is the only
// parallel phase, so the gap prices the control plane).

void BM_ForestServe(benchmark::State& state) {
  const CompleteBinaryTree tree(smoke_mode() ? 9 : 12);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 15));
  std::vector<std::vector<Request>> streams;
  for (std::uint32_t i = 0; i < 4; ++i) {
    streams.push_back(
        path_stream(tree, smoke_mode() ? 200 : 1500, /*gap=*/1, 0xB3 + i));
  }
  ForestOptions fopts;
  fopts.tick_cycles = 4;
  fopts.replicas = 8;
  fopts.workers = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    Forest forest(fopts);
    for (std::uint32_t i = 0; i < 4; ++i) {
      forest.add_tenant(mapping, tenant_options(1 + i, 64,
                                                OverflowPolicy::kBlock));
    }
    for (std::uint32_t i = 0; i < 4; ++i) forest.submit(i, streams[i]);
    const ForestReport report = forest.run();
    benchmark::DoNotOptimize(report.final_cycle);
  }
}
BENCHMARK(BM_ForestServe)->Arg(1)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
