// Staged-pipeline differential tests (DESIGN.md §14): the PALM-style
// staged executor behind Server/Forest must be bit-identical,
// request-for-request, to the inline executor (pipeline.workers == 0) at
// 1, 2 and 8 pipeline workers — responses, batches, per-lane trajectories, tick/round counts
// and every metrics section. The ONLY tolerated difference is the
// "pipeline" stage-attribution section of a pipelined report's metrics,
// which measures wall time and is checked for shape instead. Faulted
// configurations run on the staged executor too and obey the same
// contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/serve/forest.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree::serve {
namespace {

// ---------------------------------------------------------------------------
// Shared comparison helpers.

void expect_same_responses(const std::vector<Response>& got,
                           const std::vector<Response>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Response& a = got[i];
    const Response& b = want[i];
    ASSERT_EQ(a.client, b.client) << i;
    ASSERT_EQ(a.seq, b.seq) << i;
    ASSERT_EQ(a.status, b.status) << i;
    ASSERT_EQ(a.submit_cycle, b.submit_cycle) << i;
    ASSERT_EQ(a.admitted_cycle, b.admitted_cycle) << i;
    ASSERT_EQ(a.dispatch_cycle, b.dispatch_cycle) << i;
    ASSERT_EQ(a.completion_cycle, b.completion_cycle) << i;
    ASSERT_EQ(a.batch, b.batch) << i;
    ASSERT_EQ(a.retries, b.retries) << i;
  }
}

void expect_same_batches(const std::vector<FormedBatch>& got,
                         const std::vector<FormedBatch>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t b = 0; b < got.size(); ++b) {
    ASSERT_EQ(got[b].id, want[b].id) << b;
    ASSERT_EQ(got[b].formed_cycle, want[b].formed_cycle) << b;
    ASSERT_EQ(got[b].members, want[b].members) << b;
    ASSERT_EQ(got[b].nodes, want[b].nodes) << b;
    ASSERT_EQ(got[b].requested_nodes, want[b].requested_nodes) << b;
    // The resolve stage coalesced off the control plane; the C(D, c)
    // derived from its nodes must be the oracle's exactly.
    ASSERT_TRUE(got[b].coalesced) << b;
    ASSERT_EQ(got[b].decomposition().component_count(),
              want[b].decomposition().component_count())
        << b;
    ASSERT_EQ(got[b].decomposition().nodes(), want[b].decomposition().nodes())
        << b;
  }
}

void expect_same_lanes(const std::vector<engine::EngineResult>& got,
                       const std::vector<engine::EngineResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t l = 0; l < got.size(); ++l) {
    ASSERT_EQ(got[l].to_json().dump(), want[l].to_json().dump()) << "lane "
                                                                 << l;
  }
}

/// The pipelined metrics must equal the oracle's section-for-section,
/// with exactly one extra member allowed: "pipeline" (wall-time stage
/// attribution, the single deliberately non-deterministic export).
void expect_same_metrics_modulo_pipeline(const Json& got, const Json& want) {
  for (const auto& [key, value] : want.members()) {
    if (key == "pipeline") continue;  // both sides pipelined: wall time
    const Json* other = got.find(key);
    ASSERT_NE(other, nullptr) << "missing metrics section " << key;
    ASSERT_EQ(other->dump(), value.dump()) << "metrics section " << key;
  }
  for (const auto& [key, value] : got.members()) {
    (void)value;
    if (key == "pipeline") continue;
    ASSERT_NE(want.find(key), nullptr) << "extra metrics section " << key;
  }
}

/// Satellite contract: the stage-attribution export carries every counter
/// DESIGN.md §14 promises, with values consistent with the run.
void expect_pipeline_stats_shape(const Json& metrics, unsigned workers,
                                 std::uint64_t min_batches) {
  const Json* p = metrics.find("pipeline");
  ASSERT_NE(p, nullptr) << "pipelined run lost its stage attribution";
  ASSERT_EQ(p->find("workers")->as_uint(), workers);
  EXPECT_GE(p->find("rounds")->as_uint(), 1u);
  EXPECT_GE(p->find("batches")->as_uint(), min_batches);
  EXPECT_GE(p->find("max_in_flight")->as_uint(), min_batches > 0 ? 1u : 0u);
  const Json* stages = p->find("stage_ns");
  ASSERT_NE(stages, nullptr);
  for (const char* stage :
       {"control", "resolve", "execute", "drain", "barrier"}) {
    ASSERT_NE(stages->find(stage), nullptr) << stage;
  }
  ASSERT_NE(p->find("simd_kernel"), nullptr);
}

// ---------------------------------------------------------------------------
// Server side.

struct Config {
  std::unique_ptr<CompleteBinaryTree> tree;
  std::unique_ptr<TreeMapping> mapping;
  ServerOptions options;
  std::vector<Request> requests;
  std::unique_ptr<fault::FaultPlan> faults;
};

Config random_config(std::uint64_t seed) {
  Rng rng(seed);
  Config cfg;
  const std::uint32_t levels = static_cast<std::uint32_t>(rng.between(5, 9));
  cfg.tree = std::make_unique<CompleteBinaryTree>(levels);
  const std::uint32_t modules = static_cast<std::uint32_t>(rng.between(3, 17));
  if (rng.chance(1, 2)) {
    cfg.mapping = std::make_unique<ColorMapping>(
        make_optimal_color_mapping(*cfg.tree, modules));
  } else {
    cfg.mapping = std::make_unique<ModuloMapping>(*cfg.tree, modules);
  }

  cfg.options.tick_cycles = rng.between(1, 6);
  cfg.options.replicas = static_cast<std::uint32_t>(rng.between(1, 4));
  cfg.options.admission.queue_bound = rng.between(1, 32);
  cfg.options.admission.overflow =
      rng.chance(1, 2) ? OverflowPolicy::kShed : OverflowPolicy::kBlock;
  cfg.options.batch.max_batch_nodes = rng.between(2, 48);
  cfg.options.batch.max_wait_cycles = rng.between(0, 12);
  cfg.options.engine.sampling =
      engine::EngineOptions::DepthSampling::kStrided;
  cfg.options.engine.sample_stride = 16;
  // Healthy-path retries: a tight attempt timeout makes deep batches
  // overstay their residency budget without any fault plan, so pipelined
  // runs exercise multi-round (retry) serving too.
  if (rng.chance(1, 2)) {
    cfg.options.retry.max_retries = static_cast<std::uint32_t>(rng.between(1, 3));
    cfg.options.retry.attempt_timeout_cycles = rng.between(2, 8);
    cfg.options.retry.backoff_base_cycles = rng.between(1, 6);
    cfg.options.retry.backoff_cap_cycles = 64;
  }
  // Kept draw: it once picked tiny handoff rings, and dropping it would
  // reshuffle every later random choice.
  (void)rng.chance(1, 3);

  const std::size_t count = rng.between(20, 120);
  std::uint64_t clock = 0;
  std::vector<std::uint64_t> next_seq(4, 0);
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.below(5);
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(4));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    r.deadline_cycles = rng.chance(1, 4) ? rng.between(1, 20) : 0;
    const std::size_t nodes = rng.below(6);
    for (std::size_t k = 0; k < nodes; ++k) {
      const std::uint32_t level =
          static_cast<std::uint32_t>(rng.below(levels));
      r.nodes.push_back(v(rng.below(pow2(level)), level));
    }
    cfg.requests.push_back(std::move(r));
  }
  return cfg;
}

ServeReport run_server(const Config& cfg, unsigned pipeline_workers) {
  ServerOptions opts = cfg.options;
  opts.pipeline.workers = pipeline_workers;
  if (cfg.faults != nullptr) opts.engine.faults = cfg.faults.get();
  Server server(*cfg.mapping, opts);
  for (const Request& r : cfg.requests) server.submit(r);
  return server.run();
}

void expect_same_serve_report(const ServeReport& got, const ServeReport& want) {
  expect_same_responses(got.responses, want.responses);
  expect_same_batches(got.batches, want.batches);
  expect_same_lanes(got.replicas, want.replicas);
  ASSERT_EQ(got.ticks, want.ticks);
  ASSERT_EQ(got.rounds, want.rounds);
  ASSERT_EQ(got.final_cycle, want.final_cycle);
  expect_same_metrics_modulo_pipeline(got.metrics, want.metrics);
}

TEST(ServePipeline, ServerMatchesOracleAtEveryWorkerCount) {
  std::uint64_t total_rounds = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Config cfg = random_config(seed * 6700417);
    const ServeReport oracle = run_server(cfg, 0);
    ASSERT_EQ(oracle.count(RequestStatus::kOk) +
                  oracle.count(RequestStatus::kShed) +
                  oracle.count(RequestStatus::kExpired),
              cfg.requests.size());
    ASSERT_TRUE(oracle.metrics.find("pipeline") == nullptr)
        << "oracle reports must not grow a pipeline section";
    total_rounds += oracle.rounds;

    for (const unsigned workers : {1u, 2u, 8u}) {
      SCOPED_TRACE("pipeline_workers=" + std::to_string(workers));
      const ServeReport piped = run_server(cfg, workers);
      expect_same_serve_report(piped, oracle);
      expect_pipeline_stats_shape(piped.metrics, workers,
                                  oracle.batches.size());
    }
  }
  // The tight healthy-path retry policies actually fired somewhere:
  // multi-round pipelined serving was exercised, not just single rounds.
  EXPECT_GT(total_rounds, 12u);
}

TEST(ServePipeline, FaultedServerRunsStagedAndMatchesInline) {
  std::uint64_t rerouted = 0;
  std::uint64_t retries = 0;
  for (std::uint64_t seed : {3u, 8u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Config cfg = random_config(seed * 2654435761u);
    Rng rng(seed ^ 0xFA017u);
    fault::FaultPlan::RandomOptions fopts;
    fopts.seed = rng();
    fopts.modules = cfg.mapping->num_modules();
    fopts.fail_fraction = 0.25;
    fopts.fail_window = 64;
    fopts.slowdown_count = 2;
    fopts.slowdown_window = 256;
    fopts.slowdown_max_length = 128;
    fopts.slowdown_max_period = 4;
    cfg.faults =
        std::make_unique<fault::FaultPlan>(fault::FaultPlan::random(fopts));
    cfg.options.retry.max_retries = 2;
    cfg.options.retry.attempt_timeout_cycles = 3;

    // Faulted lanes run on the staged executor like healthy ones — the
    // session's degraded loop reroutes by color — bit for bit the inline
    // run, with the stage attribution present.
    const ServeReport inline_run = run_server(cfg, 0);
    ASSERT_TRUE(inline_run.metrics.find("pipeline") == nullptr);
    rerouted += inline_run.metrics.find("faults")
                    ->find("rerouted_requests")
                    ->as_uint();
    retries += inline_run.metrics.find("faults")->find("retries")->as_uint();
    for (const unsigned workers : {1u, 2u, 8u}) {
      SCOPED_TRACE("pipeline_workers=" + std::to_string(workers));
      const ServeReport piped = run_server(cfg, workers);
      expect_same_serve_report(piped, inline_run);
      expect_pipeline_stats_shape(piped.metrics, workers,
                                  inline_run.batches.size());
    }
  }
  EXPECT_GT(rerouted, 0u);
  EXPECT_GT(retries, 0u);
}

TEST(ServePipeline, EmptyFaultPlanStaysOnThePipeline) {
  // An EMPTY plan is healthy (the engine treats it as no plan); the
  // dispatch gate must agree and keep the staged path.
  Config cfg = random_config(0xE0F11);
  cfg.faults = std::make_unique<fault::FaultPlan>();
  const ServeReport oracle = run_server(cfg, 0);
  const ServeReport piped = run_server(cfg, 2);
  expect_same_serve_report(piped, oracle);
  expect_pipeline_stats_shape(piped.metrics, 2, oracle.batches.size());
}

TEST(ServePipeline, RepeatedRunsReuseTheWarmRunner) {
  // Two runs on one Server (the runner persists between them) must match
  // two runs on one oracle Server — including the second run's metrics,
  // which accumulate over the registry in both worlds. An intervening
  // empty run() (zero requests) must be harmless.
  const Config cfg = random_config(0x9E3779B9);
  ServerOptions oracle_opts = cfg.options;
  Server oracle_server(*cfg.mapping, oracle_opts);
  ServerOptions piped_opts = cfg.options;
  piped_opts.pipeline.workers = 2;
  Server piped_server(*cfg.mapping, piped_opts);

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("run=" + std::to_string(round));
    for (const Request& r : cfg.requests) {
      oracle_server.submit(r);
      piped_server.submit(r);
    }
    const ServeReport want = oracle_server.run();
    const ServeReport got = piped_server.run();
    expect_same_serve_report(got, want);
    if (round == 0) {
      const ServeReport idle = piped_server.run();  // nothing submitted
      EXPECT_TRUE(idle.responses.empty());
      EXPECT_TRUE(idle.batches.empty());
      const ServeReport idle_want = oracle_server.run();
      expect_same_serve_report(idle, idle_want);
    }
  }
}

TEST(ServePipeline, ConcurrentSubmissionMatchesSequential) {
  const Config cfg = random_config(0xC0FFEE7);
  const ServeReport sequential = run_server(cfg, 1);

  ServerOptions opts = cfg.options;
  opts.pipeline.workers = 8;
  Server server(*cfg.mapping, opts);
  std::vector<std::thread> submitters;
  for (unsigned t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = t; i < cfg.requests.size(); i += 4) {
        server.submit(cfg.requests[i]);
      }
    });
  }
  for (auto& th : submitters) th.join();
  expect_same_serve_report(server.run(), sequential);
}

// ---------------------------------------------------------------------------
// Forest side.

struct TenantConfig {
  std::unique_ptr<CompleteBinaryTree> tree;
  std::unique_ptr<TreeMapping> mapping;
  TenantOptions options;
  std::vector<Request> requests;
  std::unique_ptr<fault::FaultPlan> faults;
};

struct ForestConfig {
  ForestOptions options;
  std::vector<TenantConfig> tenants;
};

ForestConfig random_forest(std::uint64_t seed) {
  Rng rng(seed);
  ForestConfig cfg;
  cfg.options.tick_cycles = rng.between(1, 6);
  cfg.options.replicas = static_cast<std::uint32_t>(rng.between(1, 6));
  cfg.options.drr_quantum_nodes = rng.between(8, 48);
  const std::size_t tenant_count = rng.between(2, 6);
  cfg.options.global_queue_bound =
      rng.chance(1, 2) ? rng.between(tenant_count, 48) : 0;
  (void)rng.chance(1, 3);  // kept draw (see random_config above)

  for (std::size_t i = 0; i < tenant_count; ++i) {
    TenantConfig t;
    const std::uint32_t levels = static_cast<std::uint32_t>(rng.between(4, 9));
    t.tree = std::make_unique<CompleteBinaryTree>(levels);
    const std::uint32_t modules =
        static_cast<std::uint32_t>(rng.between(3, 17));
    if (rng.chance(1, 2)) {
      t.mapping = std::make_unique<ColorMapping>(
          make_optimal_color_mapping(*t.tree, modules));
    } else {
      t.mapping = std::make_unique<ModuloMapping>(*t.tree, modules);
    }
    t.options.rate = static_cast<double>(rng.between(1, 8));
    t.options.weight = rng.between(1, 5);
    t.options.admission.queue_bound = rng.between(1, 24);
    t.options.admission.overflow =
        rng.chance(1, 2) ? OverflowPolicy::kShed : OverflowPolicy::kBlock;
    t.options.batch.max_batch_nodes = rng.between(2, 40);
    t.options.batch.max_wait_cycles = rng.between(0, 10);
    t.options.engine.sampling = engine::EngineOptions::DepthSampling::kStrided;
    t.options.engine.sample_stride = 16;
    if (rng.chance(1, 3)) {
      t.options.retry.max_retries = static_cast<std::uint32_t>(rng.between(1, 2));
      t.options.retry.attempt_timeout_cycles = rng.between(2, 8);
    }

    const std::size_t count = rng.between(8, 36);
    const std::uint32_t clients =
        static_cast<std::uint32_t>(rng.between(1, 3));
    std::uint64_t clock = rng.below(16);
    std::vector<std::uint64_t> next_seq(clients, 0);
    for (std::size_t k = 0; k < count; ++k) {
      clock += rng.below(4);
      Request r;
      r.client = static_cast<std::uint32_t>(rng.below(clients));
      r.seq = next_seq[r.client]++;
      r.submit_cycle = clock;
      r.deadline_cycles = rng.chance(1, 4) ? rng.between(2, 24) : 0;
      const std::size_t nodes = rng.below(6);
      for (std::size_t n = 0; n < nodes; ++n) {
        const std::uint32_t level =
            static_cast<std::uint32_t>(rng.below(levels));
        r.nodes.push_back(v(rng.below(pow2(level)), level));
      }
      t.requests.push_back(std::move(r));
    }
    cfg.tenants.push_back(std::move(t));
  }
  return cfg;
}

ForestReport run_forest(const ForestConfig& cfg, unsigned pipeline_workers) {
  ForestOptions opts = cfg.options;
  opts.pipeline.workers = pipeline_workers;
  Forest forest(opts);
  for (const TenantConfig& t : cfg.tenants) {
    TenantOptions topts = t.options;
    if (t.faults != nullptr) topts.engine.faults = t.faults.get();
    forest.add_tenant(*t.mapping, std::move(topts));
  }
  for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
    for (const Request& r : cfg.tenants[i].requests) {
      forest.submit(static_cast<std::uint32_t>(i), r);
    }
  }
  return forest.run();
}

void expect_same_forest_report(const ForestReport& got,
                               const ForestReport& want) {
  ASSERT_EQ(got.tenants.size(), want.tenants.size());
  for (std::size_t i = 0; i < got.tenants.size(); ++i) {
    SCOPED_TRACE("tenant=" + std::to_string(i));
    const TenantReport& a = got.tenants[i];
    const TenantReport& b = want.tenants[i];
    ASSERT_EQ(a.name, b.name);
    expect_same_responses(a.responses, b.responses);
    expect_same_batches(a.batches, b.batches);
    expect_same_lanes(a.lanes, b.lanes);
    ASSERT_EQ(a.served_nodes, b.served_nodes);
    // Tenant metric sections never carry pipeline wall-time; they must be
    // identical outright.
    ASSERT_EQ(a.metrics.dump(), b.metrics.dump());
  }
  ASSERT_EQ(got.ticks, want.ticks);
  ASSERT_EQ(got.rounds, want.rounds);
  ASSERT_EQ(got.final_cycle, want.final_cycle);
  ASSERT_EQ(got.plan.to_json().dump(), want.plan.to_json().dump());
  // The rollup: "tenants" and "plan" identical; the "forest" aggregate is
  // identical modulo its stage-attribution section.
  const Json* got_forest = got.metrics.find("forest");
  const Json* want_forest = want.metrics.find("forest");
  ASSERT_NE(got_forest, nullptr);
  ASSERT_NE(want_forest, nullptr);
  expect_same_metrics_modulo_pipeline(*got_forest, *want_forest);
  ASSERT_EQ(got.metrics.find("tenants")->dump(),
            want.metrics.find("tenants")->dump());
  ASSERT_EQ(got.metrics.find("plan")->dump(),
            want.metrics.find("plan")->dump());
}

TEST(ServePipeline, ForestMatchesOracleAtEveryWorkerCount) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const ForestConfig cfg = random_forest(seed * 7919);
    const ForestReport oracle = run_forest(cfg, 0);
    std::size_t total = 0;
    for (const TenantConfig& t : cfg.tenants) total += t.requests.size();
    ASSERT_EQ(oracle.count(RequestStatus::kOk) +
                  oracle.count(RequestStatus::kShed) +
                  oracle.count(RequestStatus::kExpired),
              total);

    for (const unsigned workers : {1u, 2u, 8u}) {
      SCOPED_TRACE("pipeline_workers=" + std::to_string(workers));
      const ForestReport piped = run_forest(cfg, workers);
      expect_same_forest_report(piped, oracle);
      std::uint64_t batches = 0;
      for (const TenantReport& t : oracle.tenants) batches += t.batches.size();
      expect_pipeline_stats_shape(*piped.metrics.find("forest"), workers,
                                  batches);
    }
  }
}

TEST(ServePipeline, FaultedForestRunsStagedAndMatchesInline) {
  ForestConfig cfg = random_forest(0xF0BE57);
  Rng rng(0xF0BE57);
  // One faulted tenant shares the runner with healthy ones; its lanes run
  // the degraded loop, everyone else's the healthy one.
  TenantConfig& t = cfg.tenants[1];
  fault::FaultPlan::RandomOptions fopts;
  fopts.seed = rng();
  fopts.modules = t.mapping->num_modules();
  fopts.fail_fraction = 0.25;
  fopts.fail_window = 64;
  fopts.slowdown_count = 2;
  fopts.slowdown_window = 256;
  fopts.slowdown_max_length = 128;
  fopts.slowdown_max_period = 4;
  t.faults =
      std::make_unique<fault::FaultPlan>(fault::FaultPlan::random(fopts));
  t.options.retry.max_retries = 2;
  t.options.retry.attempt_timeout_cycles = 8;

  const ForestReport inline_run = run_forest(cfg, 0);
  ASSERT_TRUE(inline_run.metrics.find("forest")->find("pipeline") == nullptr);
  EXPECT_GT(inline_run.tenants[1]
                .metrics.find("faults")
                ->find("rerouted_requests")
                ->as_uint(),
            0u);
  std::uint64_t batches = 0;
  for (const TenantReport& tr : inline_run.tenants) batches += tr.batches.size();
  for (const unsigned workers : {1u, 2u, 8u}) {
    SCOPED_TRACE("pipeline_workers=" + std::to_string(workers));
    const ForestReport piped = run_forest(cfg, workers);
    expect_same_forest_report(piped, inline_run);
    expect_pipeline_stats_shape(*piped.metrics.find("forest"), workers,
                                batches);
  }
}

}  // namespace
}  // namespace pmtree::serve
