// Adaptive mapping selection (DESIGN.md §17): the AdaptiveSelector's
// epoch accounting, convergence to the lower-conflict candidate on
// workloads where COLOR and LABEL-TREE rank differently (the paper's R10
// trade-off turned into a runtime measurement), deterministic replay, and
// the serve-layer contract — bit-identical responses at 1/2/8 workers and
// under the staged pipeline, byte-identical to the static server when the
// policy is disabled, and per-tenant scope in the Forest.
#include "pmtree/serve/adaptive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/serve/forest.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree::serve {
namespace {

// Bottom-level nodes that all share one color under `by` — the worst
// batch shape `by` can face, and (for mappings that disagree with it)
// typically well spread elsewhere.
std::vector<Node> monochrome_under(const TreeMapping& by) {
  const std::uint32_t bottom = by.tree().levels() - 1;
  const Color target = by.color_of(v(0, bottom));
  std::vector<Node> out;
  for (std::uint64_t i = 0; i < pow2(bottom); ++i) {
    if (by.color_of(v(i, bottom)) == target) out.push_back(v(i, bottom));
  }
  return out;
}

std::uint64_t peak(const TreeMapping& m, std::span<const Node> nodes) {
  std::vector<std::uint32_t> counts(m.num_modules(), 0);
  std::uint32_t mx = 0;
  for (const Node n : nodes) {
    mx = std::max(mx, ++counts[m.color_of(n)]);
  }
  return mx;
}

// Deterministic batch stream drawn from a hot node set.
std::vector<std::vector<Node>> batches_from(const std::vector<Node>& hot,
                                            std::size_t batches,
                                            std::uint64_t seed) {
  std::vector<std::vector<Node>> out(batches);
  Rng rng(seed);
  for (std::size_t b = 0; b < batches; ++b) {
    for (int k = 0; k < 6; ++k) {
      out[b].push_back(hot[rng.below(hot.size())]);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// AdaptiveSelector.

TEST(AdaptiveSelector, ServesBaseUntilTheFirstEpochDecision) {
  const CompleteBinaryTree tree(9);
  const ColorMapping color(make_optimal_color_mapping(tree, 7));
  const LabelTreeMapping label(tree, 7);
  AdaptivePolicy policy;
  policy.epoch_batches = 4;
  policy.candidates = {&color, &label};

  AdaptiveSelector selector(label, policy);
  EXPECT_EQ(&selector.current(), static_cast<const TreeMapping*>(&label));
  EXPECT_EQ(selector.active_candidate(), nullptr);

  const auto stream = batches_from(monochrome_under(label), 3, 0x5E1);
  for (std::size_t b = 0; b < stream.size(); ++b) {
    selector.observe(stream[b], b);
    EXPECT_EQ(&selector.current(), static_cast<const TreeMapping*>(&label))
        << "decided before the epoch budget was reached";
  }
  EXPECT_EQ(selector.epochs_planned(), 0u);
  EXPECT_EQ(selector.batches_observed(), 3u);
}

TEST(AdaptiveSelector, ConvergesToWhicheverCandidateTheWorkloadFavors) {
  const CompleteBinaryTree tree(9);
  const ColorMapping color(make_optimal_color_mapping(tree, 7));
  const LabelTreeMapping label(tree, 7);
  AdaptivePolicy policy;
  policy.epoch_batches = 4;
  policy.candidates = {&color, &label};

  // Workload 1: monochrome under LABEL-TREE — COLOR must win. Workload 2:
  // monochrome under COLOR — LABEL-TREE must win. The same two candidates
  // rank differently across them (R10), and each test first PROVES the
  // rank difference on its own batches before trusting the selector.
  struct Case {
    const TreeMapping* base;
    const TreeMapping* loser;
    const TreeMapping* winner;
    std::uint64_t seed;
  };
  for (const Case c : {Case{&label, &label, &color, 0xA1},
                       Case{&color, &color, &label, 0xA2}}) {
    SCOPED_TRACE("base=" + c.base->name());
    const auto stream = batches_from(monochrome_under(*c.loser), 12, c.seed);
    for (const auto& batch : stream) {
      ASSERT_LT(peak(*c.winner, batch), peak(*c.loser, batch));
    }
    AdaptiveSelector selector(*c.base, policy);
    for (std::size_t b = 0; b < stream.size(); ++b) {
      selector.observe(stream[b], b);
    }
    EXPECT_EQ(selector.epochs_planned(), 3u);
    ASSERT_EQ(selector.active_candidate(), c.winner);
    EXPECT_EQ(&selector.current(), c.winner);
    EXPECT_EQ(selector.current().name(), c.winner->name());
  }
}

TEST(AdaptiveSelector, TiesKeepTheIncumbent) {
  const CompleteBinaryTree tree(8);
  const ColorMapping color(make_optimal_color_mapping(tree, 7));
  const LabelTreeMapping label(tree, 7);
  AdaptivePolicy policy;
  policy.epoch_batches = 2;
  policy.candidates = {&color, &label};

  // Single-node batches score peak 1 under every mapping: a dead tie.
  AdaptiveSelector selector(label, policy);
  for (std::uint64_t b = 0; b < 8; ++b) {
    selector.observe(std::vector<Node>{v(b, 5)}, b);
  }
  EXPECT_EQ(selector.epochs_planned(), 4u);
  EXPECT_EQ(selector.active_candidate(), nullptr)
      << "a tie must not oust the incumbent";
  EXPECT_EQ(&selector.current(), static_cast<const TreeMapping*>(&label));
}

TEST(AdaptiveSelector, ReplaysDeterministically) {
  const CompleteBinaryTree tree(9);
  const ColorMapping color(make_optimal_color_mapping(tree, 7));
  const LabelTreeMapping label(tree, 7);
  AdaptivePolicy policy;
  policy.epoch_batches = 3;
  policy.candidates = {&color, &label};

  const auto stream = batches_from(monochrome_under(label), 14, 0x4EB1A7);
  AdaptiveSelector a(label, policy);
  AdaptiveSelector b(label, policy);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    a.observe(stream[i], i * 7);
    b.observe(stream[i], i * 7);
  }
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t e = 0; e < a.events().size(); ++e) {
    ASSERT_EQ(a.events()[e].to_json().dump(), b.events()[e].to_json().dump())
        << "epoch " << e;
  }
  EXPECT_EQ(a.stats().dump(), b.stats().dump());
}

// ---------------------------------------------------------------------------
// Server end to end.

// 80% of requests hit the monochrome-under-`hot_by` set (so the server's
// base mapping is the loser when it equals `hot_by`), the rest scatter.
std::vector<Request> adaptive_requests(const TreeMapping& hot_by,
                                       std::size_t count,
                                       std::uint64_t seed) {
  const std::vector<Node> hot = monochrome_under(hot_by);
  const std::uint32_t levels = hot_by.tree().levels();
  Rng rng(seed);
  std::vector<Request> requests;
  std::uint64_t clock = 0;
  std::vector<std::uint64_t> next_seq(8, 0);
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.below(3);
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(8));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    if (rng.below(10) < 8) {
      for (int k = 0; k < 3; ++k) {
        r.nodes.push_back(hot[rng.below(hot.size())]);
      }
    } else {
      for (int k = 0; k < 2; ++k) {
        const std::uint32_t level =
            static_cast<std::uint32_t>(rng.below(levels));
        r.nodes.push_back(v(rng.below(pow2(level)), level));
      }
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

ServerOptions adaptive_options(const std::vector<const TreeMapping*>& cands) {
  ServerOptions opts;
  opts.tick_cycles = 2;
  opts.replicas = 3;
  opts.workers = 1;
  opts.admission.queue_bound = 48;
  opts.admission.overflow = OverflowPolicy::kShed;
  opts.batch.max_batch_nodes = 24;
  opts.batch.max_wait_cycles = 4;
  opts.retry.max_retries = 2;
  opts.retry.attempt_timeout_cycles = 48;
  opts.retry.backoff_base_cycles = 8;
  opts.retry.backoff_cap_cycles = 64;
  opts.adaptive.epoch_batches = 4;
  opts.adaptive.candidates = cands;
  return opts;
}

ServeReport run_once(const TreeMapping& mapping, const ServerOptions& opts,
                     const std::vector<Request>& requests) {
  Server server(mapping, opts);
  for (const Request& r : requests) server.submit(r);
  return server.run();
}

void expect_same_metrics_modulo_pipeline(const Json& got, const Json& want) {
  for (const auto& [key, value] : want.members()) {
    if (key == "pipeline") continue;
    const Json* other = got.find(key);
    ASSERT_NE(other, nullptr) << "missing metrics section " << key;
    ASSERT_EQ(other->dump(), value.dump()) << "metrics section " << key;
  }
}

TEST(ServeAdaptive, ServerBitIdenticalAcrossWorkerCountsAndSwitches) {
  const CompleteBinaryTree tree(9);
  const ColorMapping color(make_optimal_color_mapping(tree, 7));
  const LabelTreeMapping label(tree, 7);
  const auto requests = adaptive_requests(label, 240, 0xADA);
  const ServerOptions base = adaptive_options({&color, &label});

  const ServeReport want = run_once(label, base, requests);
  const Json* adaptive = want.metrics.find("adaptive");
  ASSERT_NE(adaptive, nullptr);
  EXPECT_GE(adaptive->find("epochs_planned")->as_uint(), 1u);
  // The hot set collides on LABEL-TREE, so the selector must have moved
  // off the base at least once.
  EXPECT_GE(adaptive->find("switches")->as_uint(), 1u);
  EXPECT_EQ(adaptive->find("active")->as_string(), color.name());

  for (const unsigned workers : {2u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ServerOptions opts = base;
    opts.workers = workers;
    const ServeReport got = run_once(label, opts, requests);
    ASSERT_EQ(got.to_json().dump(), want.to_json().dump());
  }
}

TEST(ServeAdaptive, StagedPipelineMatchesOracle) {
  const CompleteBinaryTree tree(9);
  const ColorMapping color(make_optimal_color_mapping(tree, 7));
  const LabelTreeMapping label(tree, 7);
  const auto requests = adaptive_requests(label, 240, 0xB1BE);
  const ServerOptions base = adaptive_options({&color, &label});
  const ServeReport oracle = run_once(label, base, requests);

  for (const unsigned workers : {1u, 2u, 8u}) {
    SCOPED_TRACE("pipeline_workers=" + std::to_string(workers));
    ServerOptions opts = base;
    opts.pipeline.workers = workers;
    const ServeReport piped = run_once(label, opts, requests);
    ASSERT_EQ(piped.responses.size(), oracle.responses.size());
    for (std::size_t i = 0; i < piped.responses.size(); ++i) {
      ASSERT_EQ(piped.responses[i].status, oracle.responses[i].status) << i;
      ASSERT_EQ(piped.responses[i].completion_cycle,
                oracle.responses[i].completion_cycle)
          << i;
      ASSERT_EQ(piped.responses[i].batch, oracle.responses[i].batch) << i;
      ASSERT_EQ(piped.responses[i].retries, oracle.responses[i].retries) << i;
    }
    ASSERT_EQ(piped.batches.size(), oracle.batches.size());
    ASSERT_EQ(piped.final_cycle, oracle.final_cycle);
    expect_same_metrics_modulo_pipeline(piped.metrics, oracle.metrics);
    // The pipelined selector saw the same cut stream: same epoch audit.
    ASSERT_EQ(piped.metrics.find("adaptive")->dump(),
              oracle.metrics.find("adaptive")->dump());
  }
}

TEST(ServeAdaptive, DisabledPolicyIsByteIdenticalToStaticServer) {
  const CompleteBinaryTree tree(9);
  const ColorMapping color(make_optimal_color_mapping(tree, 7));
  const LabelTreeMapping label(tree, 7);
  const auto requests = adaptive_requests(label, 200, 0xD15);

  ServerOptions off = adaptive_options({&color, &label});
  off.adaptive = AdaptivePolicy{};  // epoch_batches 0: disabled
  ASSERT_FALSE(off.adaptive.enabled());
  ServerOptions static_opts = off;

  const ServeReport a = run_once(label, off, requests);
  const ServeReport b = run_once(label, static_opts, requests);
  ASSERT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_EQ(a.metrics.find("adaptive"), nullptr);

  // An empty candidate list disables too, whatever the budget says.
  ServerOptions no_candidates = adaptive_options({});
  ASSERT_FALSE(no_candidates.adaptive.enabled());
  const ServeReport c = run_once(label, no_candidates, requests);
  ASSERT_EQ(c.to_json().dump(), b.to_json().dump());
}

TEST(ServeAdaptive, SingleCandidateListNeverPerturbsResponses) {
  // candidates == {base}: the selector observes and plans epochs but can
  // never switch, so every response matches the static server's.
  const CompleteBinaryTree tree(9);
  const LabelTreeMapping label(tree, 7);
  const auto requests = adaptive_requests(label, 200, 0x51C1);

  ServerOptions adaptive = adaptive_options({&label});
  ServerOptions static_opts = adaptive;
  static_opts.adaptive = AdaptivePolicy{};

  const ServeReport got = run_once(label, adaptive, requests);
  const ServeReport want = run_once(label, static_opts, requests);
  ASSERT_EQ(got.responses.size(), want.responses.size());
  for (std::size_t i = 0; i < got.responses.size(); ++i) {
    ASSERT_EQ(got.responses[i].status, want.responses[i].status) << i;
    ASSERT_EQ(got.responses[i].completion_cycle,
              want.responses[i].completion_cycle)
        << i;
    ASSERT_EQ(got.responses[i].batch, want.responses[i].batch) << i;
  }
  const Json* adaptive_section = got.metrics.find("adaptive");
  ASSERT_NE(adaptive_section, nullptr);
  EXPECT_EQ(adaptive_section->find("switches")->as_uint(), 0u);
}

// ---------------------------------------------------------------------------
// Forest: per-tenant scope.

TEST(ServeAdaptive, ForestAdaptsPerTenantWithWorkerInvariance) {
  const CompleteBinaryTree hot_tree(9);
  const ColorMapping hot_color(make_optimal_color_mapping(hot_tree, 7));
  const LabelTreeMapping hot_label(hot_tree, 7);
  const CompleteBinaryTree cold_tree(7);
  const ModuloMapping cold_mapping(cold_tree, 7);

  const auto hot_requests = adaptive_requests(hot_label, 180, 0xF0A);
  const auto cold_requests = adaptive_requests(cold_mapping, 60, 0xF0B);

  auto run_forest = [&](unsigned workers, unsigned pipeline_workers) {
    ForestOptions fopts;
    fopts.tick_cycles = 2;
    fopts.replicas = 4;
    fopts.workers = workers;
    fopts.drr_quantum_nodes = 24;
    fopts.pipeline.workers = pipeline_workers;
    Forest forest(fopts);

    TenantOptions hot;
    hot.rate = 3.0;
    hot.admission.queue_bound = 32;
    hot.batch.max_batch_nodes = 24;
    hot.batch.max_wait_cycles = 4;
    hot.adaptive.epoch_batches = 4;
    hot.adaptive.candidates = {&hot_color, &hot_label};
    forest.add_tenant(hot_label, std::move(hot));

    TenantOptions cold;  // adaptive disabled: the default policy
    cold.admission.queue_bound = 16;
    cold.batch.max_batch_nodes = 16;
    forest.add_tenant(cold_mapping, std::move(cold));

    for (const Request& r : hot_requests) forest.submit(0, r);
    for (const Request& r : cold_requests) forest.submit(1, r);
    return forest.run();
  };

  const ForestReport want = run_forest(1, 0);
  const Json* adaptive = want.tenants[0].metrics.find("adaptive");
  ASSERT_NE(adaptive, nullptr) << "hot tenant's selector never exported";
  EXPECT_GE(adaptive->find("epochs_planned")->as_uint(), 1u);
  EXPECT_EQ(want.tenants[1].metrics.find("adaptive"), nullptr)
      << "adaptation leaked across the tenant boundary";

  for (const unsigned workers : {2u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const ForestReport got = run_forest(workers, 0);
    ASSERT_EQ(got.to_json().dump(), want.to_json().dump());
  }
  for (const unsigned pipeline_workers : {1u, 2u}) {
    SCOPED_TRACE("pipeline_workers=" + std::to_string(pipeline_workers));
    const ForestReport got = run_forest(1, pipeline_workers);
    ASSERT_EQ(got.tenants.size(), want.tenants.size());
    for (std::size_t i = 0; i < got.tenants.size(); ++i) {
      const TenantReport& gt = got.tenants[i];
      const TenantReport& wt = want.tenants[i];
      ASSERT_EQ(gt.responses.size(), wt.responses.size());
      for (std::size_t k = 0; k < gt.responses.size(); ++k) {
        ASSERT_EQ(gt.responses[k].status, wt.responses[k].status);
        ASSERT_EQ(gt.responses[k].completion_cycle,
                  wt.responses[k].completion_cycle);
        ASSERT_EQ(gt.responses[k].batch, wt.responses[k].batch);
      }
      expect_same_metrics_modulo_pipeline(gt.metrics, wt.metrics);
    }
  }
}

// ---------------------------------------------------------------------------
// Faulted tenants keep their static mapping: the fault plan's reroute
// table owns the color space, so an adaptive policy is not installed.

fault::FaultPlan faulted_plan(std::uint32_t modules, std::uint64_t seed) {
  fault::FaultPlan::RandomOptions fopts;
  fopts.seed = seed;
  fopts.modules = modules;
  fopts.fail_fraction = 0.2;
  fopts.fail_window = 64;
  fopts.slowdown_count = 2;
  fopts.slowdown_window = 128;
  fopts.slowdown_max_length = 64;
  fopts.slowdown_max_period = 4;
  return fault::FaultPlan::random(fopts);
}

TEST(ServeAdaptive, FaultedConfigurationKeepsTheStaticMapping) {
  const CompleteBinaryTree tree(9);
  const ColorMapping color(make_optimal_color_mapping(tree, 7));
  const LabelTreeMapping label(tree, 7);
  const auto requests = adaptive_requests(label, 240, 0xFA17);
  const fault::FaultPlan plan = faulted_plan(label.num_modules(), 0xFA17);

  ServerOptions with_policy = adaptive_options({&color, &label});
  // Healthy, this policy switches off the base: the pin below is what
  // keeps the faulted run on it.
  const ServeReport healthy = run_once(label, with_policy, requests);
  ASSERT_GE(healthy.metrics.find("adaptive")->find("switches")->as_uint(),
            1u);

  with_policy.engine.faults = &plan;
  ServerOptions without_policy = with_policy;
  without_policy.adaptive = AdaptivePolicy{};
  const ServeReport got = run_once(label, with_policy, requests);
  const ServeReport want = run_once(label, without_policy, requests);
  ASSERT_EQ(got.to_json().dump(), want.to_json().dump());
  EXPECT_EQ(got.metrics.find("adaptive"), nullptr)
      << "a faulted run must not pretend it adapted";
}

TEST(ServeAdaptive, FaultedForestTenantKeepsTheStaticMapping) {
  const CompleteBinaryTree hot_tree(9);
  const ColorMapping hot_color(make_optimal_color_mapping(hot_tree, 7));
  const LabelTreeMapping hot_label(hot_tree, 7);
  const CompleteBinaryTree cold_tree(7);
  const ModuloMapping cold_mapping(cold_tree, 7);
  const auto hot_requests = adaptive_requests(hot_label, 180, 0xFA18);
  const auto cold_requests = adaptive_requests(cold_mapping, 60, 0xFA19);
  const fault::FaultPlan plan = faulted_plan(hot_label.num_modules(), 0xFA18);

  auto run_forest = [&](bool adaptive) {
    ForestOptions fopts;
    fopts.tick_cycles = 2;
    fopts.replicas = 4;
    fopts.drr_quantum_nodes = 24;
    Forest forest(fopts);

    TenantOptions hot;
    hot.admission.queue_bound = 32;
    hot.batch.max_batch_nodes = 24;
    hot.batch.max_wait_cycles = 4;
    hot.retry.max_retries = 2;
    hot.retry.attempt_timeout_cycles = 48;
    hot.engine.faults = &plan;
    if (adaptive) {
      hot.adaptive.epoch_batches = 4;
      hot.adaptive.candidates = {&hot_color, &hot_label};
    }
    forest.add_tenant(hot_label, std::move(hot));

    TenantOptions cold;
    cold.admission.queue_bound = 16;
    cold.batch.max_batch_nodes = 16;
    forest.add_tenant(cold_mapping, std::move(cold));

    for (const Request& r : hot_requests) forest.submit(0, r);
    for (const Request& r : cold_requests) forest.submit(1, r);
    return forest.run();
  };

  const ForestReport got = run_forest(true);
  const ForestReport want = run_forest(false);
  ASSERT_EQ(got.to_json().dump(), want.to_json().dump());
  EXPECT_EQ(got.tenants[0].metrics.find("adaptive"), nullptr)
      << "a faulted tenant must not pretend it adapted";
}

}  // namespace
}  // namespace pmtree::serve
