// Golden fingerprints of the serve control plane (DESIGN.md §11/§13/§14).
//
// The differential suites compare the inline executor (pipeline.workers
// == 0) with the staged one (pipeline.workers >= 1). Both executors run
// the same control plane, so those suites cannot see a change in the
// control plane's own decisions — admission, batch cuts, retries, epoch
// switches, mutation verdicts. This suite pins them: each seeded Server /
// Forest configuration below hashes (FNV-1a 64) its responses, batches,
// per-lane EngineResult JSON, mutation log and metrics (minus the
// wall-time "pipeline" section) and compares the hash with a constant
// recorded from the inline path. Every executor setting — inline and
// staged at 1/2/8 workers — must reproduce every constant.
//
// A mismatch prints the fingerprint the run produced. Update a constant
// only for a change that is meant to alter serving decisions, and say so
// in the change log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pmtree/dyn/dynamic_tree.hpp"
#include "pmtree/dyn/incremental.hpp"
#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/mem/arena.hpp"
#include "pmtree/serve/forest.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree::serve {
namespace {

// ---------------------------------------------------------------------------
// Fingerprinting.

class Fnv {
 public:
  void add(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) byte(static_cast<unsigned char>(x >> (8 * b)));
  }
  void add(const std::string& s) {
    add(std::uint64_t{s.size()});
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// `metrics` with its "pipeline" member removed (wall time, so the one
/// part of a report that legitimately varies between runs).
std::string without_pipeline(const Json& metrics) {
  Json copy = Json::object();
  for (const auto& [key, value] : metrics.members()) {
    if (key != "pipeline") copy.set(key, value);
  }
  return copy.dump();
}

void add_responses(Fnv& h, const std::vector<Response>& responses) {
  h.add(std::uint64_t{responses.size()});
  for (const Response& r : responses) {
    h.add(r.client);
    h.add(r.seq);
    h.add(static_cast<std::uint64_t>(r.status));
    h.add(r.submit_cycle);
    h.add(r.admitted_cycle);
    h.add(r.dispatch_cycle);
    h.add(r.completion_cycle);
    h.add(r.batch);
    h.add(r.retries);
  }
}

void add_batches(Fnv& h, const std::vector<FormedBatch>& batches) {
  h.add(std::uint64_t{batches.size()});
  for (const FormedBatch& b : batches) {
    h.add(b.id);
    h.add(b.formed_cycle);
    h.add(b.requested_nodes);
    h.add(std::uint64_t{b.members.size()});
    for (const std::size_t m : b.members) h.add(m);
    h.add(std::uint64_t{b.nodes.size()});
    for (const Node& n : b.nodes) {
      h.add(n.level);
      h.add(n.index);
    }
    h.add(std::uint64_t{b.decomposition.component_count()});
    for (const Node& n : b.decomposition.nodes()) {
      h.add(n.level);
      h.add(n.index);
    }
  }
}

void add_lanes(Fnv& h, const std::vector<engine::EngineResult>& lanes) {
  h.add(std::uint64_t{lanes.size()});
  for (const engine::EngineResult& r : lanes) h.add(r.to_json().dump());
}

std::uint64_t fingerprint(const ServeReport& report) {
  Fnv h;
  add_responses(h, report.responses);
  add_batches(h, report.batches);
  add_lanes(h, report.replicas);
  h.add(std::uint64_t{report.mutations.size()});
  for (const MutationRecord& m : report.mutations) {
    h.add(m.batch);
    h.add(m.client);
    h.add(m.seq);
    h.add(static_cast<std::uint64_t>(m.kind));
    h.add(m.target.level);
    h.add(m.target.index);
    h.add(static_cast<std::uint64_t>(m.payload));
    h.add(static_cast<std::uint64_t>(m.status));
    h.add(m.applied_cycle);
  }
  h.add(report.ticks);
  h.add(report.rounds);
  h.add(report.final_cycle);
  h.add(report.memory.to_json().dump());
  h.add(without_pipeline(report.metrics));
  return h.value();
}

std::uint64_t fingerprint(const ForestReport& report) {
  Fnv h;
  h.add(std::uint64_t{report.tenants.size()});
  for (const TenantReport& t : report.tenants) {
    h.add(t.name);
    add_responses(h, t.responses);
    add_batches(h, t.batches);
    add_lanes(h, t.lanes);
    h.add(t.served_nodes);
    h.add(t.memory.to_json().dump());
    h.add(t.metrics.dump());
  }
  h.add(report.ticks);
  h.add(report.rounds);
  h.add(report.final_cycle);
  for (const auto& [key, value] : report.metrics.members()) {
    h.add(key);
    h.add(key == "forest" ? without_pipeline(value) : value.dump());
  }
  return h.value();
}

// ---------------------------------------------------------------------------
// Seeded traffic.

/// Reads over a `levels`-level tree; `hot` > 0 aims that percentage of
/// requests at the first eighth of the bottom level (a skewed hot spot).
std::vector<Request> reads(std::uint32_t levels, std::size_t count,
                           std::uint64_t seed, std::uint32_t hot = 0,
                           std::uint32_t clients = 4,
                           std::uint64_t deadline = 0) {
  Rng rng(seed);
  std::vector<Request> out;
  std::vector<std::uint64_t> next_seq(clients, 0);
  std::uint64_t clock = 0;
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.below(4);
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(clients));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    if (deadline != 0 && rng.chance(1, 3)) r.deadline_cycles = deadline;
    if (rng.below(100) < hot) {
      const std::uint64_t span = pow2(levels - 1) / 8;
      const std::uint64_t start = rng.below(span);
      for (std::uint64_t k = 0; k < 3; ++k) {
        r.nodes.push_back(v((start + k) % span, levels - 1));
      }
    } else {
      const std::size_t nodes = rng.between(1, 6);
      for (std::size_t k = 0; k < nodes; ++k) {
        const auto level = static_cast<std::uint32_t>(rng.below(levels));
        r.nodes.push_back(v(rng.below(pow2(level)), level));
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// Mixed reads / inserts / erases over a dynamic tree.
std::vector<Request> mixed(std::uint32_t levels, std::size_t count,
                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> out;
  std::vector<std::uint64_t> next_seq(4, 0);
  std::uint64_t clock = 0;
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.below(4);
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(4));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    const std::uint64_t dice = rng.below(100);
    if (dice < 25) {
      r.kind = RequestKind::kInsert;
      const auto level = static_cast<std::uint32_t>(rng.between(1, 5));
      r.target = Node{level, rng.below(pow2(level))};
      r.payload = static_cast<std::int64_t>(rng.below(1000));
      for (Node cur = r.target;; cur = parent(cur)) {
        r.nodes.push_back(cur);
        if (cur.level == 0) break;
      }
    } else if (dice < 40) {
      r.kind = RequestKind::kErase;
      const auto level = static_cast<std::uint32_t>(rng.between(1, 5));
      r.target = Node{level, rng.below(pow2(level))};
      r.nodes.push_back(r.target);
    } else {
      const std::size_t nodes = rng.between(1, 5);
      for (std::size_t k = 0; k < nodes; ++k) {
        const auto level = static_cast<std::uint32_t>(rng.below(levels));
        r.nodes.push_back(Node{level, rng.below(pow2(level))});
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

fault::FaultPlan random_faults(std::uint32_t modules, std::uint64_t seed) {
  fault::FaultPlan::RandomOptions fopts;
  fopts.seed = seed;
  fopts.modules = modules;
  fopts.fail_fraction = 0.25;
  fopts.fail_window = 96;
  fopts.slowdown_count = 3;
  fopts.slowdown_window = 256;
  fopts.slowdown_max_length = 96;
  fopts.slowdown_max_period = 4;
  return fault::FaultPlan::random(fopts);
}

ServerOptions base_server() {
  ServerOptions opts;
  opts.tick_cycles = 2;
  opts.replicas = 3;
  opts.workers = 2;
  opts.admission.queue_bound = 24;
  opts.admission.overflow = OverflowPolicy::kBlock;
  opts.batch.max_batch_nodes = 20;
  opts.batch.max_wait_cycles = 6;
  opts.engine.sampling = engine::EngineOptions::DepthSampling::kStrided;
  opts.engine.sample_stride = 8;
  return opts;
}

// ---------------------------------------------------------------------------
// The pinned configurations. Each builds its own world per run, so one
// run's dynamic tree or arena state never leaks into the next.

/// One run: its fingerprint plus the metrics JSON the coverage check
/// reads (Server: the report's metrics; Forest: the rollup).
struct Outcome {
  std::uint64_t fingerprint = 0;
  Json metrics;
};

struct Golden {
  const char* name;
  std::function<Outcome(unsigned pipeline_workers)> run;
  std::uint64_t want;
  /// Dotted metric paths (array items by index) that must read > 0, so
  /// the case provably exercises the feature it is named after.
  std::vector<std::string> covers;
};

Outcome serve(const TreeMapping& mapping, ServerOptions opts,
              const std::vector<Request>& requests,
              unsigned pipeline_workers) {
  opts.pipeline.workers = pipeline_workers;
  Server server(mapping, opts);
  server.submit(requests);
  const ServeReport report = server.run();
  return Outcome{fingerprint(report), report.metrics};
}

Outcome server_static(unsigned pw) {
  const CompleteBinaryTree tree(9);
  const ColorMapping mapping = make_optimal_color_mapping(tree, 7);
  ServerOptions opts = base_server();
  opts.admission.overflow = OverflowPolicy::kShed;
  opts.admission.queue_bound = 3;
  return serve(mapping, opts, reads(9, 400, 11, 0, 6, 4), pw);
}

Outcome server_modulo_retries(unsigned pw) {
  const CompleteBinaryTree tree(8);
  const ModuloMapping mapping(tree, 5);
  ServerOptions opts = base_server();
  opts.engine.sampling = engine::EngineOptions::DepthSampling::kOff;
  opts.retry.max_retries = 2;
  opts.retry.attempt_timeout_cycles = 3;
  opts.retry.backoff_base_cycles = 3;
  return serve(mapping, opts, reads(8, 300, 12), pw);
}

Outcome server_faults(unsigned pw) {
  const CompleteBinaryTree tree(9);
  const ColorMapping mapping = make_optimal_color_mapping(tree, 9);
  const fault::FaultPlan plan = random_faults(9, 0xFA17);
  ServerOptions opts = base_server();
  opts.engine.faults = &plan;
  opts.retry.max_retries = 2;
  opts.retry.attempt_timeout_cycles = 10;
  opts.retry.backoff_base_cycles = 4;
  return serve(mapping, opts, reads(9, 400, 13, 0, 4, 60), pw);
}

Outcome server_migration(unsigned pw) {
  const CompleteBinaryTree tree(10);
  const ColorMapping mapping = make_optimal_color_mapping(tree, 7);
  ServerOptions opts = base_server();
  opts.migration.epoch_batches = 8;
  opts.migration.subtree_level = 3;
  opts.migration.top_k = 3;
  return serve(mapping, opts, reads(10, 500, 14, 80), pw);
}

Outcome server_adaptive(unsigned pw) {
  const CompleteBinaryTree tree(9);
  const ColorMapping color = make_optimal_color_mapping(tree, 7);
  const LabelTreeMapping label(tree, 7, LabelTreeMapping::Retrieval::kTable);
  const ModuloMapping modulo(tree, 7);
  ServerOptions opts = base_server();
  opts.adaptive.epoch_batches = 6;
  opts.adaptive.candidates = {&color, &label, &modulo};
  return serve(color, opts, reads(9, 500, 15, 60), pw);
}

Outcome server_dyn(unsigned pw) {
  const CompleteBinaryTree envelope(8);
  dyn::DynamicTree tree(8);
  dyn::IncrementalColorer colorer =
      dyn::IncrementalColorer::color(envelope, 5, 2);
  ServerOptions opts = base_server();
  opts.dyn.tree = &tree;
  opts.dyn.colorer = &colorer;
  Outcome out = serve(colorer, opts, mixed(8, 300, 16), pw);
  Fnv h;
  h.add(out.fingerprint);
  h.add(tree.version());
  h.add(colorer.nodes_colored());
  out.fingerprint = h.value();
  return out;
}

Outcome server_arenas(unsigned pw) {
  const CompleteBinaryTree tree(9);
  const ColorMapping mapping = make_optimal_color_mapping(tree, 7);
  const mem::MemoryBackend backend(mapping, mem::ArenaOptions{32, 7});
  ServerOptions opts = base_server();
  opts.memory = &backend;
  opts.retry.max_retries = 1;
  opts.retry.attempt_timeout_cycles = 3;
  return serve(mapping, opts, reads(9, 300, 17, 30), pw);
}

struct World {
  std::vector<std::unique_ptr<CompleteBinaryTree>> trees;
  std::vector<std::unique_ptr<TreeMapping>> mappings;
  std::vector<std::unique_ptr<fault::FaultPlan>> plans;
  std::vector<std::unique_ptr<mem::MemoryBackend>> arenas;

  const TreeMapping& color(std::uint32_t levels, std::uint32_t modules) {
    trees.push_back(std::make_unique<CompleteBinaryTree>(levels));
    mappings.push_back(std::make_unique<ColorMapping>(
        make_optimal_color_mapping(*trees.back(), modules)));
    return *mappings.back();
  }
};

TenantOptions tenant(double rate, std::uint64_t weight) {
  TenantOptions t;
  t.rate = rate;
  t.weight = weight;
  t.admission.queue_bound = 16;
  t.batch.max_batch_nodes = 16;
  t.batch.max_wait_cycles = 6;
  t.engine.sampling = engine::EngineOptions::DepthSampling::kStrided;
  t.engine.sample_stride = 8;
  return t;
}

Outcome forest(ForestOptions opts, unsigned pw,
                     const std::vector<const TreeMapping*>& mappings,
                     const std::vector<TenantOptions>& tenants,
                     const std::vector<std::vector<Request>>& traffic) {
  opts.pipeline.workers = pw;
  Forest f(opts);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    f.add_tenant(*mappings[i], tenants[i]);
  }
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    f.submit(static_cast<std::uint32_t>(i), traffic[i]);
  }
  const ForestReport report = f.run();
  return Outcome{fingerprint(report), report.metrics};
}

ForestOptions base_forest() {
  ForestOptions opts;
  opts.tick_cycles = 2;
  opts.replicas = 6;
  opts.workers = 2;
  opts.drr_quantum_nodes = 16;
  return opts;
}

Outcome forest_static(unsigned pw) {
  World w;
  const auto& a = w.color(8, 5);
  const auto& b = w.color(9, 7);
  const auto& c = w.color(7, 3);
  return forest(base_forest(), pw, {&a, &b, &c},
                {tenant(1, 1), tenant(2, 2), tenant(3, 1)},
                {reads(8, 150, 21), reads(9, 200, 22), reads(7, 120, 23)});
}

Outcome forest_pooled_drr(unsigned pw) {
  World w;
  const auto& a = w.color(8, 5);
  const auto& b = w.color(9, 7);
  const auto& c = w.color(8, 5);
  ForestOptions opts = base_forest();
  opts.global_queue_bound = 6;
  opts.drr_quantum_nodes = 8;
  std::vector<TenantOptions> t = {tenant(1, 1), tenant(1, 3), tenant(2, 2)};
  t[0].admission.overflow = OverflowPolicy::kShed;
  t[0].admission.queue_bound = 6;
  t[2].admission.overflow = OverflowPolicy::kShed;
  t[2].admission.queue_bound = 4;
  return forest(opts, pw, {&a, &b, &c}, t,
                {reads(8, 250, 24, 0, 3, 20), reads(9, 250, 25),
                 reads(8, 250, 26, 0, 2, 30)});
}

Outcome forest_faults(unsigned pw) {
  World w;
  const auto& a = w.color(8, 5);
  const auto& b = w.color(9, 9);
  w.plans.push_back(
      std::make_unique<fault::FaultPlan>(random_faults(9, 0xBEEF)));
  std::vector<TenantOptions> t = {tenant(1, 1), tenant(2, 2)};
  t[1].engine.faults = w.plans.back().get();
  t[1].retry.max_retries = 2;
  t[1].retry.attempt_timeout_cycles = 8;
  t[1].retry.backoff_base_cycles = 4;
  return forest(base_forest(), pw, {&a, &b}, t,
                {reads(8, 200, 27), reads(9, 300, 28, 0, 4, 64)});
}

Outcome forest_epochs(unsigned pw) {
  World w;
  const auto& a = w.color(10, 7);
  const auto& b = w.color(9, 7);
  w.trees.push_back(std::make_unique<CompleteBinaryTree>(9));
  w.mappings.push_back(std::make_unique<LabelTreeMapping>(
      *w.trees.back(), 7, LabelTreeMapping::Retrieval::kTable));
  const TreeMapping& label = *w.mappings.back();
  std::vector<TenantOptions> t = {tenant(2, 2), tenant(1, 1)};
  t[0].migration.epoch_batches = 6;
  t[0].migration.subtree_level = 3;
  t[1].adaptive.epoch_batches = 5;
  t[1].adaptive.candidates = {&b, &label};
  return forest(base_forest(), pw, {&a, &b}, t,
                {reads(10, 300, 29, 80), reads(9, 300, 30, 50)});
}

Outcome forest_arenas(unsigned pw) {
  World w;
  const auto& a = w.color(9, 7);
  const auto& b = w.color(8, 5);
  w.arenas.push_back(
      std::make_unique<mem::MemoryBackend>(a, mem::ArenaOptions{16, 3}));
  std::vector<TenantOptions> t = {tenant(1, 2), tenant(1, 1)};
  t[0].memory = w.arenas.back().get();
  return forest(base_forest(), pw, {&a, &b}, t,
                {reads(9, 250, 31, 40), reads(8, 200, 32)});
}

const std::vector<Golden>& goldens() {
  static const std::vector<Golden> table = {
      {"server_static", server_static, 0x4469483a4ce68dedull,
       {"counters.shed", "counters.expired"}},
      {"server_modulo_retries", server_modulo_retries, 0x4af019106aed19abull,
       {"faults.retries"}},
      {"server_faults", server_faults, 0xc1d6cc337e90b1b4ull,
       {"faults.retries", "faults.rerouted_requests", "faults.stalled_cycles",
        "counters.expired"}},
      {"server_migration", server_migration, 0xbd0f4e4810728dacull,
       {"migration.subtrees_moved"}},
      {"server_adaptive", server_adaptive, 0xb3863d2dbc6aeaa8ull,
       {"adaptive.switches"}},
      {"server_dyn", server_dyn, 0xe5311d6208f25c61ull,
       {"dyn.mutations.applied", "dyn.mutations.rejected"}},
      {"server_arenas", server_arenas, 0x1f40759c08a609dfull,
       {"memory.touched.nodes", "faults.retries"}},
      {"forest_static", forest_static, 0xc6e73b0aa84e843aull,
       {"forest.batches.count"}},
      {"forest_pooled_drr", forest_pooled_drr, 0x494b13f4b403d126ull,
       {"forest.counters.shed", "forest.counters.blocked",
        "global_queue_bound"}},
      {"forest_faults", forest_faults, 0xc4822a9aae72822aull,
       {"tenants.1.metrics.faults.retries",
        "tenants.1.metrics.faults.rerouted_requests",
        "tenants.1.metrics.faults.stalled_cycles"}},
      {"forest_epochs", forest_epochs, 0x7ebb2f67225b287cull,
       {"tenants.0.metrics.migration.subtrees_moved",
        "tenants.1.metrics.adaptive.switches"}},
      {"forest_arenas", forest_arenas, 0x1604f40ade5b9115ull,
       {"tenants.0.metrics.memory.touched.nodes"}},
  };
  return table;
}

/// The number at dotted `path` in `j` (array items addressed by index),
/// or 0 when the path does not resolve.
double at_path(const Json& j, const std::string& path) {
  const Json* cur = &j;
  std::size_t pos = 0;
  while (cur != nullptr && pos <= path.size()) {
    const std::size_t dot = std::min(path.find('.', pos), path.size());
    const std::string key = path.substr(pos, dot - pos);
    if (cur->type() == Json::Type::kArray) {
      const std::size_t i = std::stoul(key);
      cur = i < cur->items().size() ? &cur->items()[i] : nullptr;
    } else {
      cur = cur->find(key);
    }
    pos = dot + 1;
  }
  return cur == nullptr ? 0.0 : cur->as_number();
}

void expect_golden(unsigned pipeline_workers) {
  for (const Golden& g : goldens()) {
    const Outcome got = g.run(pipeline_workers);
    EXPECT_EQ(got.fingerprint, g.want)
        << g.name << " at pipeline.workers=" << pipeline_workers
        << ": got 0x" << std::hex << got.fingerprint << "ull";
    for (const std::string& path : g.covers) {
      EXPECT_GT(at_path(got.metrics, path), 0.0) << g.name << ": " << path;
    }
  }
}

TEST(ServeGolden, InlineExecutorReproducesEveryFingerprint) {
  expect_golden(0);
}

TEST(ServeGolden, StagedExecutorAtOneWorker) { expect_golden(1); }
TEST(ServeGolden, StagedExecutorAtTwoWorkers) { expect_golden(2); }
TEST(ServeGolden, StagedExecutorAtEightWorkers) { expect_golden(8); }

}  // namespace
}  // namespace pmtree::serve
