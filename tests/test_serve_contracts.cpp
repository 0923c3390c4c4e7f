// Configuration contracts of the serve control plane, held in the build
// people run (Release, NDEBUG): every feature combination the control
// plane cannot compose, and every Forest call that would index out of
// bounds, throws — none of them runs silently.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "pmtree/dyn/dynamic_tree.hpp"
#include "pmtree/dyn/incremental.hpp"
#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/mem/arena.hpp"
#include "pmtree/serve/forest.hpp"
#include "pmtree/serve/server.hpp"

namespace pmtree::serve {
namespace {

class ServeContracts : public ::testing::Test {
 protected:
  ServeContracts()
      : tree_(8),
        color_(make_optimal_color_mapping(tree_, 7)),
        label_(tree_, 7),
        arenas_(color_),
        dyn_tree_(8),
        colorer_(dyn::IncrementalColorer::color(tree_, 5, 2)) {}

  MigrationPolicy migration() const {
    MigrationPolicy p;
    p.epoch_batches = 4;
    return p;
  }
  AdaptivePolicy adaptive() const {
    AdaptivePolicy p;
    p.epoch_batches = 4;
    p.candidates = {&color_, &label_};
    return p;
  }
  DynBinding dyn() {
    DynBinding b;
    b.tree = &dyn_tree_;
    b.colorer = &colorer_;
    return b;
  }

  CompleteBinaryTree tree_;
  ColorMapping color_;
  LabelTreeMapping label_;
  mem::MemoryBackend arenas_;
  dyn::DynamicTree dyn_tree_;
  dyn::IncrementalColorer colorer_;
};

TEST_F(ServeContracts, ServerRejectsDynWithMigration) {
  ServerOptions opts;
  opts.dyn = dyn();
  opts.migration = migration();
  EXPECT_THROW(Server(colorer_, opts), std::invalid_argument);
}

TEST_F(ServeContracts, ServerRejectsDynWithAdaptive) {
  ServerOptions opts;
  opts.dyn = dyn();
  opts.adaptive = adaptive();
  EXPECT_THROW(Server(colorer_, opts), std::invalid_argument);
}

TEST_F(ServeContracts, ServerRejectsMigrationWithAdaptive) {
  ServerOptions opts;
  opts.migration = migration();
  opts.adaptive = adaptive();
  EXPECT_THROW(Server(color_, opts), std::invalid_argument);
}

TEST_F(ServeContracts, ForestRejectsTenantMigrationWithAdaptive) {
  Forest forest;
  TenantOptions t;
  t.migration = migration();
  t.adaptive = adaptive();
  EXPECT_THROW(forest.add_tenant(color_, t), std::invalid_argument);
  EXPECT_EQ(forest.tenant_count(), 0u);
}

TEST_F(ServeContracts, ServerRejectsDynWithArenas) {
  ServerOptions opts;
  opts.dyn = dyn();
  opts.memory = &arenas_;
  EXPECT_THROW(Server(colorer_, opts), std::invalid_argument);
}

/// Adaptive candidates the control plane must refuse: each would index
/// past the selector's per-module scratch or the lane engine's arena in a
/// Release build, where no assert catches it.
struct MisshapenCandidates {
  CompleteBinaryTree other_tree{9};
  ColorMapping other_tree_color = make_optimal_color_mapping(other_tree, 7);
  LabelTreeMapping more_modules{CompleteBinaryTree(8), 8};

  [[nodiscard]] std::vector<const TreeMapping*> all() const {
    return {nullptr, &other_tree_color, &more_modules};
  }
};

TEST_F(ServeContracts, ServerRejectsMisshapenAdaptiveCandidates) {
  const MisshapenCandidates bad;
  for (const TreeMapping* candidate : bad.all()) {
    ServerOptions opts;
    opts.adaptive = adaptive();
    opts.adaptive.candidates.push_back(candidate);
    EXPECT_THROW(Server(color_, opts), std::invalid_argument);
  }
}

TEST_F(ServeContracts, ForestRejectsMisshapenAdaptiveCandidates) {
  const MisshapenCandidates bad;
  for (const TreeMapping* candidate : bad.all()) {
    Forest forest;
    TenantOptions t;
    t.adaptive = adaptive();
    t.adaptive.candidates.push_back(candidate);
    EXPECT_THROW(forest.add_tenant(color_, t), std::invalid_argument);
    EXPECT_EQ(forest.tenant_count(), 0u);
  }
}

TEST_F(ServeContracts, ForestSubmitToUnknownTenantThrows) {
  Forest forest;
  forest.add_tenant(color_);
  Request r;
  r.nodes.push_back(v(0, 0));
  EXPECT_THROW(forest.submit(1, r), std::out_of_range);
  forest.submit(0, r);
  EXPECT_EQ(forest.run().total_requests(), 1u);
}

TEST_F(ServeContracts, ForestAddTenantAfterRunThrows) {
  Forest forest;
  forest.add_tenant(color_);
  (void)forest.run();
  EXPECT_THROW(forest.add_tenant(label_), std::logic_error);
  EXPECT_EQ(forest.tenant_count(), 1u);
  EXPECT_EQ(forest.run().tenants.size(), 1u);
}

TEST_F(ServeContracts, ComposableFeaturesStillConstruct) {
  // Faults compose with everything: an epoch controller is simply pinned
  // to the static mapping, and dyn runs its barrier as usual.
  fault::FaultPlan faults;
  faults.fail_stop(1, 10);
  ServerOptions with_faults;
  with_faults.engine.faults = &faults;
  with_faults.migration = migration();
  EXPECT_NO_THROW(Server(color_, with_faults));
  ServerOptions dyn_faults;
  dyn_faults.dyn = dyn();
  dyn_faults.engine.faults = &faults;
  EXPECT_NO_THROW(Server(colorer_, dyn_faults));
  ServerOptions arenas;
  arenas.memory = &arenas_;
  arenas.adaptive = adaptive();
  EXPECT_NO_THROW(Server(color_, arenas));
}

}  // namespace
}  // namespace pmtree::serve
