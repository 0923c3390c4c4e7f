// EngineSession ≡ CycleEngine::run differential property tests.
//
// The staged serve pipeline (serve/pipeline.hpp) replaces the oracle's
// per-round monolithic replica re-runs with one EngineSession per lane
// that is fed batch-by-batch and drained at round barriers. That swap is
// sound only if a session fed incrementally is bit-identical to
// CycleEngine::run over the same accesses under
// ArrivalSchedule::explicit_cycles of the same arrivals — including
// mid-stream drains (retry rounds replay cumulatively) and the
// feed_resolved entry the pipeline's resolve stage uses. This suite holds
// that identity on randomized (mapping, workload, arrivals) triples
// across every template family and sampling mode, comparing whole
// EngineResult JSON snapshots.
#include "pmtree/engine/session.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "pmtree/engine/engine.hpp"
#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree {
namespace {

using engine::ArrivalSchedule;
using engine::CycleEngine;
using engine::EngineOptions;
using engine::EngineResult;
using engine::EngineSession;

using DepthSampling = EngineOptions::DepthSampling;

/// Same repertoire as test_engine_event_core: the mappings the serve
/// layer actually runs on.
std::unique_ptr<TreeMapping> random_mapping(const CompleteBinaryTree& tree,
                                            Rng& rng) {
  switch (rng.below(5)) {
    case 0: {
      const std::uint32_t M = 7 + static_cast<std::uint32_t>(rng.below(3)) * 8;
      return std::make_unique<ColorMapping>(
          make_optimal_color_mapping(tree, M));
    }
    case 1:
      return std::make_unique<ModuloMapping>(
          tree, 3 + static_cast<std::uint32_t>(rng.below(14)));
    case 2:
      return std::make_unique<LevelShiftMapping>(
          tree, 3 + static_cast<std::uint32_t>(rng.below(14)));
    case 3:
      return std::make_unique<RandomMapping>(
          tree, 3 + static_cast<std::uint32_t>(rng.below(14)), rng());
    default:
      return std::make_unique<LevelModMapping>(
          tree, 2 + static_cast<std::uint32_t>(rng.below(8)));
  }
}

/// A random workload of the requested template family.
Workload random_workload(const CompleteBinaryTree& tree, int family, Rng& rng) {
  const std::size_t count = 5 + rng.below(20);
  const std::uint64_t seed = rng();
  switch (family) {
    case 0: {
      const std::uint64_t K =
          pow2(1 + static_cast<std::uint32_t>(rng.below(4))) - 1;
      return Workload::subtrees(tree, K, count, seed);
    }
    case 1: {
      const std::uint64_t K = 1 + rng.below(tree.levels());
      return Workload::paths(tree, K, count, seed);
    }
    case 2: {
      const std::uint64_t K = 1 + rng.below(16);
      return Workload::level_runs(tree, K, count, seed);
    }
    default: {
      const std::uint64_t c = 2 + rng.below(3);
      const std::uint64_t D = c * (3 + rng.below(10));
      return Workload::composites(tree, D, c, count, seed);
    }
  }
}

/// Nondecreasing arrival cycles with bursty gaps (several accesses per
/// cycle, occasional long idle stretches).
std::vector<std::uint64_t> random_arrivals(std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> cycles(n);
  std::uint64_t t = rng.below(4);
  for (std::size_t i = 0; i < n; ++i) {
    cycles[i] = t;
    if (rng.chance(1, 3)) t += rng.below(12);
  }
  return cycles;
}

/// Whole-trajectory bit identity: EngineResult::to_json covers scalars,
/// records, per-module arrays and both histograms.
void expect_same_result(const EngineResult& got, const EngineResult& want) {
  ASSERT_EQ(got.to_json().dump(), want.to_json().dump());
}

EngineOptions random_options(Rng& rng) {
  EngineOptions options;
  switch (rng.below(3)) {
    case 0: options.sampling = DepthSampling::kEveryBusyCycle; break;
    case 1:
      options.sampling = DepthSampling::kStrided;
      options.sample_stride = 1 + rng.below(7);
      break;
    default: options.sampling = DepthSampling::kOff; break;
  }
  return options;
}

class SessionDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SessionDifferential, FeedDrainMatchesMonolithicRun) {
  const int family = GetParam();
  Rng rng(0x5E5510Du + static_cast<std::uint64_t>(family));
  for (int trial = 0; trial < 40; ++trial) {
    const CompleteBinaryTree tree(6 + static_cast<std::uint32_t>(rng.below(7)));
    const auto mapping = random_mapping(tree, rng);
    const Workload workload = random_workload(tree, family, rng);
    const std::vector<std::uint64_t> arrivals =
        random_arrivals(workload.size(), rng);
    const EngineOptions options = random_options(rng);
    SCOPED_TRACE("trial=" + std::to_string(trial) +
                 " mapping=" + mapping->name() +
                 " accesses=" + std::to_string(workload.size()));

    const CycleEngine eng(*mapping);
    const EngineResult want =
        eng.run(workload, ArrivalSchedule::explicit_cycles(arrivals), options);

    // feed(): the session resolves colors itself.
    EngineSession session(*mapping, options);
    for (std::size_t i = 0; i < workload.size(); ++i) {
      session.feed(workload[i], arrivals[i]);
    }
    ASSERT_EQ(session.accesses(), workload.size());
    expect_same_result(session.drain(), want);

    // feed_resolved(): colors resolved upstream, exactly the pipeline's
    // resolve-stage handoff.
    EngineSession resolved(*mapping, options);
    for (std::size_t i = 0; i < workload.size(); ++i) {
      std::vector<Color> colors(workload[i].size());
      mapping->color_of_batch(workload[i], colors);
      resolved.feed_resolved(colors, arrivals[i]);
    }
    expect_same_result(resolved.drain(), want);
  }
}

TEST_P(SessionDifferential, MidStreamDrainsMatchPrefixRuns) {
  const int family = GetParam();
  Rng rng(0xD4A1Eu + static_cast<std::uint64_t>(family));
  for (int trial = 0; trial < 10; ++trial) {
    const CompleteBinaryTree tree(6 + static_cast<std::uint32_t>(rng.below(5)));
    const auto mapping = random_mapping(tree, rng);
    const Workload workload = random_workload(tree, family, rng);
    const std::vector<std::uint64_t> arrivals =
        random_arrivals(workload.size(), rng);
    SCOPED_TRACE("trial=" + std::to_string(trial) +
                 " mapping=" + mapping->name());

    const CycleEngine eng(*mapping);
    EngineSession session(*mapping);
    for (std::size_t k = 0; k < workload.size(); ++k) {
      session.feed(workload[k], arrivals[k]);
      // Drain after every feed: each one must equal a monolithic run over
      // the prefix. This is the retry-round contract — draining again
      // after more feeds extends, never rewrites, earlier completions.
      std::vector<Workload::Access> prefix(
          workload.accesses().begin(),
          workload.accesses().begin() + static_cast<std::ptrdiff_t>(k + 1));
      std::vector<std::uint64_t> prefix_arrivals(
          arrivals.begin(), arrivals.begin() + static_cast<std::ptrdiff_t>(k + 1));
      const EngineResult want = eng.run(
          Workload(std::move(prefix)),
          ArrivalSchedule::explicit_cycles(std::move(prefix_arrivals)),
          EngineOptions{});
      expect_same_result(session.drain(), want);
    }
  }
}

std::string family_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"Subtrees", "Paths", "LevelRuns",
                                       "Composites"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, SessionDifferential,
                         ::testing::Values(0, 1, 2, 3), family_name);

TEST(EngineSession, FaultedSessionMatchesMonolithicRunAndExtends) {
  // The degraded loop reroutes by color, so a session carries a fault plan
  // like any other option. Fed batch by batch and drained twice, the
  // second drain must extend the first (its records for the first part
  // unchanged) and equal CycleEngine::run on the same explicit arrivals.
  // The second part arrives after the plan's last fail-stop: a fail-stop
  // drains its queue onto the tail of the reroute target, behind requests
  // that arrived in the meantime, so a replay spanning a fail-stop may
  // delay earlier accesses — the serve layer never re-reads an earlier
  // round's completions, and this test pins the case where none moves.
  constexpr std::uint64_t kFailWindow = 48;
  std::uint64_t rerouted = 0;
  std::uint64_t stalled = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(0xFA17ED00u + seed);
    const CompleteBinaryTree tree(7 + static_cast<std::uint32_t>(rng.below(4)));
    const auto mapping = random_mapping(tree, rng);
    fault::FaultPlan::RandomOptions fopts;
    fopts.seed = rng();
    fopts.modules = mapping->num_modules();
    fopts.fail_fraction = 0.3;
    fopts.fail_window = kFailWindow;
    fopts.slowdown_count = 4;
    fopts.slowdown_window = 2 * kFailWindow;
    fopts.slowdown_max_length = 64;
    const fault::FaultPlan plan = fault::FaultPlan::random(fopts);
    EngineOptions options = random_options(rng);
    options.faults = &plan;

    const Workload workload =
        random_workload(tree, static_cast<int>(rng.below(4)), rng);
    const std::size_t half = workload.size() / 2;
    std::vector<std::uint64_t> arrivals = random_arrivals(workload.size(), rng);
    for (std::size_t i = half; i < arrivals.size(); ++i) {
      arrivals[i] += kFailWindow + arrivals[half == 0 ? 0 : half - 1];
    }

    EngineSession session(*mapping, options);
    for (std::size_t i = 0; i < half; ++i) {
      session.feed(workload[i], arrivals[i]);
    }
    const EngineResult first = session.drain();
    for (std::size_t i = half; i < workload.size(); ++i) {
      std::vector<Color> colors(workload[i].size());
      mapping->color_of_batch(workload[i], colors);
      session.feed_resolved(colors, arrivals[i]);
    }
    const EngineResult second = session.drain();
    ASSERT_EQ(first.records.size(), half);
    for (std::size_t i = 0; i < half; ++i) {
      ASSERT_EQ(second.records[i].completion, first.records[i].completion)
          << "access " << i;
    }

    const CycleEngine eng(*mapping);
    const EngineResult want =
        eng.run(workload, ArrivalSchedule::explicit_cycles(arrivals), options);
    expect_same_result(second, want);
    rerouted += second.rerouted_requests;
    stalled += second.stalled_cycles;
  }
  EXPECT_GT(rerouted, 0u);
  EXPECT_GT(stalled, 0u);
}

TEST(EngineSession, EmptySessionDrainsToEmptyResult) {
  const CompleteBinaryTree tree(8);
  const ModuloMapping mapping(tree, 7);
  const EngineSession session(mapping);
  const EngineResult empty = session.drain();
  EXPECT_EQ(empty.accesses, 0u);
  EXPECT_EQ(empty.requests, 0u);
  EXPECT_EQ(empty.completion_cycle, 0u);
  EXPECT_TRUE(empty.records.empty());

  const CycleEngine eng(mapping);
  const EngineResult want =
      eng.run(Workload(), ArrivalSchedule::all_at_once());
  ASSERT_EQ(empty.to_json().dump(), want.to_json().dump());
}

TEST(EngineSession, EmptyAccessesRideAlong) {
  // Zero-node accesses (an admitted request whose node set coalesced to
  // nothing never happens in serving, but the engine defines them:
  // completion == arrival). Interleave them with real accesses.
  const CompleteBinaryTree tree(8);
  const ModuloMapping mapping(tree, 5);
  std::vector<Workload::Access> accesses;
  accesses.push_back({});
  accesses.push_back({Node{0, 0}, Node{1, 0}, Node{1, 1}});
  accesses.push_back({});
  const Workload workload{std::move(accesses)};
  const std::vector<std::uint64_t> arrivals{0, 2, 2};

  const CycleEngine eng(mapping);
  const EngineResult want =
      eng.run(workload, ArrivalSchedule::explicit_cycles(arrivals));

  EngineSession session(mapping);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    session.feed(workload[i], arrivals[i]);
  }
  ASSERT_EQ(session.drain().to_json().dump(), want.to_json().dump());
}

TEST(EngineSession, ClearResetsForReuse) {
  Rng rng(0xC1EA4);
  const CompleteBinaryTree tree(9);
  const auto mapping = random_mapping(tree, rng);
  const Workload first = random_workload(tree, 1, rng);
  const Workload second = random_workload(tree, 2, rng);
  const std::vector<std::uint64_t> first_arrivals =
      random_arrivals(first.size(), rng);
  const std::vector<std::uint64_t> second_arrivals =
      random_arrivals(second.size(), rng);

  EngineSession session(*mapping);
  for (std::size_t i = 0; i < first.size(); ++i) {
    session.feed(first[i], first_arrivals[i]);
  }
  (void)session.drain();
  session.clear();
  ASSERT_EQ(session.accesses(), 0u);
  for (std::size_t i = 0; i < second.size(); ++i) {
    session.feed(second[i], second_arrivals[i]);
  }

  EngineSession fresh(*mapping);
  for (std::size_t i = 0; i < second.size(); ++i) {
    fresh.feed(second[i], second_arrivals[i]);
  }
  ASSERT_EQ(session.drain().to_json().dump(), fresh.drain().to_json().dump());
}

}  // namespace
}  // namespace pmtree
