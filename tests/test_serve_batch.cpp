// BatchFormer unit tests: the coalescing kernel (sort, dedup), the
// derived decomposition into maximal per-level runs, and the cut policy
// (node threshold, wait budget, oversized requests).
#include "pmtree/serve/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "pmtree/serve/admission.hpp"
#include "pmtree/serve/request.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree::serve {
namespace {

Request make_request(std::uint64_t seq, std::uint64_t submit,
                     std::vector<Node> nodes) {
  Request r;
  r.client = 0;
  r.seq = seq;
  r.submit_cycle = submit;
  r.nodes = std::move(nodes);
  return r;
}

TEST(BatchCoalesce, SortsDedupsAndFindsMaximalRuns) {
  std::vector<Node> nodes{v(5, 3), v(2, 3), v(3, 3), v(2, 3), v(0, 0),
                          v(6, 3)};
  BatchFormer::coalesce(nodes);
  const CompositeInstance c = level_runs(nodes);

  // Deduped and in (level, index) order.
  const std::vector<Node> want{v(0, 0), v(2, 3), v(3, 3), v(5, 3), v(6, 3)};
  EXPECT_EQ(nodes, want);

  // Maximal runs: {root}, {v(2..3, 3)}, {v(5..6, 3)} — a C(5, 3).
  ASSERT_EQ(c.component_count(), 3u);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_TRUE(c.is_disjoint());
  const auto* run0 = c.parts()[0].get_if<LevelRunInstance>();
  const auto* run1 = c.parts()[1].get_if<LevelRunInstance>();
  const auto* run2 = c.parts()[2].get_if<LevelRunInstance>();
  ASSERT_NE(run0, nullptr);
  ASSERT_NE(run1, nullptr);
  ASSERT_NE(run2, nullptr);
  EXPECT_EQ(run0->first, v(0, 0));
  EXPECT_EQ(run0->size, 1u);
  EXPECT_EQ(run1->first, v(2, 3));
  EXPECT_EQ(run1->size, 2u);
  EXPECT_EQ(run2->first, v(5, 3));
  EXPECT_EQ(run2->size, 2u);
  // The composite's flattened node order matches the deduped input.
  EXPECT_EQ(c.nodes(), want);
}

TEST(BatchCoalesce, RunsNeverSpanLevels) {
  // v(3, 2) is the last node of level 2; v(0, 3) is BFS-adjacent but on
  // the next level — they must form two runs, not one.
  std::vector<Node> nodes{v(3, 2), v(0, 3)};
  BatchFormer::coalesce(nodes);
  const CompositeInstance c = level_runs(nodes);
  ASSERT_EQ(c.component_count(), 2u);
  EXPECT_EQ(c.size(), 2u);
}

TEST(BatchCoalesce, EmptyInputYieldsEmptyComposite) {
  std::vector<Node> nodes;
  BatchFormer::coalesce(nodes);
  const CompositeInstance c = level_runs(nodes);
  EXPECT_EQ(c.component_count(), 0u);
  EXPECT_EQ(c.size(), 0u);
}

TEST(BatchFormer, HoldsUntilWaitBudgetElapses) {
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 1000,
                                 .max_wait_cycles = 5});
  const std::vector<Request> requests{
      make_request(0, 0, {v(0, 0)}),
      make_request(1, 2, {v(0, 1), v(1, 1)}),
  };
  ASSERT_EQ(admission.offer(0, requests[0], 0),
            AdmissionController::Decision::kAdmitted);
  ASSERT_EQ(admission.offer(1, requests[1], 2),
            AdmissionController::Decision::kAdmitted);

  // Oldest waited 4 < 5: nothing cuts.
  EXPECT_TRUE(former.form(4, admission).empty());
  EXPECT_EQ(admission.pending_count(), 2u);

  // At 5, the wait budget elapses and both ride one batch.
  const auto batches = former.form(5, admission);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].formed_cycle, 5u);
  EXPECT_EQ(batches[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(batches[0].requested_nodes, 3u);
  EXPECT_EQ(batches[0].nodes.size(), 3u);
  EXPECT_EQ(batches[0].coalesced_nodes(), 0u);
  EXPECT_TRUE(admission.idle());
  EXPECT_EQ(admission.pending_node_count(), 0u);
}

TEST(BatchFormer, CutsOnNodeThresholdAndRespectsCap) {
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 4, .max_wait_cycles = 100});
  const std::vector<Request> requests{
      make_request(0, 0, {v(0, 2), v(1, 2)}),
      make_request(1, 0, {v(2, 2), v(3, 2)}),
      make_request(2, 0, {v(0, 3), v(1, 3)}),
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(admission.offer(i, requests[i], 0),
              AdmissionController::Decision::kAdmitted);
  }

  // 6 pending nodes >= 4: one batch cuts, capped at 4 nodes (two
  // requests); the 2-node remainder is below both triggers and waits.
  const auto batches = former.form(0, admission);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(batches[0].nodes.size(), 4u);
  EXPECT_EQ(admission.pending_count(), 1u);
  EXPECT_EQ(admission.pending_node_count(), 2u);

  // The straggler cuts once its wait budget elapses.
  const auto later = former.form(100, admission);
  ASSERT_EQ(later.size(), 1u);
  EXPECT_EQ(later[0].id, 1u);
  EXPECT_EQ(later[0].members, (std::vector<std::size_t>{2}));
}

TEST(BatchFormer, OversizedRequestDispatchesAlone) {
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 2, .max_wait_cycles = 0});
  std::vector<Node> big;
  for (std::uint64_t i = 0; i < 7; ++i) big.push_back(v(i, 3));
  const std::vector<Request> requests{
      make_request(0, 0, std::move(big)),
      make_request(1, 0, {v(0, 1)}),
  };
  ASSERT_EQ(admission.offer(0, requests[0], 0),
            AdmissionController::Decision::kAdmitted);
  ASSERT_EQ(admission.offer(1, requests[1], 0),
            AdmissionController::Decision::kAdmitted);

  // max_wait 0 flushes everything this tick: the oversized request is its
  // own batch (never split, never starved); the small one follows.
  const auto batches = former.form(0, admission);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].members, (std::vector<std::size_t>{0}));
  EXPECT_EQ(batches[0].nodes.size(), 7u);
  ASSERT_EQ(batches[0].decomposition().component_count(), 1u);  // one L(7) run
  EXPECT_EQ(batches[1].members, (std::vector<std::size_t>{1}));
}

TEST(BatchFormer, WaitBudgetCountsFromAdmissionNotSubmission) {
  // Regression: a caller promoted out of the blocked queue long after its
  // submit cycle has only just become batchable. Measuring the wait from
  // submit_cycle would see the whole blocked time as already-elapsed
  // budget and cut an undersized batch on the promotion tick.
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 1000,
                                 .max_wait_cycles = 5});
  const Request old = make_request(0, /*submit=*/0, {v(0, 0)});
  // Offered (think: promoted) at tick 50 — 50 cycles after submission.
  ASSERT_EQ(admission.offer(0, old, 50),
            AdmissionController::Decision::kAdmitted);
  ASSERT_EQ(admission.pending().front().admitted_cycle, 50u);

  // Submit-based waiting would cut here (54 - 0 >= 5). Admission-based
  // waiting holds: only 4 of the 5-cycle window have elapsed.
  EXPECT_TRUE(former.form(54, admission).empty());
  EXPECT_EQ(admission.pending_count(), 1u);

  const auto batches = former.form(55, admission);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].members, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(admission.idle());
}

TEST(BatchFormer, ExactlyFullRequestIsNotOversized) {
  // A request of exactly max_batch_nodes nodes fills one batch to the
  // brim; the next request starts a fresh batch rather than overflowing.
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 3, .max_wait_cycles = 0});
  const std::vector<Request> requests{
      make_request(0, 0, {v(0, 3), v(1, 3), v(2, 3)}),
      make_request(1, 0, {v(0, 1)}),
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(admission.offer(i, requests[i], 0),
              AdmissionController::Decision::kAdmitted);
  }
  const auto batches = former.form(0, admission);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].members, (std::vector<std::size_t>{0}));
  EXPECT_EQ(batches[0].nodes.size(), 3u);
  EXPECT_EQ(batches[1].members, (std::vector<std::size_t>{1}));
  EXPECT_EQ(admission.pending_node_count(), 0u);
}

TEST(BatchFormer, OversizedRequestBehindSmallOnesWaitsItsTurn) {
  // FIFO is never reordered around an oversized request: the small
  // requests ahead of it share a capped batch, then the oversized one
  // dispatches alone, members strictly in admission order.
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 4, .max_wait_cycles = 0});
  std::vector<Node> big;
  for (std::uint64_t i = 0; i < 9; ++i) big.push_back(v(i, 4));
  const std::vector<Request> requests{
      make_request(0, 0, {v(0, 1)}),
      make_request(1, 0, {v(1, 1)}),
      make_request(2, 0, std::move(big)),
      make_request(3, 0, {v(0, 2)}),
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(admission.offer(i, requests[i], 0),
              AdmissionController::Decision::kAdmitted);
  }
  const auto batches = former.form(0, admission);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(batches[1].members, (std::vector<std::size_t>{2}));
  EXPECT_EQ(batches[1].nodes.size(), 9u);
  EXPECT_EQ(batches[2].members, (std::vector<std::size_t>{3}));
  EXPECT_EQ(admission.pending_node_count(), 0u);
}

TEST(BatchFormer, DuplicateLookupsCoalesce) {
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 64, .max_wait_cycles = 0});
  // Three clients hitting the same hot path.
  const std::vector<Node> path{v(0, 0), v(1, 1), v(2, 2)};
  const std::vector<Request> requests{
      make_request(0, 0, path),
      make_request(1, 0, path),
      make_request(2, 0, path),
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(admission.offer(i, requests[i], 0),
              AdmissionController::Decision::kAdmitted);
  }
  const auto batches = former.form(0, admission);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].requested_nodes, 9u);
  EXPECT_EQ(batches[0].nodes.size(), 3u);  // the union is one path
  EXPECT_EQ(batches[0].coalesced_nodes(), 6u);
}

TEST(BatchFormer, NextBatchCostMatchesWhatFormOneTakes) {
  // The DRR peek and the actual cut run the same fill walk: across a
  // mixed queue (small, oversized, empty payloads), every peeked cost
  // equals the next batch's pre-dedup node count exactly.
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 4, .max_wait_cycles = 0});
  const std::vector<Request> requests{
      make_request(0, 0, {v(0, 2), v(1, 2)}),
      make_request(1, 0, {}),  // empty payload joins the same batch
      make_request(2, 0, {v(0, 3), v(1, 3), v(2, 3), v(3, 3), v(4, 3)}),
      make_request(3, 0, {v(0, 1)}),
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(admission.offer(i, requests[i], 0),
              AdmissionController::Decision::kAdmitted);
  }
  std::vector<FormedBatch> batches;
  while (former.due(0, admission)) {
    const std::uint64_t cost = former.next_batch_cost(admission);
    FormedBatch batch = former.form_one(0, admission);
    EXPECT_EQ(batch.requested_nodes, cost) << "batch " << batch.id;
    batches.push_back(std::move(batch));
  }
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(batches[1].members, (std::vector<std::size_t>{2}));  // oversized
  EXPECT_EQ(batches[2].members, (std::vector<std::size_t>{3}));
  EXPECT_EQ(admission.pending_count(), 0u);
}

TEST(BatchFormer, FormIsEquivalentToDueGatedFormOneLoop) {
  // Two identical queues, one drained by form(), one by the metered
  // while(due) form_one() loop the forest's DRR uses: batch-for-batch
  // identical output (ids, members, nodes, stamps).
  const std::vector<Request> requests{
      make_request(0, 0, {v(0, 2), v(1, 2)}),
      make_request(1, 1, {v(2, 2)}),
      make_request(2, 3, {v(0, 4), v(1, 4), v(2, 4)}),
      make_request(3, 3, {v(5, 3)}),
  };
  const BatchPolicy policy{.max_batch_nodes = 3, .max_wait_cycles = 2};
  AdmissionController bulk_admission(AdmissionOptions{});
  AdmissionController metered_admission(AdmissionOptions{});
  BatchFormer bulk(policy);
  BatchFormer metered(policy);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(bulk_admission.offer(i, requests[i], requests[i].submit_cycle),
              AdmissionController::Decision::kAdmitted);
    ASSERT_EQ(
        metered_admission.offer(i, requests[i], requests[i].submit_cycle),
        AdmissionController::Decision::kAdmitted);
  }
  for (std::uint64_t now = 3; now <= 6; ++now) {
    const std::vector<FormedBatch> want = bulk.form(now, bulk_admission);
    std::vector<FormedBatch> got;
    while (metered.due(now, metered_admission)) {
      got.push_back(metered.form_one(now, metered_admission));
    }
    ASSERT_EQ(got.size(), want.size()) << "now=" << now;
    for (std::size_t b = 0; b < got.size(); ++b) {
      EXPECT_EQ(got[b].id, want[b].id);
      EXPECT_EQ(got[b].members, want[b].members);
      EXPECT_EQ(got[b].nodes, want[b].nodes);
      EXPECT_EQ(got[b].formed_cycle, want[b].formed_cycle);
      EXPECT_EQ(got[b].requested_nodes, want[b].requested_nodes);
    }
  }
  EXPECT_EQ(bulk_admission.pending_count(), metered_admission.pending_count());
}

TEST(BatchFormer, FormOneIsFormOneRawPlusCoalesce) {
  // The staged pipeline cuts with form_one_raw() on the control plane and
  // coalesces on a worker; the oracle cuts with form_one(). Same queue,
  // both drains: identical ids, membership, stamps, cost accounting and
  // (after coalescing the raw node set) identical node unions and
  // decompositions.
  const std::vector<Request> requests{
      make_request(0, 0, {v(2, 3), v(3, 3), v(2, 3)}),  // duplicate inside
      make_request(1, 0, {v(5, 3), v(4, 3)}),           // out of order
      make_request(2, 0, {}),
      make_request(3, 0, {v(0, 1), v(0, 0)}),
  };
  AdmissionController oracle_admission(AdmissionOptions{});
  AdmissionController raw_admission(AdmissionOptions{});
  const BatchPolicy policy{.max_batch_nodes = 5, .max_wait_cycles = 0};
  BatchFormer oracle(policy);
  BatchFormer raw(policy);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(oracle_admission.offer(i, requests[i], 0),
              AdmissionController::Decision::kAdmitted);
    ASSERT_EQ(raw_admission.offer(i, requests[i], 0),
              AdmissionController::Decision::kAdmitted);
  }
  while (oracle.due(0, oracle_admission)) {
    ASSERT_TRUE(raw.due(0, raw_admission));
    const FormedBatch want = oracle.form_one(0, oracle_admission);
    FormedBatch got = raw.form_one_raw(0, raw_admission);
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.formed_cycle, want.formed_cycle);
    EXPECT_EQ(got.members, want.members);
    EXPECT_EQ(got.requested_nodes, want.requested_nodes);
    // Raw leaves the fill-order node list (duplicates included), not yet
    // coalesced; coalescing finishes the job.
    EXPECT_EQ(got.nodes.size(), got.requested_nodes);
    EXPECT_FALSE(got.coalesced);
    EXPECT_TRUE(want.coalesced);
    BatchFormer::coalesce(got);
    EXPECT_TRUE(got.coalesced);
    EXPECT_EQ(got.nodes, want.nodes);
    EXPECT_EQ(got.decomposition().nodes(), want.decomposition().nodes());
    EXPECT_EQ(got.decomposition().component_count(),
              want.decomposition().component_count());
    EXPECT_EQ(raw_admission.pending_count(), oracle_admission.pending_count());
    EXPECT_EQ(raw_admission.pending_node_count(),
              oracle_admission.pending_node_count());
  }
  EXPECT_FALSE(raw.due(0, raw_admission));
}

/// Independent reference for coalesce(): Node-struct sort, dedup, maximal
/// same-level consecutive runs.
void expect_coalesce_matches_reference(std::vector<Node> nodes) {
  std::vector<Node> want = nodes;
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  std::vector<std::pair<Node, std::uint64_t>> runs;
  std::size_t i = 0;
  while (i < want.size()) {
    std::size_t j = i + 1;
    while (j < want.size() && want[j].level == want[i].level &&
           want[j].index == want[i].index + (j - i)) {
      ++j;
    }
    runs.emplace_back(want[i], j - i);
    i = j;
  }

  BatchFormer::coalesce(nodes);
  const CompositeInstance c = level_runs(nodes);
  ASSERT_EQ(nodes, want);
  ASSERT_EQ(c.component_count(), runs.size());
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const auto* run = c.parts()[k].get_if<LevelRunInstance>();
    ASSERT_NE(run, nullptr) << k;
    EXPECT_EQ(run->first, runs[k].first) << k;
    EXPECT_EQ(run->size, runs[k].second) << k;
  }
}

/// Raw Node constructor: coalesce() is a pure function of (level, index)
/// pairs, so the borderline inputs below deliberately sidestep v()'s
/// index-fits-the-level assertion (deep q-ary / array-backed trees mint
/// coordinates complete binary trees cannot).
Node raw_node(std::uint64_t index, std::uint32_t level) {
  return Node{level, index};
}

TEST(BatchCoalesce, PackedFastPathAndFallbackAgreeWithReference) {
  // Packable inputs (level < 2^16, index < 2^48) take the sorted-u64
  // fast path; any node beyond either bound falls back to the Node-struct
  // sort. Both must implement the same function — pinned here against an
  // independent reference, including the exact packability borders.
  const std::uint64_t kMaxPackedIndex = (std::uint64_t{1} << 48) - 1;
  const std::uint32_t kMaxPackedLevel = (std::uint32_t{1} << 16) - 1;

  // Packed path, borderline values included: runs at the top of the
  // packable index range must not carry into the level bits.
  expect_coalesce_matches_reference(
      {raw_node(kMaxPackedIndex, kMaxPackedLevel),
       raw_node(kMaxPackedIndex - 1, 7), raw_node(kMaxPackedIndex, 7),
       raw_node(0, kMaxPackedLevel), raw_node(1, 2), raw_node(2, 2),
       raw_node(1, 2)});

  // Fallback: a level past the packable range...
  expect_coalesce_matches_reference(
      {raw_node(3, kMaxPackedLevel + 1), raw_node(2, kMaxPackedLevel + 1),
       raw_node(5, 3), raw_node(4, 3), raw_node(4, 3)});
  // ...and an index past it.
  expect_coalesce_matches_reference(
      {raw_node(kMaxPackedIndex + 1, 60), raw_node(kMaxPackedIndex + 2, 60),
       raw_node(kMaxPackedIndex + 1, 60), raw_node(0, 0)});

  // One unpackable node poisons the whole batch onto the fallback; the
  // packable majority must still coalesce identically.
  expect_coalesce_matches_reference(
      {raw_node(8, 5), raw_node(9, 5), raw_node(10, 5),
       raw_node(kMaxPackedIndex + 7, 50), raw_node(8, 5)});
}

TEST(BatchCoalesce, RandomizedPackedInputsMatchReference) {
  // Dense random draws force long runs, duplicate collapses and
  // cross-level adjacency through the packed path.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next = [&state](std::uint64_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % bound;
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Node> nodes;
    const std::size_t count = next(40);
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint32_t level = static_cast<std::uint32_t>(next(4));
      nodes.push_back(raw_node(next(12), level));
    }
    expect_coalesce_matches_reference(std::move(nodes));
  }
}

TEST(BatchFormer, NextBatchCostIsZeroOnlyForEmptyOrAllEmptyQueues) {
  AdmissionController admission(AdmissionOptions{});
  const BatchFormer former(
      BatchPolicy{.max_batch_nodes = 8, .max_wait_cycles = 0});
  EXPECT_EQ(former.next_batch_cost(admission), 0u);
  EXPECT_FALSE(former.due(0, admission));

  // A queue holding only empty payloads is due (wait budget 0) at zero
  // cost — the forest's DRR must always afford it, so it cannot wedge.
  const Request empty = make_request(0, 0, {});
  ASSERT_EQ(admission.offer(0, empty, 0),
            AdmissionController::Decision::kAdmitted);
  EXPECT_TRUE(former.due(0, admission));
  EXPECT_EQ(former.next_batch_cost(admission), 0u);
}

/// One payload of the E19 serving mix on `tree`: 70% root-to-leaf paths,
/// 20% sibling pairs at the bottom level, 10% short runs one level up.
std::vector<Node> e19_payload(Rng& rng, const CompleteBinaryTree& tree) {
  std::vector<Node> nodes;
  const std::uint32_t bottom = tree.levels() - 1;
  const std::uint64_t kind = rng.below(10);
  if (kind < 7) {
    Node n = v(rng.below(pow2(bottom)), bottom);
    nodes.push_back(n);
    while (n.level > 0) {
      n = parent(n);
      nodes.push_back(n);
    }
  } else if (kind < 9) {
    const Node n = v(rng.below(pow2(bottom)) & ~std::uint64_t{1}, bottom);
    nodes.push_back(n);
    nodes.push_back(sibling(n));
  } else {
    const std::uint32_t level = bottom - 1;
    const std::uint64_t width = std::min<std::uint64_t>(
        rng.between(4, 8), pow2(level));
    const std::uint64_t first = rng.below(pow2(level) - width + 1);
    for (std::uint64_t k = 0; k < width; ++k) nodes.push_back(v(first + k, level));
  }
  return nodes;
}

/// The derived C(D, c) of a coalesced batch is exactly its maximal
/// per-level runs: one L(K) part per run, in node order, covering the
/// canonical nodes once, no two neighbouring parts mergeable.
void expect_maximal_level_runs(const FormedBatch& batch,
                               const CompleteBinaryTree& tree) {
  ASSERT_TRUE(batch.coalesced);
  const CompositeInstance c = batch.decomposition();
  ASSERT_EQ(c.nodes(), batch.nodes);
  EXPECT_EQ(c.size(), batch.nodes.size());
  EXPECT_TRUE(c.is_disjoint());
  EXPECT_TRUE(c.fits(tree));
  const LevelRunInstance* prev = nullptr;
  for (const ElementaryInstance& part : c.parts()) {
    const auto* run = part.get_if<LevelRunInstance>();
    ASSERT_NE(run, nullptr);
    ASSERT_GE(run->size, 1u);
    if (prev != nullptr && prev->first.level == run->first.level) {
      EXPECT_GT(run->first.index, prev->first.index + prev->size)
          << "runs at level " << run->first.level << " are not maximal";
    }
    prev = run;
  }
}

TEST(BatchDecomposition, DerivedViewIsTheMaximalRunCompositeOnRandomBatches) {
  // Seeded E19 traffic plus duplicate-heavy hot keys (half of all
  // requests repeat one of three hot payloads). For every batch the
  // stored nodes are the canonical union of its members' payloads, the
  // derived decomposition is its maximal per-level runs, and a batch cut
  // raw and coalesced afterwards (the executor's path) derives the same
  // C(D, c) as one coalesced at the cut (the epoch policies' path).
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(seed);
    const CompleteBinaryTree tree(static_cast<std::uint32_t>(rng.between(4, 20)));
    std::vector<std::vector<Node>> hot;
    for (int h = 0; h < 3; ++h) hot.push_back(e19_payload(rng, tree));
    std::vector<Request> requests;
    for (std::uint64_t i = 0; i < 200; ++i) {
      requests.push_back(make_request(
          i, 0, rng.chance(1, 2) ? hot[rng.below(hot.size())]
                                 : e19_payload(rng, tree)));
    }
    const BatchPolicy policy{.max_batch_nodes = rng.between(1, 128),
                             .max_wait_cycles = 0};
    const AdmissionOptions options{.queue_bound = requests.size()};
    AdmissionController oracle_admission(options);
    AdmissionController raw_admission(options);
    BatchFormer oracle(policy);
    BatchFormer raw(policy);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(oracle_admission.offer(i, requests[i], 0),
                AdmissionController::Decision::kAdmitted);
      ASSERT_EQ(raw_admission.offer(i, requests[i], 0),
                AdmissionController::Decision::kAdmitted);
    }
    std::size_t batches = 0;
    while (oracle.due(0, oracle_admission)) {
      const FormedBatch want = oracle.form_one(0, oracle_admission);
      FormedBatch got = raw.form_one_raw(0, raw_admission);
      BatchFormer::coalesce(got);
      batches += 1;

      std::vector<Node> canonical;
      for (const std::size_t m : want.members) {
        canonical.insert(canonical.end(), requests[m].nodes.begin(),
                         requests[m].nodes.end());
      }
      std::sort(canonical.begin(), canonical.end());
      canonical.erase(std::unique(canonical.begin(), canonical.end()),
                      canonical.end());
      ASSERT_EQ(want.nodes, canonical) << "seed " << seed << " batch " << want.id;
      expect_maximal_level_runs(want, tree);

      ASSERT_EQ(got.nodes, want.nodes) << "seed " << seed << " batch " << want.id;
      const CompositeInstance a = got.decomposition();
      const CompositeInstance b = want.decomposition();
      ASSERT_EQ(a.component_count(), b.component_count());
      for (std::size_t k = 0; k < a.parts().size(); ++k) {
        const auto* x = a.parts()[k].get_if<LevelRunInstance>();
        const auto* y = b.parts()[k].get_if<LevelRunInstance>();
        ASSERT_NE(x, nullptr);
        ASSERT_NE(y, nullptr);
        EXPECT_EQ(x->first, y->first);
        EXPECT_EQ(x->size, y->size);
      }
    }
    EXPECT_FALSE(raw.due(0, raw_admission));
    EXPECT_GE(batches, 2u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace pmtree::serve
