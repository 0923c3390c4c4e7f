// Allocation guard for the serve hot path. This binary replaces the global
// operator new with one that counts every heap allocation in the process,
// so a per-batch allocation creeping back into batch formation or the
// executor's per-batch step fails a test, not only the benchmark.
//
// After warm-up (scratch buffers, pooled tokens and lane sessions grown to
// the largest batch and round seen):
//   * BatchFormer::coalesce allocates nothing at all;
//   * a round of the inline or staged executor costs the same number of
//     allocations whatever its batch count — the per-round drain allocates,
//     the per-batch step (coalesce, arena touch, color resolution, lane
//     feed) does not.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "pmtree/mapping/color.hpp"
#include "pmtree/mem/arena.hpp"
#include "pmtree/serve/batch.hpp"
#include "pmtree/serve/pipeline.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pmtree::serve {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Raw (uncoalesced) batch node lists: each is the concatenation of a few
/// E19-shaped payloads (root-to-leaf paths, bottom sibling pairs, level
/// runs), with hot paths repeated so dedup has work to do.
std::vector<std::vector<Node>> raw_batches(const CompleteBinaryTree& tree,
                                           std::size_t count,
                                           std::uint64_t seed) {
  Rng rng(seed);
  const std::uint32_t bottom = tree.levels() - 1;
  const auto path = [&](std::vector<Node>& out, Node n) {
    out.push_back(n);
    while (n.level > 0) {
      n = parent(n);
      out.push_back(n);
    }
  };
  const Node hot = v(rng.below(pow2(bottom)), bottom);
  std::vector<std::vector<Node>> batches(count);
  for (std::vector<Node>& nodes : batches) {
    const std::uint64_t members = rng.between(1, 6);
    for (std::uint64_t m = 0; m < members; ++m) {
      const std::uint64_t kind = rng.below(10);
      if (kind < 3) {
        path(nodes, hot);
      } else if (kind < 7) {
        path(nodes, v(rng.below(pow2(bottom)), bottom));
      } else if (kind < 9) {
        const Node n = v(rng.below(pow2(bottom)) & ~std::uint64_t{1}, bottom);
        nodes.push_back(n);
        nodes.push_back(sibling(n));
      } else {
        const std::uint64_t first = rng.below(pow2(bottom - 1) - 8);
        for (std::uint64_t k = 0; k < 8; ++k) {
          nodes.push_back(v(first + k, bottom - 1));
        }
      }
    }
  }
  return batches;
}

TEST(AllocationGuard, CoalesceAllocatesNothingAfterWarmUp) {
  const CompleteBinaryTree tree(20);
  const std::vector<std::vector<Node>> raw = raw_batches(tree, 512, 7);
  std::vector<std::vector<Node>> work(raw.size());
  std::vector<FormedBatch> batches(raw.size());
  for (std::size_t b = 0; b < raw.size(); ++b) {
    work[b].reserve(raw[b].size());
    batches[b].nodes.reserve(raw[b].size());
    work[b] = raw[b];
    BatchFormer::coalesce(work[b]);  // warm the per-thread scratch
  }

  const std::uint64_t before = allocations();
  for (std::size_t b = 0; b < raw.size(); ++b) {
    work[b].assign(raw[b].begin(), raw[b].end());
    BatchFormer::coalesce(work[b]);
    batches[b].nodes.assign(raw[b].begin(), raw[b].end());
    BatchFormer::coalesce(batches[b]);
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "coalesce allocated while forming " << 2 * raw.size() << " batches";
  for (std::size_t b = 0; b < raw.size(); ++b) {
    ASSERT_TRUE(batches[b].coalesced);
    ASSERT_EQ(batches[b].nodes, work[b]);
  }
}

/// Allocations of one executor round over the first `count` batches of
/// `raw` (cut raw, so the step coalesces), counted from begin_run to the
/// round barrier. Batches are built before the window; arrivals are far
/// apart, so every batch sees an empty engine and the per-round drain
/// does the same work whatever `count` is.
std::uint64_t round_allocations(StagedRunner& runner, std::uint32_t lanes,
                                const std::vector<std::vector<Node>>& raw,
                                std::size_t count) {
  std::vector<FormedBatch> batches(count);
  for (std::size_t b = 0; b < count; ++b) {
    batches[b].id = b;
    batches[b].formed_cycle = 1000 * b;
    batches[b].members = {b};
    batches[b].nodes = raw[b];
    batches[b].requested_nodes = raw[b].size();
  }
  const std::uint64_t before = allocations();
  runner.begin_run();
  for (FormedBatch& batch : batches) {
    const auto lane = static_cast<std::uint32_t>(batch.id % lanes);
    runner.cut(std::move(batch), lane);
  }
  runner.close_round();
  return allocations() - before;
}

void expect_no_per_batch_allocations(unsigned workers) {
  const CompleteBinaryTree tree(16);
  const ColorMapping mapping = make_optimal_color_mapping(tree, 31);
  const mem::MemoryBackend memory(mapping, mem::ArenaOptions{.payload_bytes = 8});
  std::vector<LaneSpec> lanes(2);
  lanes[0].mapping = &mapping;
  lanes[1].mapping = &mapping;
  lanes[1].memory = &memory;
  StagedRunner runner(std::move(lanes), PipelineOptions{.workers = workers});
  const std::vector<std::vector<Node>> raw = raw_batches(tree, 192, 11);

  // Warm-up: token pool, lane sessions and every thread's scratch grow to
  // the largest round.
  for (int warm = 0; warm < 3; ++warm) {
    (void)round_allocations(runner, 2, raw, raw.size());
  }
  const std::uint64_t small = round_allocations(runner, 2, raw, 64);
  const std::uint64_t large = round_allocations(runner, 2, raw, raw.size());
  EXPECT_EQ(large, small)
      << "a round of " << raw.size() << " batches allocated " << large
      << " times, a round of 64 batches " << small << " times";
  for (std::size_t t = 0; t < runner.token_count(); ++t) {
    ASSERT_TRUE(runner.token(t).batch.coalesced);
  }
}

TEST(AllocationGuard, InlineExecutorStepAllocatesNothingPerBatch) {
  expect_no_per_batch_allocations(0);
}

TEST(AllocationGuard, StagedExecutorStepAllocatesNothingPerBatch) {
  expect_no_per_batch_allocations(2);
}

}  // namespace
}  // namespace pmtree::serve
