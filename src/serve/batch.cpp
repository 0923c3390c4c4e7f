#include "pmtree/serve/batch.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>

namespace pmtree::serve {

namespace {

// Depth cap for the bucketed coalesce path. Below it every index fits 32
// bits (level l indices are < 2^l), so segments sort half-width keys.
// Serving trees are complete binary trees a few dozen levels deep; deeper
// (synthetic) inputs fall back to the generic std::sort path below.
constexpr std::size_t kBucketLevels = 32;

// Insertion sort for one level's index segment. Segments are tiny (a
// batch holds ~4 requests whose nodes spread across the levels, so a
// segment is typically 2-8 indices) and nearly sorted (each request
// contributes at most a couple of indices per level, in order), which is
// insertion sort's best case. Larger segments — single-level run floods —
// hand off to std::sort.
void sort_segment(std::uint32_t* first, std::uint32_t* last) {
  const std::size_t len = static_cast<std::size_t>(last - first);
  if (len > 32) {
    std::sort(first, last);
    return;
  }
  for (std::uint32_t* p = first + 1; p < last; ++p) {
    const std::uint32_t v = *p;
    std::uint32_t* q = p;
    while (q > first && q[-1] > v) {
      *q = q[-1];
      --q;
    }
    *q = v;
  }
}

}  // namespace

void BatchFormer::coalesce(std::vector<Node>& nodes) {
  // Node's canonical order is (level, index). A comparison sort of the
  // whole batch is overkill for that order: the level field takes only a
  // handful of values, so a counting pass buckets the nodes by level in
  // O(n) and only the per-level index segments — typically 2-8 entries
  // each — still need comparison sorting. Every formed batch funnels
  // through here, so this is two linear passes plus a few insertion sorts
  // of trivially small, nearly-sorted segments instead of n log n key
  // sorting; the only storage is a per-thread index scratch that stops
  // growing after the largest batch.
  std::uint32_t max_level = 0;
  for (const Node& n : nodes) max_level = std::max(max_level, n.level);
  if (max_level >= kBucketLevels || nodes.empty()) {
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    return;
  }
  // Shallow levels (< 2^6 possible indices) skip sorting entirely: a
  // 64-bit occupancy mask IS the sorted, deduplicated segment — batches
  // are path-heavy, so the upper levels carry one duplicate-laden index
  // per request and collapse to a handful of bits. Deeper levels scatter
  // into per-level index segments (counting pass + prefix sums) and sort
  // each tiny segment in place.
  constexpr std::uint32_t kMaskLevels = 7;
  std::array<std::uint64_t, kMaskLevels> masks{};
  std::array<std::size_t, kBucketLevels> off{};
  std::array<std::size_t, kBucketLevels> pos{};
  for (const Node& n : nodes) {
    if (n.level < kMaskLevels) {
      masks[n.level] |= std::uint64_t{1} << n.index;
    } else {
      pos[n.level] += 1;
    }
  }
  std::size_t acc = 0;
  for (std::size_t lvl = kMaskLevels; lvl <= max_level; ++lvl) {
    off[lvl] = acc;
    acc += pos[lvl];
    pos[lvl] = off[lvl];
  }
  thread_local std::vector<std::uint32_t> idxs;
  if (idxs.size() < acc) idxs.resize(acc);
  for (const Node& n : nodes) {
    if (n.level >= kMaskLevels) {
      idxs[pos[n.level]++] = static_cast<std::uint32_t>(n.index);
    }
  }
  // Emit in canonical (level, index) order, rewriting `nodes` in place
  // through a raw cursor: every input position has been consumed into a
  // mask or a segment by now, and dedup only shrinks, so the cursor never
  // overtakes unread data. After the scatter, pos[lvl] is lvl's segment
  // END.
  Node* out = nodes.data();
  for (std::uint32_t lvl = 0; lvl <= max_level; ++lvl) {
    if (lvl < kMaskLevels) {
      for (std::uint64_t m = masks[lvl]; m != 0; m &= m - 1) {
        *out++ = Node{lvl, static_cast<std::uint64_t>(std::countr_zero(m))};
      }
      continue;
    }
    std::uint32_t* const seg = idxs.data() + off[lvl];
    std::uint32_t* const seg_end = idxs.data() + pos[lvl];
    sort_segment(seg, seg_end);
    for (const std::uint32_t* p = seg; p < seg_end; ++p) {
      // Duplicate lookups collapse into one physical request.
      if (p == seg || *p != p[-1]) *out++ = Node{lvl, *p};
    }
  }
  nodes.resize(static_cast<std::size_t>(out - nodes.data()));
}

void BatchFormer::coalesce(FormedBatch& batch) {
  if (batch.coalesced) return;
  coalesce(batch.nodes);
  batch.coalesced = true;
}

CompositeInstance level_runs(std::span<const Node> nodes) {
  CompositeInstance composite;
  std::size_t i = 0;
  while (i < nodes.size()) {
    std::size_t j = i + 1;
    while (j < nodes.size() && nodes[j].level == nodes[i].level &&
           nodes[j].index == nodes[i].index + (j - i)) {
      ++j;
    }
    composite.add(LevelRunInstance{nodes[i], j - i});
    i = j;
  }
  return composite;
}

bool BatchFormer::due(std::uint64_t now,
                      const AdmissionController& controller) const {
  const std::deque<QueuedRequest>& pending = controller.pending();
  if (pending.empty()) return false;
  if (controller.pending_node_count() >= policy_.max_batch_nodes) return true;
  // Wait is measured from admission, not submission: a caller promoted
  // out of the blocked queue only became batchable at its promotion
  // tick, and submit-based waiting would let its blocked time consume
  // the whole window — every promotion would force an immediate,
  // usually undersized, cut.
  return now - pending.front().admitted_cycle >= policy_.max_wait_cycles;
}

std::uint64_t BatchFormer::next_batch_cost(
    const AdmissionController& controller) const {
  const std::deque<QueuedRequest>& pending = controller.pending();
  std::uint64_t taken = 0;
  std::size_t members = 0;
  for (const QueuedRequest& q : pending) {
    const std::uint64_t n = q.nodes->size();
    if (members != 0 && taken + n > policy_.max_batch_nodes) break;
    members += 1;
    taken += n;
    if (taken >= policy_.max_batch_nodes) break;
  }
  return taken;
}

FormedBatch BatchFormer::form_one_raw(std::uint64_t now,
                                      AdmissionController& controller) {
  std::deque<QueuedRequest>& pending = controller.pending();
  FormedBatch batch;
  batch.id = next_id_++;
  batch.formed_cycle = now;
  // One exact-capacity allocation instead of geometric growth across the
  // fill walk. The cap is the fill limit; the front request can exceed it
  // alone (oversized requests dispatch solo).
  if (!pending.empty()) {
    batch.nodes.reserve(std::max<std::uint64_t>(policy_.max_batch_nodes,
                                                pending.front().nodes->size()));
    batch.members.reserve(16);
  }
  std::uint64_t taken = 0;
  while (!pending.empty()) {
    const QueuedRequest& q = pending.front();
    const std::uint64_t n = q.nodes->size();
    // The first member always fits (oversized requests dispatch alone);
    // after that, stop before overflowing the cap. This is the same fill
    // walk next_batch_cost() simulates, so the peeked DRR cost is exact.
    if (!batch.members.empty() && taken + n > policy_.max_batch_nodes) break;
    batch.members.push_back(q.index);
    batch.nodes.insert(batch.nodes.end(), q.nodes->begin(), q.nodes->end());
    taken += n;
    controller.on_batched(n);
    pending.pop_front();
    if (taken >= policy_.max_batch_nodes) break;
  }
  batch.requested_nodes = taken;
  return batch;
}

FormedBatch BatchFormer::form_one(std::uint64_t now,
                                  AdmissionController& controller) {
  FormedBatch batch = form_one_raw(now, controller);
  coalesce(batch);
  return batch;
}

std::vector<FormedBatch> BatchFormer::form(std::uint64_t now,
                                           AdmissionController& controller) {
  std::vector<FormedBatch> batches;
  while (due(now, controller)) {
    batches.push_back(form_one(now, controller));
  }
  return batches;
}

}  // namespace pmtree::serve
