// Dynamic batching: turning concurrent requests into template instances.
//
// The paper's guarantee is per *template instance*: a good coloring bounds
// the conflict cost of an L(K) run or a C(D, c) composite accessed as a
// unit. A stream of independent point lookups gets none of that benefit —
// each is its own one-node access — until a batcher aggregates them. The
// BatchFormer is that aggregator, shaped like an inference server's
// dynamic batcher: requests accumulate in the admission queue, and a
// batch is cut when enough nodes are waiting (max_batch_nodes) or the
// oldest request has waited long enough (max_wait_cycles).
//
// Each batch becomes ONE parallel memory access. Its node set is the
// members' payloads, deduplicated and sorted in (level, index) order —
// duplicate lookups of a hot key collapse into one physical request, the
// classic batching win. In that canonical order the maximal per-level
// runs are adjacent: contiguous runs are L(K) parts and the whole batch is
// the composite C(D, c) whose parts those runs are. Nothing on the serve
// path prices that decomposition, so a batch stores only its canonical
// nodes and derives C(D, c) on demand (FormedBatch::decomposition(),
// level_runs()) for benches and tests that price it with the paper's cost
// machinery. Coalescing is therefore an in-place sort and dedup that
// allocates nothing once its scratch is warm.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "pmtree/serve/admission.hpp"
#include "pmtree/serve/request.hpp"
#include "pmtree/templates/instance.hpp"

namespace pmtree::serve {

struct BatchPolicy {
  /// Cut a batch once this many payload nodes are pending, and cap each
  /// batch's (pre-dedup) node intake at this size. A single request larger
  /// than the cap still dispatches — as its own batch — so oversized
  /// requests are never starved or split. 0 behaves as 1.
  std::uint64_t max_batch_nodes = 64;
  /// Cut a batch once the oldest pending request has waited this many
  /// cycles since *admission* (for blocked-then-promoted callers, the
  /// promotion tick — blocked time doesn't count against the batching
  /// window), full or not. 0 means every tick flushes — no batching
  /// delay. This bound is what guarantees the server drains: every
  /// admitted request dispatches within max_wait_cycles of entering the
  /// pending queue (plus tick rounding).
  std::uint64_t max_wait_cycles = 16;
};

/// The C(D, c) of a canonical node list (sorted in (level, index) order,
/// no duplicates): one L(K) part per maximal run of same-level
/// consecutive indices, in node order. Its nodes() equal `nodes`.
[[nodiscard]] CompositeInstance level_runs(std::span<const Node> nodes);

/// One formed batch == one parallel memory access.
struct FormedBatch {
  std::uint64_t id = 0;            ///< global batch id, in dispatch order
  std::uint64_t formed_cycle = 0;  ///< admission tick that cut the batch
  std::vector<std::size_t> members;     ///< canonical request indices
  /// The members' payloads: their raw concatenation when cut by
  /// form_one_raw(), the deduped union in (level, index) order once
  /// coalesced.
  std::vector<Node> nodes;
  std::uint64_t requested_nodes = 0;    ///< pre-dedup node count
  bool coalesced = false;               ///< `nodes` is canonical

  /// The paper's C(D, c) of maximal L(K) runs, derived from the canonical
  /// `nodes` (precondition: coalesced).
  [[nodiscard]] CompositeInstance decomposition() const {
    return level_runs(nodes);
  }

  /// Nodes saved by coalescing duplicate lookups within the batch.
  [[nodiscard]] std::uint64_t coalesced_nodes() const noexcept {
    return requested_nodes - nodes.size();
  }
};

class BatchFormer {
 public:
  explicit BatchFormer(BatchPolicy policy) : policy_(policy) {
    if (policy_.max_batch_nodes == 0) policy_.max_batch_nodes = 1;
  }

  /// Drains the admission queue at tick `now` into zero or more batches.
  /// A batch is cut while the queue is non-empty and either enough nodes
  /// are pending or the oldest request has exhausted its wait budget; each
  /// batch takes requests front-first until the next request would push it
  /// past max_batch_nodes (always at least one). `controller.on_batched`
  /// is notified so the pending node count stays consistent.
  [[nodiscard]] std::vector<FormedBatch> form(std::uint64_t now,
                                              AdmissionController& controller);

  /// Whether the cut condition holds at tick `now`: the queue is
  /// non-empty and either max_batch_nodes are pending or the oldest
  /// request has waited max_wait_cycles since admission. form() cuts
  /// while this is true; schedulers that meter batch formation (the
  /// forest's deficit round-robin) poll it one batch at a time.
  [[nodiscard]] bool due(std::uint64_t now,
                         const AdmissionController& controller) const;

  /// The pre-dedup node count the next form_one() would take — the DRR
  /// cost of the batch, computed by the same front-first fill walk
  /// without mutating the queue. 0 iff the queue is empty.
  [[nodiscard]] std::uint64_t next_batch_cost(
      const AdmissionController& controller) const;

  /// Cuts exactly one batch at tick `now`. Precondition: the pending
  /// queue is non-empty (callers gate on due()). form() is equivalent to
  /// `while (due(...)) form_one(...)`.
  [[nodiscard]] FormedBatch form_one(std::uint64_t now,
                                     AdmissionController& controller);

  /// The fill walk of form_one() without the coalescing step: `nodes` is
  /// left as the raw member concatenation and `coalesced` false. The
  /// control plane cuts batches with this and the executor's per-batch
  /// step coalesces them, off the control thread; form_one() ==
  /// form_one_raw() + coalesce(). Membership, ids, costs and admission
  /// bookkeeping are identical.
  [[nodiscard]] FormedBatch form_one_raw(std::uint64_t now,
                                         AdmissionController& controller);

  /// The coalescing kernel: sorts `nodes` in (level, index) order and
  /// removes duplicates in place. Allocation-free once the calling
  /// thread's scratch has grown to the largest batch seen.
  static void coalesce(std::vector<Node>& nodes);
  /// coalesce() on the batch's nodes, once: marks it coalesced.
  static void coalesce(FormedBatch& batch);

  [[nodiscard]] const BatchPolicy& policy() const noexcept { return policy_; }

 private:
  BatchPolicy policy_;
  std::uint64_t next_id_ = 0;
};

}  // namespace pmtree::serve
