// PALM-style batched mutations for the serve front-end (DESIGN.md §16).
//
// Write requests (RequestKind::kInsert / kErase) flow through the same
// admission -> batching -> replica pipeline as reads; what distinguishes
// them is the *apply barrier*. When the control plane cuts a batch, the
// batch's writers are applied to the bound DynamicTree right there — in
// canonical (client, seq) member order, after exact-duplicate dedup —
// and the IncrementalColorer is touched with the batch's node set plus
// every applied target, so by the time any worker resolves the batch the
// colors it needs are published. The barrier (DynBarrier) is the
// tenant's epoch policy in the control plane: consulted once per cut
// batch, reported once as the "dyn" metrics section. It is a pure
// function of the cut sequence, which the one serve control plane mints
// identically for either executor, so mutation verdicts and responses
// stay bit-identical at 1/2/8 workers and across both executors.
//
// Conflict scheduling: reads in the same composite instance observe the
// tree as of the batch cut (their node sets were planned against it);
// writers then apply in canonical order, so a write-write conflict
// resolves deterministically — the canonically-first writer wins and the
// loser's verdict (kOccupied, kNotLive, kParentMissing, ...) is recorded
// in the mutation log rather than silently dropped. A request whose
// mutation is rejected still completes kOk as a *request* (it was
// admitted, batched and executed); clients reconcile outcomes from the
// log, mirroring how the read clients re-derive answers post-run.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pmtree/dyn/dynamic_tree.hpp"
#include "pmtree/dyn/incremental.hpp"
#include "pmtree/mapping/mapping.hpp"
#include "pmtree/serve/batch.hpp"
#include "pmtree/serve/request.hpp"
#include "pmtree/util/json.hpp"

namespace pmtree::serve {

/// Binds a Server to a dynamic tree. When `tree` is set the server runs
/// in read-write mode: Insert/Erase requests mutate it at the batch-cut
/// barrier and `colorer` (required; it must be the server's mapping or
/// share its color function) is touched so workers find every color
/// published. Mutually exclusive with migration, adaptive selection and
/// arenas; faulted configurations run the barrier like any other.
struct DynBinding {
  dyn::DynamicTree* tree = nullptr;
  dyn::IncrementalColorer* colorer = nullptr;
  /// E24's strawman baseline: after every batch with writers, drop the
  /// memoized coloring entirely and re-touch the whole live set — the
  /// full-recolor-per-epoch cost the incremental scheme avoids. Colors
  /// are identical either way (they are coordinate-pure); only the work
  /// differs.
  bool recolor_from_scratch = false;

  [[nodiscard]] bool enabled() const noexcept { return tree != nullptr; }
};

/// One applied (or rejected) mutation, in apply order — the deterministic
/// log clients reconcile against and the differential tests compare
/// across worker counts and execution paths.
struct MutationRecord {
  std::uint64_t batch = 0;          ///< batch whose barrier applied it
  std::uint32_t client = 0;
  std::uint64_t seq = 0;
  RequestKind kind = RequestKind::kRead;
  Node target;
  std::int64_t payload = 0;
  dyn::DynStatus status = dyn::DynStatus::kOk;
  std::uint64_t applied_cycle = 0;  ///< the cut tick (the barrier's clock)
};

/// The apply barrier: each cut batch's writers apply to the bound tree in
/// canonical member order, each request's mutation exactly once even if
/// retries re-dispatch it, and every color the executor's step reads is
/// published before the batch leaves the control plane. Control-plane
/// only.
class DynBarrier {
 public:
  /// `requests` are the tenant's, in canonical order (index = local id);
  /// they and `log` must outlive the barrier.
  DynBarrier(const DynBinding& binding, std::span<const Request> requests,
             std::vector<MutationRecord>& log)
      : binding_(binding),
        requests_(requests),
        applied_(requests.size(), 0),
        log_(log) {}

  /// Runs `batch`'s writers at cut tick `cycle`, appending one
  /// MutationRecord per writer (deduped and rejected ones included).
  /// Returns nullptr: dyn batches resolve against the lane's colorer.
  const TreeMapping* on_cut(const FormedBatch& batch, std::uint64_t cycle);

  /// The serve metrics section stats() is reported under.
  static constexpr const char* kSection = "dyn";
  /// Live-set size and version of the tree, per-status mutation counts,
  /// and the colorer's work counters (nodes_colored / touches — the
  /// incremental-vs-rebuild cost E24 charts).
  [[nodiscard]] Json stats() const;

 private:
  DynBinding binding_;
  std::span<const Request> requests_;
  std::vector<char> applied_;  ///< per request: mutation already applied
  std::vector<MutationRecord>& log_;
};

}  // namespace pmtree::serve
