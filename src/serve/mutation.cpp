#include "pmtree/serve/mutation.hpp"

#include <cassert>

namespace pmtree::serve {

const TreeMapping* DynBarrier::on_cut(const FormedBatch& batch,
                                      std::uint64_t cycle) {
  assert(binding_.colorer != nullptr &&
         "a dyn binding needs its incremental colorer");

  // The batch's node set must be colored before the executor's step
  // resolves it — staged, this happens-before edge is the token cut;
  // inline, the step runs right after on the same thread. touch()
  // memoizes, so repeated nodes are O(1).
  binding_.colorer->touch(std::span<const Node>(batch.nodes.data(),
                                                batch.nodes.size()));

  // Writers of this batch, in canonical member order (members are pushed
  // in admission order, which is canonical). Canonical order is the
  // barrier's tie-break: it matches the order a single client planned its
  // speculative mutations in, so per-client sequences apply exactly as
  // planned, and cross-client conflicts resolve to the canonically-first
  // writer deterministically.
  bool wrote = false;
  for (const std::size_t index : batch.members) {
    const Request& req = requests_[index];
    if (req.kind == RequestKind::kRead || applied_[index] != 0) continue;
    applied_[index] = 1;

    MutationRecord rec;
    rec.batch = batch.id;
    rec.client = req.client;
    rec.seq = req.seq;
    rec.kind = req.kind;
    rec.target = req.target;
    rec.payload = req.payload;
    rec.applied_cycle = cycle;

    // Dedup: the most recent non-duplicate writer on this coordinate in
    // this batch decides. Same kind — an identical op already got its
    // verdict, later copies are marked instead of re-applied. Different
    // kind — the coordinate's state changed in between (insert-erase-
    // insert oscillation, e.g. a heap shrinking and regrowing past the
    // same BFS slot), so the repeat is a fresh application, not a copy.
    bool duplicate = false;
    for (auto it = log_.rbegin(); it != log_.rend() && it->batch == batch.id;
         ++it) {
      if (it->target != rec.target ||
          it->status == dyn::DynStatus::kDuplicate) {
        continue;
      }
      duplicate = it->kind == rec.kind;
      break;
    }
    if (duplicate) {
      rec.status = dyn::DynStatus::kDuplicate;
      log_.push_back(rec);
      continue;
    }

    if (req.kind == RequestKind::kInsert) {
      rec.status = binding_.tree->insert_node(req.target);
      if (rec.status == dyn::DynStatus::kOk) {
        binding_.colorer->touch(req.target);
      }
    } else {
      rec.status = binding_.tree->remove_leaf(req.target);
    }
    wrote = wrote || rec.status == dyn::DynStatus::kOk;
    log_.push_back(rec);
  }

  // The strawman epoch model: any batch that wrote invalidates the whole
  // coloring and pays a full re-touch of the live set.
  if (wrote && binding_.recolor_from_scratch) {
    binding_.colorer->reset();
    const std::vector<Node> live = binding_.tree->live_nodes();
    binding_.colorer->touch(std::span<const Node>(live.data(), live.size()));
    // The batch in flight still needs its (possibly just-erased) read
    // coordinates colored for the workers.
    binding_.colorer->touch(std::span<const Node>(batch.nodes.data(),
                                                  batch.nodes.size()));
  }
  return nullptr;
}

Json DynBarrier::stats() const {
  std::uint64_t inserts = 0;
  std::uint64_t erases = 0;
  std::uint64_t applied = 0;
  std::uint64_t duplicates = 0;
  for (const MutationRecord& rec : log_) {
    if (rec.kind == RequestKind::kInsert) ++inserts;
    if (rec.kind == RequestKind::kErase) ++erases;
    if (rec.status == dyn::DynStatus::kOk) ++applied;
    if (rec.status == dyn::DynStatus::kDuplicate) ++duplicates;
  }
  Json j = Json::object();
  j.set("live_nodes", Json(binding_.tree->size()));
  j.set("levels", Json(std::uint64_t{binding_.tree->levels()}));
  j.set("tree_version", Json(binding_.tree->version()));
  Json muts = Json::object();
  muts.set("inserts", Json(inserts));
  muts.set("erases", Json(erases));
  muts.set("applied", Json(applied));
  muts.set("rejected", Json(log_.size() - applied - duplicates));
  muts.set("deduped", Json(duplicates));
  j.set("mutations", std::move(muts));
  Json colorer = Json::object();
  colorer.set("scheme", Json(std::string(binding_.colorer->name())));
  colorer.set("nodes_colored", Json(binding_.colorer->nodes_colored()));
  colorer.set("touches", Json(binding_.colorer->touches()));
  colorer.set("from_scratch", Json(binding_.recolor_from_scratch));
  j.set("colorer", std::move(colorer));
  return j;
}

}  // namespace pmtree::serve
