// Runtime mapping selection for the serve loop (DESIGN.md §17).
//
// The paper's R10 trade-off (§4–§6) is the observation that COLOR and
// LABEL-TREE rank *differently* depending on the template mix: COLOR is
// optimal for subtrees and strong on composites, LABEL-TREE wins on some
// path/level-dominated mixes, and neither dominates. A deployment that
// fixes one of them at configuration time is betting on a workload it has
// not seen. This layer turns the choice into a measurement:
//
//   AdaptiveSelector — epoch controller on the same skeleton as §15's
//     MigrationPlanner (epoch.hpp). Every cut batch it resolves the
//     batch's deduped node set through EVERY candidate mapping and scores
//     each candidate by the batch's peak per-module request count (the
//     makespan of the batch under the paper's one-request-per-module-per-
//     cycle service model — the quantity the engine's completion time is
//     governed by). Every `epoch_batches` batches it re-decides: when some
//     candidate strictly beats the incumbent, batches cut from then on
//     resolve against that candidate itself — one of the paper's
//     mappings, with no wrapper in between. Then the scores decay.
//   AdaptiveEvent — the audit record of one epoch decision.
//
// Determinism contract (inherited verbatim from §15): the selector is
// driven only by the single-threaded control plane, in batch cut order;
// scores are integer sums of conflict peaks, decayed with integer shifts.
// Selector state is a pure function of the cut sequence, so both
// executors make identical decisions and produce bit-identical responses
// at any worker count. Crucially the score is a
// *simulated* quantity: the real-memory backend (pmtree/mem) measures
// bandwidth but never feeds the decision path, so enabling it cannot
// perturb the selection (or the responses).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pmtree/mapping/mapping.hpp"
#include "pmtree/serve/batch.hpp"
#include "pmtree/serve/epoch.hpp"
#include "pmtree/tree/node.hpp"
#include "pmtree/util/json.hpp"

namespace pmtree::serve {

/// Epoch-based selection knobs. Disabled by default: `epoch_batches == 0`
/// (or no candidates) keeps every serve path byte-identical to the
/// static-mapping server.
struct AdaptivePolicy {
  /// Re-decide every this many cut batches. 0 disables adaptation.
  std::uint32_t epoch_batches = 0;
  /// The mappings on the table (not owned; each must outlive the run and
  /// color the server's tree with the server's module count). The
  /// server's own mapping serves until the first epoch decision; list it
  /// here too if it should stay eligible afterwards.
  std::vector<const TreeMapping*> candidates;
  /// Epoch decay: every candidate score loses s >> decay_shift at each
  /// epoch boundary (shift 1 ≈ half-life of one epoch). 0 forgets
  /// everything between epochs.
  std::uint32_t decay_shift = 1;

  [[nodiscard]] bool enabled() const noexcept {
    return epoch_batches > 0 && !candidates.empty();
  }
};

/// One epoch decision, for audit and metrics.
struct AdaptiveEvent {
  std::uint64_t epoch = 0;    ///< 1-based epoch ordinal
  std::uint64_t cycle = 0;    ///< control-plane cycle of the decision
  std::uint64_t batches = 0;  ///< cumulative batches observed so far
  std::vector<std::uint64_t> scores;  ///< decayed score per candidate
  std::size_t chosen = 0;             ///< winning candidate index
  bool switched = false;              ///< did the active mapping change?

  [[nodiscard]] Json to_json() const;
};

/// The epoch controller. One selector per server run (or per Forest
/// tenant); all calls come from the single-threaded control plane.
class AdaptiveSelector {
 public:
  /// `base` and every policy candidate must outlive the selector. All
  /// candidates must share base's tree and module count (asserted).
  AdaptiveSelector(const TreeMapping& base, const AdaptivePolicy& policy);

  /// Folds one freshly cut batch (deduped nodes) into every candidate's
  /// score, in cut order, and re-decides when the policy's batch budget
  /// is reached. `cycle` is the control-plane tick that cut the batch
  /// (audit only — it never affects the decision).
  void observe(std::span<const Node> nodes, std::uint64_t cycle);

  /// The control plane's epoch hook: observe(batch.nodes, cycle), then the
  /// mapping the batch resolves against.
  const TreeMapping* on_cut(const FormedBatch& batch, std::uint64_t cycle) {
    observe(batch.nodes, cycle);
    return &current();
  }

  /// The mapping batches cut *now* should resolve against: the base until
  /// the first switch, then the chosen candidate itself.
  [[nodiscard]] const TreeMapping& current() const noexcept {
    return *active_;
  }

  /// The candidate currently serving, or nullptr while the base still is
  /// (no switch yet — ties keep the base in place even when it is listed
  /// among the candidates).
  [[nodiscard]] const TreeMapping* active_candidate() const noexcept {
    return switches_ == 0 ? nullptr : active_;
  }
  [[nodiscard]] std::uint64_t epochs_planned() const noexcept {
    return log_.epochs;
  }
  [[nodiscard]] std::uint64_t batches_observed() const noexcept {
    return log_.batches;
  }
  [[nodiscard]] const std::vector<AdaptiveEvent>& events() const noexcept {
    return log_.events;
  }
  [[nodiscard]] std::span<const std::uint64_t> scores() const noexcept {
    return scores_;
  }

  /// The serve metrics section stats() is reported under.
  static constexpr const char* kSection = "adaptive";
  /// Metrics payload: policy echo with candidate names, epoch/switch
  /// counters, the live scores, and the last few events (full event list
  /// stays in events()). "mappings_minted" counts the switches.
  [[nodiscard]] Json stats() const;

 private:
  void decide(std::uint64_t cycle);

  const TreeMapping& base_;
  AdaptivePolicy policy_;
  std::vector<std::uint64_t> scores_;      ///< one per candidate
  std::vector<Color> color_scratch_;
  std::vector<std::uint32_t> load_scratch_;  ///< per-module counts
  /// The mapping actually serving: &base_ until the first switch, then
  /// always one of policy_.candidates, compared by pointer when deciding.
  const TreeMapping* active_ = nullptr;
  EpochLog<AdaptiveEvent> log_;
  std::uint64_t switches_ = 0;  ///< decisions that changed the mapping
};

}  // namespace pmtree::serve
