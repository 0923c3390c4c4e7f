#include "pmtree/serve/adaptive.hpp"

#include <algorithm>
#include <cassert>

namespace pmtree::serve {

Json AdaptiveEvent::to_json() const {
  Json j = Json::object();
  j.set("epoch", Json(epoch));
  j.set("cycle", Json(cycle));
  j.set("batches", Json(batches));
  Json jscores = Json::array();
  for (const std::uint64_t s : scores) jscores.push_back(Json(s));
  j.set("scores", std::move(jscores));
  j.set("chosen", Json(static_cast<std::uint64_t>(chosen)));
  j.set("switched", Json(switched));
  return j;
}

AdaptiveSelector::AdaptiveSelector(const TreeMapping& base,
                                   const AdaptivePolicy& policy)
    : base_(base),
      policy_(policy),
      active_(&base) {
  assert(policy_.enabled());
  log_.epoch_batches = policy.epoch_batches;
  scores_.assign(policy_.candidates.size(), 0);
  load_scratch_.assign(base_.num_modules(), 0);
#ifndef NDEBUG
  for (const TreeMapping* c : policy_.candidates) {
    assert(c != nullptr);
    assert(c->tree() == base_.tree() &&
           "adaptive candidates must color the server's tree");
    assert(c->num_modules() == base_.num_modules() &&
           "adaptive candidates must use the server's module count");
  }
#endif
}

void AdaptiveSelector::observe(std::span<const Node> nodes,
                               std::uint64_t cycle) {
  color_scratch_.resize(nodes.size());
  const std::span<Color> colors(color_scratch_.data(), color_scratch_.size());
  // Score every candidate on the same batch: the batch's peak per-module
  // request count is its makespan under the paper's service model (one
  // request per module per cycle), so the sum over batches estimates how
  // long this candidate would have taken to serve the observed stream.
  for (std::size_t j = 0; j < policy_.candidates.size(); ++j) {
    policy_.candidates[j]->color_of_batch(nodes, colors);
    std::fill(load_scratch_.begin(), load_scratch_.end(), 0u);
    std::uint32_t peak = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::uint32_t l = ++load_scratch_[colors[i]];
      peak = std::max(peak, l);
    }
    scores_[j] += peak;
  }
  if (log_.tick()) decide(cycle);
}

void AdaptiveSelector::decide(std::uint64_t cycle) {
  // Argmin over the accumulated scores, ties to the lowest index — a
  // total order, so the decision is a pure function of the cut sequence.
  std::size_t best = 0;
  for (std::size_t j = 1; j < scores_.size(); ++j) {
    if (scores_[j] < scores_[best]) best = j;
  }

  // Hysteresis: an incumbent candidate is only unseated by a *strictly*
  // better score (the base has no score, so the first decision always
  // installs a candidate). This keeps a workload sitting exactly on a
  // tie from oscillating between mappings every epoch.
  bool switched = false;
  std::size_t incumbent = scores_.size();
  for (std::size_t j = 0; j < policy_.candidates.size(); ++j) {
    if (policy_.candidates[j] == active_) incumbent = j;
  }
  const std::size_t chosen =
      (incumbent < scores_.size() && scores_[best] >= scores_[incumbent])
          ? incumbent
          : best;
  if (policy_.candidates[chosen] != active_) {
    active_ = policy_.candidates[chosen];
    switches_ += 1;
    switched = true;
  }

  AdaptiveEvent event;
  event.epoch = log_.epochs;
  event.cycle = cycle;
  event.batches = log_.batches;
  event.scores = scores_;
  event.chosen = chosen;
  event.switched = switched;
  log_.events.push_back(std::move(event));

  // Age the scores after the decision: next epoch's comparison weighs
  // this epoch's traffic at (1 - 2^-decay_shift), older traffic
  // geometrically less — same integer forgetting as HeatTracker::decay.
  for (std::uint64_t& s : scores_) decay_step(s, policy_.decay_shift);
}

Json AdaptiveSelector::stats() const {
  Json policy = Json::object();
  policy.set("epoch_batches", Json(std::uint64_t{policy_.epoch_batches}));
  policy.set("decay_shift", Json(std::uint64_t{policy_.decay_shift}));
  Json jcands = Json::array();
  for (const TreeMapping* c : policy_.candidates) {
    jcands.push_back(Json(c->name()));
  }
  policy.set("candidates", std::move(jcands));

  Json j = Json::object();
  j.set("policy", std::move(policy));
  j.set("batches_observed", Json(log_.batches));
  j.set("epochs_planned", Json(log_.epochs));
  j.set("mappings_minted", Json(switches_));
  j.set("switches", Json(switches_));
  j.set("active", Json(active_->name()));
  Json jscores = Json::array();
  for (const std::uint64_t s : scores_) jscores.push_back(Json(s));
  j.set("scores", std::move(jscores));
  j.set("recent_events", log_.recent());
  return j;
}

}  // namespace pmtree::serve
