// ServeMetrics: the SLO-facing observability layer of pmtree::serve.
//
// A serving front-end is judged by its tail: p99/p999 end-to-end latency,
// how much load it shed, how many deadlines it blew, how full its queues
// ran. ServeMetrics records exactly that view on top of engine::MetricsRegistry
// — the same instrument kinds (Counter/Gauge/Histogram) the cycle engine
// uses, under a caller-chosen prefix, so one registry can hold a whole
// bench run (server + per-replica engine instruments) and export a single
// deterministic JSON snapshot.
//
// Instruments (all under `<prefix>.`):
//   counters  submitted, admitted, blocked, promoted, completed, shed,
//             expired, batches, batched_requests, requested_nodes,
//             batched_nodes, coalesced_nodes, ticks
//   gauges    queue_depth, blocked_depth (high-water = worst backlog)
//   histograms latency (end-to-end, kOk), queue_wait (submit → dispatch),
//             batch_nodes (deduped nodes per batch), batch_requests
//             (members per batch)
//
// summary() distills the SLO view: p50/p95/p99/p999 latency, counters,
// mean batch occupancy — the JSON object ServeReport carries and
// bench_e19 writes per configuration.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "pmtree/engine/metrics.hpp"
#include "pmtree/serve/batch.hpp"
#include "pmtree/serve/request.hpp"
#include "pmtree/util/json.hpp"

namespace pmtree::serve {

class ServeMetrics {
 public:
  /// Instruments are created in `registry` on first touch; the registry
  /// must outlive this object.
  explicit ServeMetrics(engine::MetricsRegistry& registry,
                        std::string prefix = "serve");

  void on_submitted(std::uint64_t count) { submitted_->add(count); }
  void on_admitted() { admitted_->add(); }
  void on_blocked() { blocked_->add(); }
  void on_promoted(std::uint64_t count) { promoted_->add(count); }
  void on_shed() { shed_->add(); }
  void on_expired(std::uint64_t count) { expired_->add(count); }
  void on_tick(std::size_t pending, std::size_t blocked_depth);
  void on_batch(const FormedBatch& batch);
  /// Retry attempts issued this round (RetryPolicy timeouts).
  void on_retried(std::uint64_t count) { retries_->add(count); }
  /// Fault counters folded out of the replica engine runs: requests
  /// rerouted off fail-stopped modules, module-cycles lost to slowdowns.
  void on_replica_faults(std::uint64_t rerouted, std::uint64_t stalled) {
    rerouted_requests_->add(rerouted);
    stalled_cycles_->add(stalled);
  }
  /// Terminal kOk observation: completes the latency / queue-wait view.
  /// Responses that needed retries also land in the fault-attributed
  /// latency histogram — the tail the fault injection bought.
  void on_completed(const Response& response);

  /// Attaches a named snapshot section: stage attribution ("pipeline"),
  /// the epoch policy ("migration", "adaptive" or "dyn") or arena traffic
  /// ("memory"). summary() emits sections after the core view in attach
  /// order, so a run that attaches none keeps its exact JSON shape.
  void set_section(const std::string& name, Json stats) {
    sections_.set(name, std::move(stats));
  }

  /// SLO snapshot:
  ///   {"latency": {"count","p50","p95","p99","p999","mean","max"},
  ///    "queue_wait": {...same shape...},
  ///    "batches": {"count","mean_requests","mean_nodes","max_nodes",
  ///                "coalesced_nodes"},
  ///    "counters": {submitted, admitted, ...},
  ///    "queues": {"pending_high_water","blocked_high_water"},
  ///    "faults": {"retries","rerouted_requests","stalled_cycles",
  ///               "retried_latency": {...histogram...}}}
  [[nodiscard]] Json summary() const;

  [[nodiscard]] const std::string& prefix() const noexcept { return prefix_; }

 private:
  std::string prefix_;
  engine::Counter* submitted_;
  engine::Counter* admitted_;
  engine::Counter* blocked_;
  engine::Counter* promoted_;
  engine::Counter* completed_;
  engine::Counter* shed_;
  engine::Counter* expired_;
  engine::Counter* batches_;
  engine::Counter* batched_requests_;
  engine::Counter* requested_nodes_;
  engine::Counter* batched_nodes_;
  engine::Counter* coalesced_nodes_;
  engine::Counter* ticks_;
  engine::Counter* retries_;
  engine::Counter* rerouted_requests_;
  engine::Counter* stalled_cycles_;
  engine::Gauge* queue_depth_;
  engine::Gauge* blocked_depth_;
  engine::Histogram* latency_;
  engine::Histogram* queue_wait_;
  engine::Histogram* batch_nodes_;
  engine::Histogram* batch_requests_;
  engine::Histogram* retried_latency_;
  Json sections_ = Json::object();  ///< set_section(), in attach order
};

}  // namespace pmtree::serve
