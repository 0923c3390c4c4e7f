#include "pmtree/serve/metrics.hpp"

namespace pmtree::serve {
namespace {

using engine::Histogram;

Json histogram_summary(const Histogram& h) {
  Json j = Json::object();
  j.set("count", Json(h.count()));
  // Explicit zero-request guard: an empty histogram's min() sentinel is
  // UINT64_MAX and its quantiles lean on the PR 5 saturating-sum edge
  // cases. A run with no samples (all requests shed, or none submitted)
  // must still emit a well-formed summary, so pin every derived field to
  // an explicit zero instead of reading the empty instrument.
  if (h.count() == 0) {
    j.set("mean", Json(0.0));
    j.set("max", Json(std::uint64_t{0}));
    j.set("p50", Json(std::uint64_t{0}));
    j.set("p95", Json(std::uint64_t{0}));
    j.set("p99", Json(std::uint64_t{0}));
    j.set("p999", Json(std::uint64_t{0}));
    return j;
  }
  j.set("mean", Json(h.mean()));
  j.set("max", Json(h.max()));
  j.set("p50", Json(h.p50()));
  j.set("p95", Json(h.p95()));
  j.set("p99", Json(h.p99()));
  j.set("p999", Json(h.value_at_quantile(0.999)));
  return j;
}

}  // namespace

ServeMetrics::ServeMetrics(engine::MetricsRegistry& registry,
                           std::string prefix)
    : prefix_(std::move(prefix)),
      submitted_(&registry.counter(prefix_ + ".submitted")),
      admitted_(&registry.counter(prefix_ + ".admitted")),
      blocked_(&registry.counter(prefix_ + ".blocked")),
      promoted_(&registry.counter(prefix_ + ".promoted")),
      completed_(&registry.counter(prefix_ + ".completed")),
      shed_(&registry.counter(prefix_ + ".shed")),
      expired_(&registry.counter(prefix_ + ".expired")),
      batches_(&registry.counter(prefix_ + ".batches")),
      batched_requests_(&registry.counter(prefix_ + ".batched_requests")),
      requested_nodes_(&registry.counter(prefix_ + ".requested_nodes")),
      batched_nodes_(&registry.counter(prefix_ + ".batched_nodes")),
      coalesced_nodes_(&registry.counter(prefix_ + ".coalesced_nodes")),
      ticks_(&registry.counter(prefix_ + ".ticks")),
      retries_(&registry.counter(prefix_ + ".retries")),
      rerouted_requests_(&registry.counter(prefix_ + ".rerouted_requests")),
      stalled_cycles_(&registry.counter(prefix_ + ".stalled_cycles")),
      queue_depth_(&registry.gauge(prefix_ + ".queue_depth")),
      blocked_depth_(&registry.gauge(prefix_ + ".blocked_depth")),
      latency_(&registry.histogram(prefix_ + ".latency")),
      queue_wait_(&registry.histogram(prefix_ + ".queue_wait")),
      batch_nodes_(&registry.histogram(prefix_ + ".batch_nodes")),
      batch_requests_(&registry.histogram(prefix_ + ".batch_requests")),
      retried_latency_(&registry.histogram(prefix_ + ".retried_latency")) {}

void ServeMetrics::on_tick(std::size_t pending, std::size_t blocked_depth) {
  ticks_->add();
  queue_depth_->set(static_cast<std::int64_t>(pending));
  blocked_depth_->set(static_cast<std::int64_t>(blocked_depth));
}

void ServeMetrics::on_batch(const FormedBatch& batch) {
  batches_->add();
  batched_requests_->add(batch.members.size());
  requested_nodes_->add(batch.requested_nodes);
  batched_nodes_->add(batch.nodes.size());
  coalesced_nodes_->add(batch.coalesced_nodes());
  batch_nodes_->record(batch.nodes.size());
  batch_requests_->record(batch.members.size());
}

void ServeMetrics::on_completed(const Response& response) {
  completed_->add();
  latency_->record(response.latency());
  queue_wait_->record(response.queue_wait());
  if (response.retries > 0) retried_latency_->record(response.latency());
}

Json ServeMetrics::summary() const {
  Json counters = Json::object();
  counters.set("submitted", Json(submitted_->value()));
  counters.set("admitted", Json(admitted_->value()));
  counters.set("blocked", Json(blocked_->value()));
  counters.set("promoted", Json(promoted_->value()));
  counters.set("completed", Json(completed_->value()));
  counters.set("shed", Json(shed_->value()));
  counters.set("expired", Json(expired_->value()));
  counters.set("ticks", Json(ticks_->value()));

  Json batches = Json::object();
  const std::uint64_t n = batches_->value();
  batches.set("count", Json(n));
  batches.set("mean_requests",
              Json(n == 0 ? 0.0
                          : static_cast<double>(batched_requests_->value()) /
                                static_cast<double>(n)));
  batches.set("mean_nodes",
              Json(n == 0 ? 0.0
                          : static_cast<double>(batched_nodes_->value()) /
                                static_cast<double>(n)));
  batches.set("max_nodes", Json(batch_nodes_->max()));
  batches.set("requested_nodes", Json(requested_nodes_->value()));
  batches.set("batched_nodes", Json(batched_nodes_->value()));
  batches.set("coalesced_nodes", Json(coalesced_nodes_->value()));

  Json queues = Json::object();
  queues.set("pending_high_water",
             Json(static_cast<std::uint64_t>(queue_depth_->high_water())));
  queues.set("blocked_high_water",
             Json(static_cast<std::uint64_t>(blocked_depth_->high_water())));

  Json faults = Json::object();
  faults.set("retries", Json(retries_->value()));
  faults.set("rerouted_requests", Json(rerouted_requests_->value()));
  faults.set("stalled_cycles", Json(stalled_cycles_->value()));
  faults.set("retried_latency", histogram_summary(*retried_latency_));

  Json j = Json::object();
  j.set("latency", histogram_summary(*latency_));
  j.set("queue_wait", histogram_summary(*queue_wait_));
  j.set("batches", batches);
  j.set("counters", counters);
  j.set("queues", queues);
  j.set("faults", faults);
  for (const auto& [name, section] : sections_.members()) j.set(name, section);
  return j;
}

}  // namespace pmtree::serve
