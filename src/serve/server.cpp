#include "pmtree/serve/server.hpp"

#include <memory>
#include <utility>

#include "control.hpp"

namespace pmtree::serve {

std::uint64_t ServeReport::count(RequestStatus status) const noexcept {
  return detail::count_status(responses, status);
}

Json ServeReport::to_json() const {
  Json j = Json::object();
  j.set("requests", Json(responses.size()));
  j.set("ok", Json(count(RequestStatus::kOk)));
  j.set("shed", Json(count(RequestStatus::kShed)));
  j.set("expired", Json(count(RequestStatus::kExpired)));
  j.set("batches", Json(batches.size()));
  j.set("replicas", Json(replicas.size()));
  j.set("ticks", Json(ticks));
  j.set("rounds", Json(rounds));
  j.set("final_cycle", Json(final_cycle));
  // Read-only runs keep their exact JSON shape; read-write runs add the
  // barrier's aggregate verdicts.
  if (!mutations.empty()) {
    std::uint64_t applied = 0;
    for (const MutationRecord& m : mutations) {
      applied += m.status == dyn::DynStatus::kOk ? 1 : 0;
    }
    Json muts = Json::object();
    muts.set("count", Json(mutations.size()));
    muts.set("applied", Json(applied));
    muts.set("rejected", Json(mutations.size() - applied));
    j.set("mutations", std::move(muts));
  }
  // Accounting-only runs keep their exact JSON shape; real-memory runs
  // add the arena traffic totals.
  if (memory.nodes != 0) j.set("memory", memory.to_json());
  j.set("metrics", metrics);

  j.set("responses", detail::response_rows(responses));
  return j;
}

Server::Server(const TreeMapping& mapping, ServerOptions options)
    : mapping_(mapping), options_(options) {
  if (options_.tick_cycles == 0) options_.tick_cycles = 1;
  if (options_.replicas == 0) options_.replicas = 1;
  detail::PlaneOptions plane;
  plane.tick_cycles = options_.tick_cycles;
  plane.workers = options_.workers;
  plane.pipeline = options_.pipeline;
  plane_ = std::make_unique<detail::ControlPlane>(std::move(plane), registry_);

  // One tenant, no DRR metering: the server's own knobs, its dyn binding,
  // and the "serve" / "serve.replicaN" metric names.
  detail::PlaneTenant tenant;
  tenant.mapping = &mapping_;
  tenant.options.admission = options_.admission;
  tenant.options.batch = options_.batch;
  tenant.options.retry = options_.retry;
  tenant.options.engine = options_.engine;
  tenant.options.migration = options_.migration;
  tenant.options.adaptive = options_.adaptive;
  tenant.options.memory = options_.memory;
  tenant.dyn = options_.dyn;
  tenant.metrics_prefix = "serve";
  tenant.lane_prefix = "serve.replica";
  tenant.lanes = options_.replicas;
  plane_->add_tenant(std::move(tenant));
}

Server::~Server() = default;

void Server::submit(Request request) { plane_->submit(0, std::move(request)); }

void Server::submit(std::vector<Request> requests) {
  for (Request& r : requests) submit(std::move(r));
}

ServeReport Server::run() {
  detail::PlaneReport run = plane_->run();
  TenantReport& tenant = run.tenants[0];
  ServeReport report;
  report.responses = std::move(tenant.responses);
  report.batches = std::move(tenant.batches);
  report.replicas = std::move(tenant.lanes);
  report.ticks = run.ticks;
  report.rounds = run.rounds;
  report.final_cycle = run.final_cycle;
  report.mutations = std::move(run.mutations[0]);
  report.memory = tenant.memory;
  report.metrics = std::move(tenant.metrics);
  return report;
}

}  // namespace pmtree::serve
