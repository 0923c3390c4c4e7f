#include "pmtree/serve/forest.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "control.hpp"

namespace pmtree::serve {
std::uint64_t TenantReport::count(RequestStatus status) const noexcept {
  return detail::count_status(responses, status);
}

std::uint64_t ForestReport::count(RequestStatus status) const noexcept {
  std::uint64_t n = 0;
  for (const TenantReport& t : tenants) n += t.count(status);
  return n;
}

std::uint64_t ForestReport::total_requests() const noexcept {
  std::uint64_t n = 0;
  for (const TenantReport& t : tenants) n += t.responses.size();
  return n;
}

Json ForestReport::to_json() const {
  Json j = Json::object();
  j.set("tenant_count", Json(tenants.size()));
  j.set("requests", Json(total_requests()));
  j.set("ok", Json(count(RequestStatus::kOk)));
  j.set("shed", Json(count(RequestStatus::kShed)));
  j.set("expired", Json(count(RequestStatus::kExpired)));
  j.set("ticks", Json(ticks));
  j.set("rounds", Json(rounds));
  j.set("final_cycle", Json(final_cycle));
  j.set("metrics", metrics);

  Json jtenants = Json::array();
  for (const TenantReport& t : tenants) {
    Json row = Json::object();
    row.set("name", Json(t.name));
    row.set("requests", Json(t.responses.size()));
    row.set("ok", Json(t.count(RequestStatus::kOk)));
    row.set("shed", Json(t.count(RequestStatus::kShed)));
    row.set("expired", Json(t.count(RequestStatus::kExpired)));
    row.set("batches", Json(t.batches.size()));
    row.set("served_nodes", Json(t.served_nodes));
    if (t.memory.nodes != 0) row.set("memory", t.memory.to_json());
    row.set("responses", detail::response_rows(t.responses));
    jtenants.push_back(std::move(row));
  }
  j.set("tenants", std::move(jtenants));
  return j;
}

Forest::Forest(ForestOptions options) : options_(options) {
  if (options_.tick_cycles == 0) options_.tick_cycles = 1;
  if (options_.replicas == 0) options_.replicas = 1;
  if (options_.drr_quantum_nodes == 0) options_.drr_quantum_nodes = 1;
  detail::PlaneOptions plane;
  plane.tick_cycles = options_.tick_cycles;
  plane.workers = options_.workers;
  plane.pipeline = options_.pipeline;
  plane.fair = true;
  plane.drr_quantum_nodes = options_.drr_quantum_nodes;
  plane.global_queue_bound = options_.global_queue_bound;
  plane.aggregate_prefix = "forest";
  plane_ = std::make_unique<detail::ControlPlane>(std::move(plane), registry_);
}

Forest::~Forest() = default;

std::uint32_t Forest::add_tenant(const TreeMapping& mapping,
                                 TenantOptions options) {
  if (planned_) {
    throw std::logic_error(
        "Forest: register every tenant before the first plan() or run()");
  }
  const std::string id = std::to_string(tenant_count());
  if (options.name.empty()) options.name = "t" + id;
  if (options.weight == 0) options.weight = 1;
  detail::PlaneTenant tenant;
  tenant.mapping = &mapping;
  tenant.options = std::move(options);
  tenant.metrics_prefix = "forest.t" + id;
  tenant.lane_prefix = "forest.t" + id + ".lane";
  return plane_->add_tenant(std::move(tenant));
}

void Forest::submit(std::uint32_t tenant, Request request) {
  plane_->submit(tenant, std::move(request));
}

void Forest::submit(std::uint32_t tenant, std::vector<Request> requests) {
  for (Request& r : requests) submit(tenant, std::move(r));
}

std::uint32_t Forest::tenant_count() const noexcept {
  return static_cast<std::uint32_t>(plane_->tenants().size());
}

const TenantOptions& Forest::tenant_options(std::uint32_t id) const {
  return plane_->tenants().at(id).options;
}

void Forest::ensure_plan() {
  if (planned_) return;
  std::vector<detail::PlaneTenant>& tenants = plane_->tenants();
  std::vector<double> rates;
  rates.reserve(tenants.size());
  for (const detail::PlaneTenant& t : tenants) rates.push_back(t.options.rate);
  plan_ = plan_capacity(rates, options_.replicas);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].first_lane = plan_.first_lane[i];
    tenants[i].lanes = plan_.lanes[i];
  }
  planned_ = true;
}

const CapacityPlan& Forest::plan() {
  ensure_plan();
  return plan_;
}

ForestReport Forest::run() {
  ensure_plan();
  detail::PlaneReport run = plane_->run();
  ForestReport report;
  report.plan = plan_;
  report.tenants = std::move(run.tenants);
  report.ticks = run.ticks;
  report.rounds = run.rounds;
  report.final_cycle = run.final_cycle;

  // ---- Rollup: forest aggregate + per-tenant fairness rows. ----------
  std::uint64_t total_served_nodes = 0;
  for (const TenantReport& t : report.tenants) {
    total_served_nodes += t.served_nodes;
  }
  Json roll = Json::object();
  roll.set("forest", std::move(run.aggregate));
  Json jtenants = Json::array();
  for (std::size_t i = 0; i < report.tenants.size(); ++i) {
    const TenantReport& t = report.tenants[i];
    const TenantOptions& topts = tenant_options(static_cast<std::uint32_t>(i));
    Json row = Json::object();
    row.set("id", Json(i));
    row.set("name", Json(t.name));
    row.set("weight", Json(topts.weight));
    row.set("rate", Json(topts.rate));
    row.set("lanes", Json(std::uint64_t{plan_.lanes[i]}));
    row.set("first_lane", Json(std::uint64_t{plan_.first_lane[i]}));
    if (run.pool_bound != 0) {
      row.set("reserved", Json(std::uint64_t{run.reserved[i]}));
    }
    row.set("requests", Json(t.responses.size()));
    row.set("served_nodes", Json(t.served_nodes));
    row.set("batch_share",
            Json(total_served_nodes == 0
                     ? 0.0
                     : static_cast<double>(t.served_nodes) /
                           static_cast<double>(total_served_nodes)));
    row.set("metrics", t.metrics);
    jtenants.push_back(std::move(row));
  }
  roll.set("tenants", std::move(jtenants));
  roll.set("plan", plan_.to_json());
  if (run.pool_bound != 0) roll.set("global_queue_bound", Json(run.pool_bound));
  report.metrics = std::move(roll);
  return report;
}

}  // namespace pmtree::serve
