#include "control.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "pmtree/serve/adaptive.hpp"
#include "pmtree/serve/admission.hpp"
#include "pmtree/serve/batch.hpp"
#include "pmtree/serve/fair.hpp"
#include "pmtree/serve/metrics.hpp"
#include "pmtree/serve/migration.hpp"

namespace pmtree::serve::detail {
namespace {

bool canonical_less(const Submitted& a, const Submitted& b) {
  return std::tie(a.request.submit_cycle, a.tenant, a.request.client,
                  a.request.seq) < std::tie(b.request.submit_cycle, b.tenant,
                                            b.request.client, b.request.seq);
}

/// The tenant's epoch controller: skew migration (§15) or adaptive
/// selection (§17), observing every cut batch in canonical order and
/// naming the mapping the batch resolves against (nullptr = the lane's
/// static one). A tenant with a fault plan keeps its static mapping — the
/// reroute table owns its color space.
struct EpochPolicy {
  explicit EpochPolicy(const PlaneTenant& tenant) {
    const TenantOptions& o = tenant.options;
    if (o.engine.faults != nullptr && !o.engine.faults->empty()) return;
    if (o.migration.enabled()) {
      planner = std::make_unique<MigrationPlanner>(*tenant.mapping, o.migration);
    } else if (o.adaptive.enabled()) {
      selector = std::make_unique<AdaptiveSelector>(*tenant.mapping, o.adaptive);
    }
  }
  [[nodiscard]] bool active() const noexcept { return planner || selector; }
  const TreeMapping* observe(std::span<const Node> nodes, std::uint64_t t) {
    if (planner) planner->observe(nodes, t);
    if (selector) selector->observe(nodes, t);
    return planner    ? &planner->current()
           : selector ? &selector->current()
                      : nullptr;
  }

  std::unique_ptr<MigrationPlanner> planner;
  std::unique_ptr<AdaptiveSelector> selector;
};

/// One tenant's control state for one run.
struct TenantState {
  TenantState(const PlaneTenant& t, engine::MetricsRegistry& registry)
      : metrics(registry, t.metrics_prefix),
        admission(t.options.admission),
        former(t.options.batch),
        epochs(t) {}

  std::vector<Request> requests;  ///< canonical order; index = local id
  ServeMetrics metrics;
  AdmissionController admission;
  BatchFormer former;
  EpochPolicy epochs;
  std::vector<std::uint32_t> attempts;  ///< retries issued, per request
  std::vector<char> applied;            ///< dyn: mutation applied, per request
  std::size_t round_first_batch = 0;
};

void validate(const PlaneTenant& tenant) {
  const TenantOptions& o = tenant.options;
  const bool dyn = tenant.dyn.enabled();
  const char* why =
      dyn && o.migration.enabled()
          ? "dyn serving and skew migration are mutually exclusive"
      : dyn && o.adaptive.enabled()
          ? "dyn serving and adaptive selection are mutually exclusive"
      : o.migration.enabled() && o.adaptive.enabled()
          ? "migration and adaptive selection both own the epoch mapping"
      : dyn && o.memory != nullptr
          ? "the real-memory arenas are sized for a frozen tree"
      : o.engine.memory != nullptr
          ? "engine.memory is not a serve option; set the serve memory "
            "backend instead"
          : nullptr;
  if (why != nullptr) throw std::invalid_argument(std::string("serve: ") + why);
  // AdaptiveSelector scores every candidate into per-module scratch sized
  // from the tenant mapping, and its epochs index the lane's engine arena.
  if (!o.adaptive.enabled()) return;
  for (const TreeMapping* c : o.adaptive.candidates) {
    if (c == nullptr || c->tree() != tenant.mapping->tree() ||
        c->num_modules() != tenant.mapping->num_modules()) {
      throw std::invalid_argument(
          "serve: adaptive candidates must color the tenant's tree with its "
          "module count");
    }
  }
}

/// The canonical (submit_cycle, tenant, client, seq) order of everything
/// in `stripes` — a pure function of the submitted set, whichever thread
/// delivered first. Points into `stripes`.
std::vector<Submitted*> canonical_order(Stripes& stripes) {
  // Requests of one (tenant, client) stream share a stripe, so whenever
  // every stripe is already in canonical order — true for any client that
  // submits in nondecreasing submit-cycle order, the common case — a
  // k-way merge of the stripes IS the stable sort's output. An
  // out-of-order stripe (concurrent submitters racing a shared stripe)
  // falls back to the exact stable sort.
  std::size_t total = 0;
  bool sorted = true;
  bool single_stream = true;  // every stripe holds one (tenant, client)
  std::uint64_t max_submit = 0;
  for (const std::vector<Submitted>& stripe : stripes) {
    total += stripe.size();
    for (std::size_t i = 0; i < stripe.size(); ++i) {
      const Submitted& s = stripe[i];
      single_stream = single_stream && s.tenant == stripe[0].tenant &&
                      s.request.client == stripe[0].request.client;
      max_submit = std::max(max_submit, s.request.submit_cycle);
      if (i + 1 < stripe.size()) {
        sorted = sorted && !canonical_less(stripe[i + 1], s);
      }
    }
  }

  std::vector<Submitted*> order;
  order.reserve(total);
  if (sorted && single_stream &&
      max_submit < 4 * static_cast<std::uint64_t>(total) + 4096) {
    // Stable counting merge by submit cycle, for the common dense case:
    // visiting the stripes in (tenant, client) order emits canonical order
    // directly — the sort is stable, so equal submit cycles land
    // stream-ordered across stripes and seq-ordered within one.
    std::vector<std::vector<Submitted>*> visit;
    for (std::vector<Submitted>& stripe : stripes) {
      if (!stripe.empty()) visit.push_back(&stripe);
    }
    std::sort(visit.begin(), visit.end(), [](const auto* a, const auto* b) {
      return std::tie(a->front().tenant, a->front().request.client) <
             std::tie(b->front().tenant, b->front().request.client);
    });
    std::vector<std::uint32_t> starts(max_submit + 2, 0);
    for (const auto* stripe : visit) {
      for (const Submitted& s : *stripe) starts[s.request.submit_cycle + 1] += 1;
    }
    for (std::size_t c = 1; c < starts.size(); ++c) starts[c] += starts[c - 1];
    order.resize(total);
    for (auto* stripe : visit) {
      for (Submitted& s : *stripe) order[starts[s.request.submit_cycle]++] = &s;
    }
  } else if (sorted) {
    // Min-heap over the stripe heads with the canonical key cached in the
    // heap node, so the comparator never chases a request pointer. Heads
    // never compare equal: equal keys imply the same stream and stripe.
    struct Head {
      std::uint64_t submit = 0;
      std::uint64_t seq = 0;
      std::uint32_t tenant = 0;
      std::uint32_t client = 0;
      std::uint32_t stripe = 0;
      std::size_t pos = 0;
    };
    const auto load = [&](Head& h) {
      const Submitted& s = stripes[h.stripe][h.pos];
      h.submit = s.request.submit_cycle;
      h.seq = s.request.seq;
      h.tenant = s.tenant;
      h.client = s.request.client;
    };
    const auto after = [](const Head& x, const Head& y) {
      return std::tie(y.submit, y.tenant, y.client, y.seq) <
             std::tie(x.submit, x.tenant, x.client, x.seq);
    };
    std::vector<Head> heads;
    for (std::size_t s = 0; s < kStripes; ++s) {
      if (stripes[s].empty()) continue;
      heads.push_back(Head{0, 0, 0, 0, static_cast<std::uint32_t>(s), 0});
      load(heads.back());
    }
    std::make_heap(heads.begin(), heads.end(), after);
    while (!heads.empty()) {
      std::pop_heap(heads.begin(), heads.end(), after);
      Head& h = heads.back();
      order.push_back(&stripes[h.stripe][h.pos]);
      if (++h.pos < stripes[h.stripe].size()) {
        load(h);
        std::push_heap(heads.begin(), heads.end(), after);
      } else {
        heads.pop_back();
      }
    }
  } else {
    for (std::vector<Submitted>& stripe : stripes) {
      for (Submitted& s : stripe) order.push_back(&s);
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const Submitted* a, const Submitted* b) {
                       return canonical_less(*a, *b);
                     });
  }
  return order;
}

}  // namespace

std::uint64_t count_status(const std::vector<Response>& responses,
                           RequestStatus status) noexcept {
  std::uint64_t n = 0;
  for (const Response& r : responses) n += r.status == status ? 1 : 0;
  return n;
}

Json response_rows(const std::vector<Response>& responses) {
  Json rows = Json::array();
  for (const Response& r : responses) {
    Json row = Json::object();
    row.set("client", Json(std::uint64_t{r.client}));
    row.set("seq", Json(r.seq));
    row.set("status", Json(to_string(r.status)));
    row.set("submit", Json(r.submit_cycle));
    row.set("completion", Json(r.completion_cycle));
    row.set("latency", Json(r.latency()));
    row.set("retries", Json(std::uint64_t{r.retries}));
    if (r.status == RequestStatus::kOk) row.set("batch", Json(r.batch));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::uint32_t ControlPlane::add_tenant(PlaneTenant tenant) {
  validate(tenant);
  tenants_.push_back(std::move(tenant));
  return static_cast<std::uint32_t>(tenants_.size() - 1);
}

void ControlPlane::submit(std::uint32_t tenant, Request request) {
  if (tenant >= tenants_.size()) {
    throw std::out_of_range("serve: submit to unregistered tenant " +
                            std::to_string(tenant));
  }
  Inbox& inbox =
      inboxes_[(std::size_t{tenant} * 31 + request.client) % kStripes];
  const std::lock_guard<std::mutex> lock(inbox.mutex);
  inbox.requests.push_back(Submitted{tenant, std::move(request)});
}

PlaneReport ControlPlane::run() {
  const std::size_t N = tenants_.size();
  const std::uint64_t T = options_.tick_cycles;
  if (!runner_) {
    std::vector<LaneSpec> lanes;
    for (const PlaneTenant& t : tenants_) {
      lanes.resize(std::max<std::size_t>(lanes.size(), t.first_lane + t.lanes));
      for (std::uint32_t l = 0; l < t.lanes; ++l) {
        lanes[t.first_lane + l] =
            LaneSpec{t.mapping, t.options.engine, t.options.memory};
      }
    }
    runner_ = std::make_unique<StagedRunner>(
        std::move(lanes), options_.pipeline, options_.workers);
  }
  StagedRunner& runner = *runner_;
  runner.begin_run();

  // ---- Canonical order, split per tenant. The tenant-local index is the
  // identity every later phase uses; `intake` is (arrival, tenant, local)
  // ordered as built, since local indices are minted in canonical order.
  Stripes stripes;
  for (std::size_t s = 0; s < kStripes; ++s) {
    const std::lock_guard<std::mutex> lock(inboxes_[s].mutex);
    stripes[s] = std::move(inboxes_[s].requests);
    inboxes_[s].requests.clear();
  }
  struct IntakeEntry {
    std::uint64_t arrival = 0;
    std::uint32_t tenant = 0;
    std::uint32_t local = 0;
  };
  std::vector<IntakeEntry> intake;
  PlaneReport report;
  report.tenants.resize(N);
  report.mutations.resize(N);
  std::optional<ServeMetrics> all;
  if (!options_.aggregate_prefix.empty()) {
    all.emplace(registry_, options_.aggregate_prefix);
  }
  std::vector<TenantState> st;
  st.reserve(N);
  for (const PlaneTenant& ten : tenants_) st.emplace_back(ten, registry_);
  const std::vector<Submitted*> order = canonical_order(stripes);
  std::vector<std::size_t> counts(N, 0);
  for (const Submitted* s : order) counts[s->tenant] += 1;
  std::vector<std::uint64_t> weights(N, 1);
  for (std::size_t i = 0; i < N; ++i) {
    const PlaneTenant& ten = tenants_[i];
    report.tenants[i].name = ten.options.name;
    report.tenants[i].lanes.resize(ten.lanes);
    report.tenants[i].responses.reserve(counts[i]);
    st[i].requests.reserve(counts[i]);
    st[i].metrics.on_submitted(counts[i]);
    st[i].attempts.assign(counts[i], 0);
    if (ten.dyn.enabled()) st[i].applied.assign(counts[i], 0);
    weights[i] = ten.options.weight;
  }
  if (all) all->on_submitted(order.size());
  intake.reserve(order.size());
  for (Submitted* s : order) {
    const Request& q = s->request;
    std::vector<Response>& out = report.tenants[s->tenant].responses;
    intake.push_back(IntakeEntry{q.submit_cycle, s->tenant,
                                 static_cast<std::uint32_t>(out.size())});
    Response& r = out.emplace_back();
    r.client = q.client;
    r.seq = q.seq;
    r.submit_cycle = q.submit_cycle;
    st[s->tenant].requests.push_back(std::move(s->request));
  }
  // Every metrics event lands on the tenant's section and the aggregate.
  const auto each = [&](std::size_t i, const auto& record) {
    record(st[i].metrics);
    if (all) record(*all);
  };

  // ---- Fairness (Forest): DRR-metered cuts and the shared pool. Each
  // tenant reserves a weighted share of the pool bound; borrowing beyond
  // the reserve needs total occupancy < bound.
  DeficitRoundRobin drr(weights, options_.drr_quantum_nodes);
  const bool pooled = options_.global_queue_bound != 0 && N > 0;
  const std::size_t G = pooled ? std::max(options_.global_queue_bound, N) : 0;
  std::vector<std::uint32_t> reserved(N, 0);
  if (pooled) {
    std::vector<double> w(N);
    for (std::size_t i = 0; i < N; ++i) w[i] = static_cast<double>(weights[i]);
    reserved = apportion(static_cast<std::uint32_t>(G), w);
    for (std::uint32_t& r : reserved) r = std::max(r, 1u);
  }
  std::size_t total_pending = 0;  // pooled only: admitted, not yet cut
  const auto recount_pending = [&]() {
    total_pending = 0;
    for (const TenantState& ts : st) total_pending += ts.admission.pending_count();
  };

  // Requests of the current round not yet shed, expired or dispatched.
  // Dispatched requests leave the control plane: their completion cycle is
  // decided by the lanes at the round barrier.
  std::size_t unresolved = 0;
  const auto resolve = [&](std::uint32_t tenant, std::uint32_t local,
                           RequestStatus status, std::uint64_t cycle) {
    Response& r = report.tenants[tenant].responses[local];
    assert(r.status == RequestStatus::kPending);
    r.status = status;
    r.completion_cycle = cycle;
    unresolved -= 1;
  };

  // Cuts one batch of tenant i at tick t: dispatch stamps, the dyn
  // barrier, the epoch controller, then the executor. Batches an epoch
  // controller or the dyn barrier reads are coalesced here, so both see
  // the deduped node set; the rest coalesce in the executor's step.
  const auto cut = [&](std::size_t i, std::uint64_t t) {
    const PlaneTenant& ten = tenants_[i];
    TenantReport& tr = report.tenants[i];
    FormedBatch batch = ten.dyn.enabled() || st[i].epochs.active()
                            ? st[i].former.form_one(t, st[i].admission)
                            : st[i].former.form_one_raw(t, st[i].admission);
    for (const std::size_t local : batch.members) {
      tr.responses[local].dispatch_cycle = t;
      tr.responses[local].batch = batch.id;
    }
    unresolved -= batch.members.size();
    tr.served_nodes += batch.requested_nodes;
    if (ten.dyn.enabled()) {
      // The PALM barrier: writers apply now, in canonical member order,
      // and the colorer publishes every color the step will read.
      apply_batch_mutations(batch, st[i].requests, ten.dyn, t, st[i].applied,
                            report.mutations[i]);
    }
    const TreeMapping* epoch = st[i].epochs.observe(batch.nodes, t);
    const auto lane =
        ten.first_lane + static_cast<std::uint32_t>(batch.id % ten.lanes);
    runner.cut(std::move(batch), lane, static_cast<std::uint32_t>(i), epoch);
  };

  // ---- Tick loop, in serving rounds. A round is one pass of (tick loop
  // → round barrier → assembly). Without retries there is exactly one;
  // with them, each round's timed-out completions re-enter the next
  // round's intake at the cycle the caller would resend. Every phase
  // visits tenants in ascending id, and DRR accrues in that order too.
  std::uint64_t t = 0;
  std::vector<std::size_t> scratch;
  while (true) {
    report.rounds += 1;
    std::size_t next_intake = 0;
    unresolved = intake.size();
    for (std::size_t i = 0; i < N; ++i) {
      st[i].round_first_batch = report.tenants[i].batches.size();
    }
    const auto control_start = std::chrono::steady_clock::now();

    while (unresolved > 0) {
      report.ticks += 1;
      // Phase 1: expire queued requests whose deadline budget elapsed.
      for (std::size_t i = 0; i < N; ++i) {
        scratch.clear();
        st[i].admission.expire(t, scratch);
        for (const std::size_t local : scratch) {
          resolve(static_cast<std::uint32_t>(i),
                  static_cast<std::uint32_t>(local), RequestStatus::kExpired,
                  t);
        }
        each(i, [&](ServeMetrics& m) { m.on_expired(scratch.size()); });
      }
      if (pooled) recount_pending();

      // Phase 2: promote blocked callers into freed slots, FIFO — before
      // intake, so blocked callers outrank this tick's arrivals. Pooled,
      // a tenant may fill its unused reserve plus the unused shared bound;
      // earlier tenants consume shared headroom first.
      for (std::size_t i = 0; i < N; ++i) {
        std::size_t limit = ~std::size_t{0};
        if (pooled) {
          const std::size_t mine = st[i].admission.pending_count();
          limit = (reserved[i] > mine ? reserved[i] - mine : 0) +
                  (total_pending < G ? G - total_pending : 0);
        }
        scratch.clear();
        st[i].admission.promote(t, scratch, limit);
        for (const std::size_t local : scratch) {
          report.tenants[i].responses[local].admitted_cycle = t;
        }
        each(i, [&](ServeMetrics& m) { m.on_promoted(scratch.size()); });
        total_pending += scratch.size();
      }

      // Phase 3: intake of everything arrived by now, canonical order.
      // Retried requests keep their original Request (submit cycle and
      // deadline), so they are priced against the budget that remains.
      while (next_intake < intake.size() && intake[next_intake].arrival <= t) {
        const IntakeEntry e = intake[next_intake++];
        const std::size_t i = e.tenant;
        const bool pool_ok = !pooled ||
                             st[i].admission.pending_count() < reserved[i] ||
                             total_pending < G;
        switch (st[i].admission.offer(e.local, st[i].requests[e.local], t,
                                   pool_ok)) {
          case AdmissionController::Decision::kAdmitted:
            report.tenants[i].responses[e.local].admitted_cycle = t;
            each(i, [](ServeMetrics& m) { m.on_admitted(); });
            total_pending += 1;
            break;
          case AdmissionController::Decision::kBlocked:
            each(i, [](ServeMetrics& m) { m.on_blocked(); });
            break;
          case AdmissionController::Decision::kShedNow:
            resolve(e.tenant, e.local, RequestStatus::kShed, t);
            each(i, [](ServeMetrics& m) { m.on_shed(); });
            break;
          case AdmissionController::Decision::kDeadOnArrival:
            resolve(e.tenant, e.local, RequestStatus::kExpired, t);
            each(i, [](ServeMetrics& m) { m.on_expired(1); });
            break;
        }
      }

      // Phase 4: cut due batches. Metered, each backlogged tenant accrues
      // its quantum and cuts while it can afford a batch's pre-dedup node
      // cost; credit is forfeited the moment its queue empties.
      for (std::size_t i = 0; i < N; ++i) {
        if (options_.fair) {
          if (st[i].admission.pending_count() == 0) {
            drr.reset(i);
            continue;
          }
          drr.begin_turn(i);
        }
        while (st[i].former.due(t, st[i].admission)) {
          if (options_.fair) {
            const std::uint64_t cost = st[i].former.next_batch_cost(st[i].admission);
            if (!drr.affords(i, cost)) break;
            drr.spend(i, cost);
          }
          cut(i, t);
        }
        if (options_.fair && st[i].admission.pending_count() == 0) drr.reset(i);
      }

      // Phase 5: observe queue depths, per tenant and overall.
      std::size_t total_queued = 0;
      std::size_t total_blocked = 0;
      bool idle = true;
      for (std::size_t i = 0; i < N; ++i) {
        const AdmissionController& a = st[i].admission;
        st[i].metrics.on_tick(a.pending_count(), a.blocked_count());
        total_queued += a.pending_count();
        total_blocked += a.blocked_count();
        idle = idle && a.idle();
      }
      if (all) all->on_tick(total_queued, total_blocked);

      // Advance. With the queues idle the next event is the next arrival;
      // jump straight to its tick (ceiling — intake needs arrival <= t).
      if (idle && next_intake < intake.size()) {
        const std::uint64_t next_tick = (intake[next_intake].arrival + T - 1) / T * T;
        t = next_tick > t ? next_tick : t + T;
      } else {
        t += T;
      }
    }
    runner.add_control_ns_since(control_start);

    // ---- Round barrier, then assembly: batches land in cut order, and
    // tenant i's batch b completes with record b / lanes of its lane
    // b mod lanes. Each round reads only its own batches' completions.
    runner.close_round();
    for (std::size_t tk = 0; tk < runner.token_count(); ++tk) {
      BatchToken& token = runner.token(tk);
      TenantReport& tr = report.tenants[token.tenant];
      each(token.tenant, [&](ServeMetrics& m) { m.on_batch(token.batch); });
      tr.memory += token.mem;
      tr.batches.push_back(std::move(token.batch));
    }
    std::vector<IntakeEntry> retries;
    for (std::size_t i = 0; i < N; ++i) {
      const PlaneTenant& ten = tenants_[i];
      TenantReport& tr = report.tenants[i];
      const RetryPolicy& policy = ten.options.retry;
      std::uint64_t tenant_retries = 0;
      for (std::size_t b = st[i].round_first_batch; b < tr.batches.size(); ++b) {
        const engine::EngineResult& res = runner.result(
            ten.first_lane + static_cast<std::uint32_t>(b % ten.lanes));
        const std::uint64_t completion = res.records[b / ten.lanes].completion;
        for (const std::size_t local : tr.batches[b].members) {
          Response& r = tr.responses[local];
          assert(r.status == RequestStatus::kPending);
          r.status = RequestStatus::kOk;
          r.completion_cycle = completion;
          // Retry scan: a completion that overstayed the attempt timeout
          // is discarded; the caller resends once its timer fires plus
          // backoff, and the deadline keeps running from the submit.
          if (!policy.enabled() ||
              completion - r.dispatch_cycle <= policy.attempt_timeout_cycles ||
              st[i].attempts[local] >= policy.max_retries) {
            continue;
          }
          st[i].attempts[local] += 1;
          r.retries = st[i].attempts[local];
          r.status = RequestStatus::kPending;
          retries.push_back(IntakeEntry{
              r.dispatch_cycle + policy.attempt_timeout_cycles +
                  policy.backoff(st[i].attempts[local]),
              static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(local)});
          tenant_retries += 1;
        }
      }
      each(i, [&](ServeMetrics& m) { m.on_retried(tenant_retries); });
    }
    if (retries.empty()) break;
    std::sort(retries.begin(), retries.end(),
              [](const IntakeEntry& a, const IntakeEntry& b) {
                return std::tie(a.arrival, a.tenant, a.local) <
                       std::tie(b.arrival, b.tenant, b.local);
              });
    intake = std::move(retries);
    runner.next_round();
  }

  // ---- Final accounting + metrics, deterministic order. Lane trajectories
  // fold into the registry under stable names (lanes run without one, so
  // no worker ever shares it), fault counters to their tenant alone.
  for (std::size_t i = 0; i < N; ++i) {
    const PlaneTenant& ten = tenants_[i];
    TenantReport& tr = report.tenants[i];
    for (const Response& r : tr.responses) {
      report.final_cycle = std::max(report.final_cycle, r.completion_cycle);
      if (r.status == RequestStatus::kOk) {
        each(i, [&](ServeMetrics& m) { m.on_completed(r); });
      }
    }
    for (std::uint32_t l = 0; l < ten.lanes; ++l) {
      const engine::EngineResult& res = tr.lanes[l] =
          runner.result(ten.first_lane + l);
      const std::string prefix = ten.lane_prefix + std::to_string(l);
      registry_.counter(prefix + ".accesses").add(res.accesses);
      registry_.counter(prefix + ".requests").add(res.requests);
      registry_.counter(prefix + ".busy_cycles").add(res.busy_cycles);
      each(i, [&](ServeMetrics& m) {
        m.on_replica_faults(res.rerouted_requests, res.stalled_cycles);
      });
    }
    if (st[i].epochs.planner) {
      st[i].metrics.set_migration(st[i].epochs.planner->stats());
    }
    if (st[i].epochs.selector) {
      st[i].metrics.set_adaptive(st[i].epochs.selector->stats());
    }
    if (ten.options.memory != nullptr) {
      st[i].metrics.set_memory(ten.options.memory->stats(tr.memory));
    }
    if (ten.dyn.enabled()) {
      st[i].metrics.set_dyn(dyn_stats(ten.dyn, report.mutations[i]));
    }
  }
  // Stage attribution (wall time) only for the staged executor; inline
  // reports keep their exact JSON shape.
  if (runner.worker_count() > 0 && N > 0) {
    (all ? *all : st[0].metrics).set_pipeline(runner.stats());
  }
  for (std::size_t i = 0; i < N; ++i) {
    report.tenants[i].metrics = st[i].metrics.summary();
  }
  if (all) report.aggregate = all->summary();
  if (pooled) {
    report.reserved = std::move(reserved);
    report.pool_bound = G;
  }
  return report;
}

}  // namespace pmtree::serve::detail
