// ControlPlane: the one serve tick loop behind Server and Forest
// (DESIGN.md §11, §13, §14). Internal to pmtree_serve.
//
// Server is one tenant with no DRR metering (metrics prefix "serve", lanes
// "serve.replicaN"); Forest is N tenants with DRR, the shared pool and a
// forest-wide metrics section (prefixes "forest" and "forest.t<i>"). The
// plane owns, once, everything the two used to copy: the striped inboxes,
// the canonical order, the expire → promote → intake → cut → observe tick
// loop and its retry rounds, the per-tenant epoch policy (migration,
// adaptive selection or the dyn mutation barrier — at most one) and
// assembly. Batch execution is StagedRunner's (pipeline.hpp);
// PipelineOptions::workers only picks its executor.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "pmtree/engine/metrics.hpp"
#include "pmtree/mapping/mapping.hpp"
#include "pmtree/serve/forest.hpp"
#include "pmtree/serve/mutation.hpp"
#include "pmtree/serve/pipeline.hpp"
#include "pmtree/serve/request.hpp"
#include "pmtree/util/json.hpp"

namespace pmtree::serve::detail {

/// One tenant as the plane sees it.
struct PlaneTenant {
  const TreeMapping* mapping = nullptr;
  TenantOptions options;
  DynBinding dyn;              ///< Server only; Forest tenants stay read-only
  std::string metrics_prefix;  ///< "serve" / "forest.t<i>"
  std::string lane_prefix;     ///< "serve.replica" / "forest.t<i>.lane"
  std::uint32_t first_lane = 0;
  std::uint32_t lanes = 1;
};

struct PlaneOptions {
  std::uint64_t tick_cycles = 1;
  unsigned workers = 1;  ///< inline executor's lane-drain threads
  PipelineOptions pipeline;
  /// Forest: deficit-round-robin metering of batch cuts (fair.hpp).
  bool fair = false;
  std::uint64_t drr_quantum_nodes = 1;
  std::size_t global_queue_bound = 0;  ///< 0 = no shared pool
  /// Prefix of the all-tenant metrics section; "" = none (Server).
  std::string aggregate_prefix;
};

/// Everything one run observed. Tenant reports carry their own metrics
/// summary; `aggregate` is the all-tenant one (null without a prefix).
struct PlaneReport {
  std::vector<TenantReport> tenants;
  std::vector<std::vector<MutationRecord>> mutations;  ///< per tenant
  std::uint64_t ticks = 0;
  std::uint64_t rounds = 0;
  std::uint64_t final_cycle = 0;
  Json aggregate;
  std::vector<std::uint32_t> reserved;  ///< pool reserves (pooled only)
  std::size_t pool_bound = 0;           ///< effective bound, 0 = no pool
};

/// Report helpers shared by ServeReport and TenantReport.
[[nodiscard]] std::uint64_t count_status(const std::vector<Response>& responses,
                                         RequestStatus status) noexcept;
/// One JSON row per response (client, seq, status, cycles, retries,
/// batch).
[[nodiscard]] Json response_rows(const std::vector<Response>& responses);

struct Submitted {
  std::uint32_t tenant = 0;
  Request request;
};

/// Inbox stripes; a request lands in stripe (31 * tenant + client) mod
/// kStripes, so one (tenant, client) stream always shares a stripe.
inline constexpr std::size_t kStripes = 16;
using Stripes = std::array<std::vector<Submitted>, kStripes>;

class ControlPlane {
 public:
  ControlPlane(PlaneOptions options, engine::MetricsRegistry& registry)
      : options_(std::move(options)), registry_(registry) {}

  /// Registers a tenant; returns its id. Throws std::invalid_argument
  /// when its features do not compose: more than one of dyn, migration
  /// and adaptive selection (each owns the epoch mapping), dyn with
  /// arenas, or adaptive candidates of another tree or module count.
  /// Lane layout (first_lane/lanes) stays editable through tenants()
  /// until the first run().
  std::uint32_t add_tenant(PlaneTenant tenant);
  [[nodiscard]] std::vector<PlaneTenant>& tenants() noexcept {
    return tenants_;
  }

  /// Thread-safe MPSC submission; throws std::out_of_range for an
  /// unregistered tenant.
  void submit(std::uint32_t tenant, Request request);

  /// Drains every submitted request to a terminal status.
  [[nodiscard]] PlaneReport run();

 private:
  struct Inbox {
    std::mutex mutex;
    std::vector<Submitted> requests;
  };

  PlaneOptions options_;
  engine::MetricsRegistry& registry_;
  std::vector<PlaneTenant> tenants_;
  std::array<Inbox, kStripes> inboxes_;
  /// Built on the first run, then reused: a staged pool stays warm.
  std::unique_ptr<StagedRunner> runner_;
};

}  // namespace pmtree::serve::detail
