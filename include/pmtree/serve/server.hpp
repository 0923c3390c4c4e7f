// Server: the concurrent request front-end of pmtree (DESIGN.md §11).
//
// The rest of the library answers "what does one access cost under a
// mapping"; the server answers the system question on top of it: what
// latency does a *stream* of concurrent clients observe when their
// requests are admission-controlled, dynamically batched into template
// instances, and fed through the cycle-accurate memory engine? The shape
// is an inference-serving front-end transplanted onto the paper's machine
// model:
//
//   clients ──submit()──▶ MPSC inboxes ─▶ canonical order ─▶ tick loop
//                                             (admission ▸ batching)
//                                                  │ batches
//                                                  ▼
//                                    replicas × EngineSession lanes
//
// run() is a simulation on the engine's cycle clock, driven by the serve
// control plane Server shares with Forest (one tenant, no DRR). Requests
// are drained from the striped inboxes into the canonical order
// (submit_cycle, client, seq) — a pure function of the submitted *set*,
// so results never depend on which thread delivered a request first.
// The control plane then ticks every `tick_cycles` cycles, each tick
// running a fixed phase order:
//
//   expire  — drop queued requests whose deadline budget has elapsed;
//   promote — move blocked callers into freed queue slots (FIFO);
//   intake  — offer newly arrived requests to admission control;
//   batch   — let the BatchFormer cut zero or more batches;
//   observe — record queue-depth gauges for this tick.
//
// Each formed batch is one parallel memory access on replica (batch id mod
// replicas). Its colors feed that replica's EngineSession, and every
// replica drains at the round barrier with the dispatch ticks as explicit
// arrivals. Only batch execution runs in parallel (pipeline.hpp: inline
// on `workers` threads, or staged on `pipeline.workers`), so worker counts
// affect wall-clock only: responses, batches and metrics are bit-identical
// at every setting (tested request-for-request at 1/2/8 workers).
//
// With a RetryPolicy (below) the loop above becomes one *round* of
// several; faults injected via EngineOptions::faults (fault/plan.hpp) are
// what make retries fire in practice.
//
// Graceful shutdown is the run() contract itself: every request submitted
// before run() reaches a terminal status (kOk, kShed or kExpired) —
// nothing is silently dropped — and BatchPolicy::max_wait_cycles bounds
// how long any admitted request can sit unbatched, so the loop provably
// drains.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pmtree/engine/engine.hpp"
#include "pmtree/engine/metrics.hpp"
#include "pmtree/mapping/mapping.hpp"
#include "pmtree/mem/arena.hpp"
#include "pmtree/serve/adaptive.hpp"
#include "pmtree/serve/admission.hpp"
#include "pmtree/serve/batch.hpp"
#include "pmtree/serve/metrics.hpp"
#include "pmtree/serve/migration.hpp"
#include "pmtree/serve/mutation.hpp"
#include "pmtree/serve/pipeline.hpp"
#include "pmtree/serve/request.hpp"
#include "pmtree/util/json.hpp"

namespace pmtree::serve {

/// Per-request retry with capped exponential backoff, judged on the
/// engine's simulated clock. After each serving round the server inspects
/// every freshly completed request: if its memory-system residency
/// (completion - dispatch) exceeded `attempt_timeout_cycles` and it has
/// attempts left, the completion is discarded and the request re-enters
/// intake at dispatch + timeout + backoff(attempt) — the cycle the caller
/// would have given up and resent. Backoff doubles from `backoff_base_
/// cycles` per retry, capped at `backoff_cap_cycles`. The original
/// submit_cycle and deadline ride along unchanged, so the existing
/// deadline machinery is the retry budget: a retry that lands past the
/// deadline is dead on arrival (kExpired), never served twice.
///
/// Retries run in the single-threaded control plane between replica
/// rounds; responses stay bit-identical at any worker count.
struct RetryPolicy {
  /// Extra attempts per request. 0 disables retries entirely (the server
  /// then behaves exactly as the single-round pipeline).
  std::uint32_t max_retries = 0;
  /// A completed attempt whose completion - dispatch exceeds this budget
  /// is treated as timed out and retried. 0 disables.
  std::uint64_t attempt_timeout_cycles = 0;
  std::uint64_t backoff_base_cycles = 8;
  std::uint64_t backoff_cap_cycles = 256;

  [[nodiscard]] bool enabled() const noexcept {
    return max_retries > 0 && attempt_timeout_cycles > 0;
  }
  /// Backoff before retry number `attempt` (1-based): base doubled
  /// attempt-1 times, saturating at the cap.
  [[nodiscard]] std::uint64_t backoff(std::uint32_t attempt) const noexcept {
    std::uint64_t b = backoff_base_cycles;
    for (std::uint32_t i = 1; i < attempt && b < backoff_cap_cycles; ++i) {
      b *= 2;
    }
    return b < backoff_cap_cycles ? b : backoff_cap_cycles;
  }
};

struct ServerOptions {
  /// Admission tick period in engine cycles (0 behaves as 1). Requests are
  /// only admitted / batched on tick boundaries — the batching latency any
  /// request pays is at most tick_cycles of rounding plus its queue wait.
  std::uint64_t tick_cycles = 4;
  /// Independent memory-system replicas; batch b executes on replica
  /// b mod replicas (0 behaves as 1). Replicas model scale-out of the
  /// memory system itself: each runs the full module array.
  std::uint32_t replicas = 1;
  /// Worker threads for replica drains under the inline executor (0 =
  /// hardware concurrency). Affects wall-clock only.
  unsigned workers = 1;
  AdmissionOptions admission;
  BatchPolicy batch;
  RetryPolicy retry;
  /// Replica engine knobs. `engine.faults` (fault/plan.hpp) injects the
  /// same fault schedule into every replica; the serve layer folds the
  /// resulting reroute/stall counters into its metrics and, with a
  /// RetryPolicy, turns fault-inflated residencies into retries.
  /// `engine.memory` must stay unset — arenas go in `memory` below.
  engine::EngineOptions engine;
  /// Batch executor (pipeline.hpp): `pipeline.workers == 0` (default) is
  /// inline — no pool; each round barrier runs the batches' step per
  /// replica on `workers` threads — and `>= 1` is the staged worker pool.
  /// Nothing else differs: faulted, migrating, adaptive and dyn
  /// configurations run on either, bit-identically.
  PipelineOptions pipeline;

  // Migration, dyn and adaptive selection are control-plane decisions
  // taken at batch cuts in canonical order, so no executor or worker count
  // can change them. The constructor rejects (std::invalid_argument) any
  // two of them together, and dyn together with `memory`.

  /// Skew-adaptive remapping (migration.hpp): a MigrationPlanner observes
  /// every cut batch and re-colors hot subtrees onto cold modules at epoch
  /// boundaries; each batch resolves against its epoch's MigratedMapping.
  /// Disabled (default) is byte-identical to the static-mapping server.
  /// Faulted configurations keep the static mapping — fault reroute
  /// timelines already own the color space (DegradedMapping composes with
  /// MigratedMapping at the mapping layer instead; see DESIGN.md §15).
  MigrationPolicy migration;
  /// Read-write serving (mutation.hpp / DESIGN.md §16). When bound to a
  /// dyn::DynamicTree + IncrementalColorer, Insert/Erase requests apply
  /// PALM-style at the batch-cut barrier, with a deterministic mutation
  /// log. Disabled (default) is byte-identical to the read-only server.
  DynBinding dyn;
  /// Runtime mapping selection (adaptive.hpp / DESIGN.md §17): an
  /// AdaptiveSelector scores every policy candidate against each cut
  /// batch and switches the serving mapping at epoch boundaries when a
  /// candidate strictly wins — the R10 COLOR-vs-LABEL-TREE trade-off
  /// decided by measurement. Faulted configurations keep the static
  /// mapping, exactly like migration.
  AdaptivePolicy adaptive;
  /// Real per-module memory arenas (mem/arena.hpp / DESIGN.md §17; not
  /// owned, must outlive the run). When set, every cut batch's deduped
  /// node payloads are actually loaded from the arenas in the batch's
  /// step and accounted in ServeReport::memory plus a "memory" metrics
  /// section. Purely observational: responses are bit-identical with the
  /// backend on or off.
  const mem::MemoryBackend* memory = nullptr;
};

/// Everything one run() observed, in canonical / dispatch order.
struct ServeReport {
  std::vector<Response> responses;      ///< canonical request order
  std::vector<FormedBatch> batches;     ///< dispatch (batch id) order
  std::vector<engine::EngineResult> replicas;  ///< per-replica trajectory
  std::uint64_t ticks = 0;              ///< admission ticks executed
  std::uint64_t rounds = 0;             ///< serving rounds (1 + retry waves)
  std::uint64_t final_cycle = 0;        ///< last completion / resolution
  /// Mutation log, in apply (batch barrier) order; empty for read-only
  /// runs. One record per writer, including rejected and deduped ones.
  std::vector<MutationRecord> mutations;
  /// Real-memory traffic over all cut batches; all-zero unless
  /// ServerOptions::memory was set. Order-invariant totals, identical
  /// on either executor.
  mem::TouchStats memory;
  Json metrics;                         ///< ServeMetrics::summary()

  [[nodiscard]] std::uint64_t count(RequestStatus status) const noexcept;

  /// Full report as JSON: the metrics summary plus scalar run facts and a
  /// per-response table — the payload bench_e19 and serve_demo export.
  [[nodiscard]] Json to_json() const;
};

namespace detail {
class ControlPlane;
}  // namespace detail

class Server {
 public:
  /// `mapping` must outlive the server. Instruments land in the server's
  /// own registry (see registry()) under prefix "serve" plus
  /// "serve.replicaN.*" for each replica's engine run. Throws
  /// std::invalid_argument for options that do not compose: dyn with
  /// migration, adaptive or memory; migration with adaptive; or
  /// engine.memory set (serve loads arenas through `memory`).
  explicit Server(const TreeMapping& mapping, ServerOptions options = {});
  ~Server();

  /// Thread-safe MPSC submission; callable concurrently from any number
  /// of client threads. (client, seq) must be unique per run and
  /// submit_cycle nondecreasing per client, which every sane client
  /// satisfies by construction.
  void submit(Request request);
  void submit(std::vector<Request> requests);

  /// Drains every submitted request to a terminal status and returns the
  /// full report. Quiesce first: run() must not race concurrent submit()
  /// calls — the graceful-shutdown contract is "stop submitting, then
  /// run() resolves everything in flight". May be called repeatedly; each
  /// run consumes the requests submitted since the previous one.
  [[nodiscard]] ServeReport run();

  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const TreeMapping& mapping() const noexcept {
    return mapping_;
  }
  /// The registry holding serve.* and serve.replicaN.* instruments,
  /// cumulative across run() calls.
  [[nodiscard]] const engine::MetricsRegistry& registry() const noexcept {
    return registry_;
  }

 private:
  const TreeMapping& mapping_;
  ServerOptions options_;
  engine::MetricsRegistry registry_;
  /// The shared serve control plane (src/serve/control.hpp), holding this
  /// server as its one tenant, plus the inboxes and the executor.
  std::unique_ptr<detail::ControlPlane> plane_;
};

}  // namespace pmtree::serve
