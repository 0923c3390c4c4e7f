// CycleEngine: the cycle-accurate parallel-memory queueing engine.
//
// MemorySystem charges each access its busiest module's occupancy and
// BatchScheduler collapses a whole batch into its closed-form makespan;
// both are aggregates — they say nothing about *when* requests drain, how
// deep module queues get in between, or what latency an individual access
// observes under contention. CycleEngine produces exactly that
// trajectory: accesses arrive per an ArrivalSchedule, every request joins
// its module's FIFO queue, and each module retires one request per cycle
// (the paper's service model, now with time made explicit). An access
// completes when its last request is served; its latency is completion
// minus arrival.
//
// The two closed-form models are recovered as special cases — the
// differential tests hold the engine to them:
//
//   * all-at-once arrivals:  completion_cycle == BatchScheduler makespan;
//   * serialized arrivals:   each access's service time == cost.hpp
//                            rounds(), and completion_cycle == the sum
//                            (MemorySystem::total_rounds).
//
// The core is event-driven rather than scalar (DESIGN.md §8): module
// FIFOs live in one flat arena sized from the admitted request count,
// service touches only an active-module worklist, and whole busy spans
// are retired in bulk when no arrival can land inside them. The frozen
// PR-1 loop survives as ReferenceEngine (reference.hpp), the semantics
// oracle the event core is differentially tested against.
//
// Everything the engine observes lands in an EngineResult and, when a
// MetricsRegistry is supplied, in named instruments under a caller-chosen
// prefix, ready for JSON export (see metrics.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pmtree/engine/arrival.hpp"
#include "pmtree/engine/histogram.hpp"
#include "pmtree/engine/metrics.hpp"
#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/mapping.hpp"
#include "pmtree/pms/workload.hpp"

namespace pmtree::engine {

/// Per-access trajectory record.
struct AccessRecord {
  std::uint64_t id = 0;
  std::uint64_t requests = 0;
  std::uint64_t arrival = 0;     ///< cycle the access entered the queues
  std::uint64_t completion = 0;  ///< cycle its last request finished

  [[nodiscard]] std::uint64_t latency() const noexcept {
    return completion - arrival;
  }
};

struct EngineResult {
  std::uint64_t accesses = 0;
  std::uint64_t requests = 0;
  std::uint64_t completion_cycle = 0;  ///< when the last access finished
  std::uint64_t busy_cycles = 0;       ///< cycles with >= 1 request in flight
  /// Requests enqueued on (or drained to) a reroute target because their
  /// own module was fail-stopped. Zero without a FaultPlan.
  std::uint64_t rerouted_requests = 0;
  /// Module-cycles where a backlogged module was kept from serving by a
  /// transient slowdown. Zero without a FaultPlan.
  std::uint64_t stalled_cycles = 0;
  std::vector<AccessRecord> records;   ///< one entry per access, in order
  std::vector<std::uint64_t> served;   ///< per-module requests served
  std::vector<std::uint64_t> queue_high_water;  ///< per-module depth peak
  Histogram latency;     ///< per-access latency distribution
  Histogram queue_depth; ///< per-module depth sampled every busy cycle

  /// Mean requests retired per busy cycle (<= modules).
  [[nodiscard]] double throughput() const noexcept {
    return busy_cycles == 0 ? 0.0
                            : static_cast<double>(requests) /
                                  static_cast<double>(busy_cycles);
  }

  /// Peak queue depth across all modules.
  [[nodiscard]] std::uint64_t max_queue_depth() const noexcept;

  /// Per-module heat view over the run: the hottest module's served
  /// count. The serve layer's skew-adaptive planner keys off this shape
  /// of imbalance (DESIGN.md §15).
  [[nodiscard]] std::uint64_t max_module_served() const noexcept;

  /// Load imbalance = hottest module / mean module load (1.0 = perfectly
  /// balanced; 0.0 when nothing was served). The makespan of a batch is
  /// governed by its hottest module, so this is the factor a remapping
  /// can hope to recover.
  [[nodiscard]] double load_imbalance() const noexcept;

  /// Full trajectory snapshot as JSON (scalars, percentiles, per-module
  /// arrays) — the payload bench_e16 writes as a BENCH_*.json file.
  [[nodiscard]] Json to_json() const;
};

/// Knobs for the event-driven core. Trajectory semantics — completion
/// cycles, latencies, served counts, high-water marks, busy cycles — are
/// identical under every setting; the options only gate how much
/// observability (queue-depth sampling) is paid for, which is what decides
/// whether busy spans may be retired in bulk (DESIGN.md §8).
struct EngineOptions {
  enum class DepthSampling : std::uint8_t {
    /// Sample every module's depth on every busy cycle (the PR-1
    /// behaviour). Full-fidelity histograms pin the engine to per-cycle
    /// stepping, so only idle gaps are skipped.
    kEveryBusyCycle,
    /// Sample on busy-cycle ordinals divisible by `sample_stride`. The
    /// sampled multiset is a deterministic function of (workload,
    /// schedule, stride) — bulk-skipped spans reconstruct their sampled
    /// depths exactly — so the histogram does not depend on how the
    /// engine chose to step.
    kStrided,
    /// No depth sampling; `EngineResult::queue_depth` stays empty.
    kOff,
  };

  DepthSampling sampling = DepthSampling::kEveryBusyCycle;
  /// kStrided only: sample busy-cycle ordinals ≡ 0 (mod sample_stride).
  /// Clamped to >= 1.
  std::uint64_t sample_stride = 64;
  /// Optional fault schedule (not owned; must outlive the run). nullptr or
  /// an empty plan take the healthy fast path bit for bit; a non-empty
  /// plan runs the same event loop in its faulted mode: fail-stopped
  /// modules drain onto reroute targets, requests for dead modules
  /// reroute at admission, slowed modules stall (fault/plan.hpp), and the
  /// loop steps cycle by cycle.
  const fault::FaultPlan* faults = nullptr;
};

class CycleEngine {
 public:
  /// `metrics` (optional) receives instruments named `<prefix>.accesses`,
  /// `.requests`, `.cycles`, `.busy_cycles`, `.latency` (histogram),
  /// `.queue_depth` (histogram), `.queue_high_water` (gauge).
  explicit CycleEngine(const TreeMapping& mapping,
                       MetricsRegistry* metrics = nullptr,
                       std::string prefix = "engine")
      : mapping_(mapping), metrics_(metrics), prefix_(std::move(prefix)) {}

  /// Feeds `workload` through the module queues under `schedule` and
  /// drains them to completion with full per-busy-cycle depth sampling
  /// (EngineOptions{}).
  [[nodiscard]] EngineResult run(const Workload& workload,
                                 const ArrivalSchedule& schedule) const {
    return run(workload, schedule, EngineOptions{});
  }

  /// Same trajectory under caller-chosen observability cost.
  [[nodiscard]] EngineResult run(const Workload& workload,
                                 const ArrivalSchedule& schedule,
                                 const EngineOptions& options) const;

 private:
  const TreeMapping& mapping_;
  MetricsRegistry* metrics_;
  std::string prefix_;
};

namespace detail {

/// The simulation core over pre-resolved colors: access i's requests are
/// colors[first[i]] .. colors[first[i+1]-1] and route to those modules
/// (under a non-empty `options.faults`, fail-stopped modules reroute by
/// color, in the same loop). CycleEngine::run flattens + color-resolves
/// and calls this; EngineSession::drain (session.hpp) accumulates the
/// same arrays incrementally and calls it too — one loop, so the two
/// entry points are bit-identical by construction.
[[nodiscard]] EngineResult run_resolved(std::uint32_t modules,
                                        std::span<const std::size_t> first,
                                        std::span<const Color> colors,
                                        const ArrivalSchedule& schedule,
                                        const EngineOptions& options);

}  // namespace detail

}  // namespace pmtree::engine
