// StagedRunner: the batch executor behind the serve control plane
// (DESIGN.md §14).
//
// Server and Forest share one tick loop (src/serve/control.cpp). Each
// batch it cuts takes one step — coalesce (in-place sort/dedup, unless
// the control plane already coalesced it), arena touch, color resolution
// against the batch's epoch mapping — and
// its colors feed the owning lane's EngineSession; every lane drains at
// the round barrier. PipelineOptions::workers picks where the step runs:
//
//   inline (workers == 0) — no pool: at the round barrier each lane
//   takes its batches through the step in cut order and drains, the
//   lanes spread over parallel_chunks.
//
//   staged (workers >= 1) — PALM-style, on a worker pool, so consecutive
//   batches occupy different stages concurrently:
//
//     cut (control) ─▶ resolve (the step, any worker) ─▶ execute
//     (append to the owning lane's EngineSession)
//     ─▶ [round barrier] drain (simulate lanes) ─▶ assembly (control)
//
// Determinism is by construction, not by luck:
//
//   * Stage handoff is unbounded SPSC token lists linked through the
//     BatchTokens themselves: one per resolver, one per lane. The control
//     plane is the only producer; each list has exactly one consumer.
//     Token i is resolved by worker i mod P (any order is fine —
//     resolution is a pure function of the batch), but lane lists are
//     walked strictly front-first, and a lane token is consumed only once
//     its `ready` flag is set. Every lane therefore observes its batches
//     in exactly the canonical cut order at ANY worker count. The inline
//     executor walks the same lane lists at the barrier.
//   * Execution is EngineSession (engine/session.hpp): a lane's result is
//     a pure function of the (colors, arrival) sequence fed to it, faulted
//     lanes included.
//   * Nothing any worker computes feeds back into control-plane decisions
//     mid-round; the round barrier (close_round) is the only point at
//     which control reads worker output.
//
// A round's tokens all live in the runner's pooled storage until
// assembly, so the lists bound nothing and cost nothing: a cut never
// waits for a consumer, and a consumer never waits for the control plane.
// After warm-up the per-batch step allocates nothing on either executor
// (test_serve_alloc holds that).
//
// Stage-attribution counters (nanoseconds per stage, barrier wait,
// batches in flight) export via stats() into ServeMetrics' "pipeline"
// section — the only part of a staged report that is not bit-identical
// across worker counts, since it measures wall time. Inline runs carry no
// such section.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "pmtree/engine/engine.hpp"
#include "pmtree/engine/session.hpp"
#include "pmtree/mapping/mapping.hpp"
#include "pmtree/mem/arena.hpp"
#include "pmtree/serve/batch.hpp"
#include "pmtree/util/json.hpp"

namespace pmtree::serve {

struct PipelineOptions {
  /// Pipeline worker threads: 0 selects the inline executor (no pool;
  /// the per-batch step runs per lane at each round barrier), any value
  /// >= 1 the staged one. Results are bit-identical at every setting —
  /// the count only changes wall-clock.
  unsigned workers = 0;
};

/// Cache-line size the executor pads its cross-thread state to.
inline constexpr std::size_t kCacheLine = 64;

/// One batch riding the executor. Created by the control plane at cut
/// time, filled by the per-batch step, fed to its lane and finally moved
/// out by assembly. Tokens live in chunks owned by the runner — stable
/// addresses, so stages pass raw pointers. Each token starts on its own
/// cache line, and its list links sit on another: the control plane
/// writes token i + 1 and token i's links while a worker resolves token i.
struct alignas(kCacheLine) BatchToken {
  FormedBatch batch;            ///< nodes raw at cut; coalesced by resolve
  std::uint32_t lane = 0;       ///< global execution lane
  std::uint32_t tenant = 0;     ///< forest tenant id (0 for Server)
  /// Per-batch mapping override (the tenant's epoch policy): when set,
  /// the resolve stage colors against this mapping instead of the lane's.
  /// Points at a MigrationPlanner epoch snapshot or an AdaptiveSelector
  /// candidate with the same module count as the lane mapping; must
  /// outlive the round. nullptr keeps the lane mapping (the static
  /// default).
  const TreeMapping* mapping = nullptr;
  std::vector<Color> colors;    ///< resolved colors (staged executor)
  /// Real-memory traffic of this batch (lane backend set): the step loads
  /// the batch's payloads from the arenas right after the coalesce, and
  /// assembly folds these order-invariant totals into the report.
  mem::TouchStats mem;
  /// Resolve -> execute handoff: set (release) once the coalesced nodes
  /// and colors are final; lane owners consume tokens only after
  /// observing it (acquire). This is the per-token ordering edge that
  /// keeps lane feeds canonical while resolution itself runs out of order.
  std::atomic<bool> ready{false};
  /// Intrusive links of the token lists: this token's successor on its
  /// resolver's list and on its lane's list (nullptr = last so far).
  alignas(kCacheLine) std::atomic<BatchToken*> next_resolve{nullptr};
  std::atomic<BatchToken*> next_lane{nullptr};
};

/// Unbounded single-producer single-consumer list of tokens, linked
/// through one of each token's two links. The producer is always the
/// control plane; the consumer is one worker (or, inline, the lane's
/// barrier thread). Lock-free and allocation-free; the runner's condvar
/// only parks/wakes threads, it never guards list state. The consumer
/// resets the list when it drains at the round barrier, while the
/// control plane is parked there. The producer's and the consumer's
/// cursors sit on separate cache lines, so a push does not invalidate the
/// line the consumer polls.
class TokenList {
 public:
  explicit TokenList(std::atomic<BatchToken*> BatchToken::*link) noexcept
      : link_(link) {}
  TokenList(const TokenList&) = delete;  // tail_/cursor_ point into *this
  TokenList& operator=(const TokenList&) = delete;

  /// Producer side: appends `token`, publishing it (release).
  void push(BatchToken* token) noexcept {
    (token->*link_).store(nullptr, std::memory_order_relaxed);
    tail_->store(token, std::memory_order_release);
    tail_ = &(token->*link_);
  }
  /// Consumer side: front token, or nullptr when none is published yet.
  [[nodiscard]] BatchToken* front() const noexcept {
    return cursor_->load(std::memory_order_acquire);
  }
  /// Consumer side: steps past front() (which must be non-null).
  void pop() noexcept { cursor_ = &(front()->*link_); }
  /// Consumer side, at the round barrier only: empties the list.
  void reset() noexcept {
    head_.store(nullptr, std::memory_order_relaxed);
    tail_ = cursor_ = &head_;
  }

 private:
  std::atomic<BatchToken*> BatchToken::*link_;
  std::atomic<BatchToken*> head_{nullptr};
  /// Producer: next push slot.
  alignas(kCacheLine) std::atomic<BatchToken*>* tail_ = &head_;
  /// Consumer: front slot.
  alignas(kCacheLine) std::atomic<BatchToken*>* cursor_ = &head_;
};

/// One execution lane: a Server replica or a Forest tenant-lane, with
/// the mapping and engine options (fault plan included) its
/// EngineSession runs.
struct LaneSpec {
  const TreeMapping* mapping = nullptr;
  engine::EngineOptions options;
  /// Optional real-memory backend (not owned; must outlive the runner).
  /// When set, the resolve stage touches each batch's payloads — genuine
  /// parallel loads from the per-module arenas — into BatchToken::mem.
  /// Observation only; resolution and execution are unaffected.
  const mem::MemoryBackend* memory = nullptr;
};

class StagedRunner {
 public:
  /// Spawns `options.workers` parked worker threads (none for the inline
  /// executor, whose round barrier drains lanes on `drain_threads`
  /// threads, 0 = hardware concurrency). Lane l is owned by worker
  /// l mod P; token i is resolved by worker i mod P. Mappings and fault
  /// plans must outlive the runner.
  StagedRunner(std::vector<LaneSpec> lanes, const PipelineOptions& options,
               unsigned drain_threads = 1);
  ~StagedRunner();

  StagedRunner(const StagedRunner&) = delete;
  StagedRunner& operator=(const StagedRunner&) = delete;

  /// Starts a fresh run: forgets all fed batches and results. Stats
  /// accumulate across runs (like every other registry instrument).
  void begin_run();

  /// Hands one freshly cut batch to the executor (control plane only).
  /// It never blocks: the token joins its lane's list (and, staged, its
  /// resolver's list). Inline, the step waits for the round barrier.
  /// `mapping` (optional) is the batch's epoch-mapping override — see
  /// BatchToken::mapping.
  void cut(FormedBatch batch, std::uint32_t lane, std::uint32_t tenant = 0,
           const TreeMapping* mapping = nullptr);

  /// Round barrier: waits until every cut batch is resolved, executed,
  /// and every lane's cumulative result is drained. After it returns,
  /// tokens() and result() are safe to read from the control plane.
  void close_round();

  /// This round's tokens in cut order (valid between close_round and
  /// next_round). Assembly moves the batches out. Token storage is
  /// pooled: begin_run()/next_round() reset the count but keep the
  /// BatchToken objects — and their vector capacities — for later cuts,
  /// so a long-lived runner stops allocating per batch.
  [[nodiscard]] std::size_t token_count() const noexcept {
    return token_count_;
  }
  [[nodiscard]] BatchToken& token(std::size_t i) noexcept {
    return token_chunks_[i / kTokenChunk][i % kTokenChunk];
  }

  /// Lane `lane`'s cumulative EngineResult over every batch fed since
  /// begin_run.
  [[nodiscard]] const engine::EngineResult& result(std::uint32_t lane) const {
    return results_[lane];
  }

  /// Opens the next retry round: clears the token list, keeps sessions
  /// (rounds accumulate; lanes replay cumulatively, extending — never
  /// rewriting — earlier completions).
  void next_round();

  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Stage attribution snapshot: {"workers","lanes","rounds","batches",
  /// "max_in_flight","stage_ns":{"control","resolve","execute","drain",
  /// "barrier"},"simd_kernel"}.
  [[nodiscard]] Json stats() const;

  /// Control-plane bookkeeping: adds the tick-loop time since `start` to
  /// the control stage's bucket.
  void add_control_ns_since(std::chrono::steady_clock::time_point start);

 private:
  void worker_loop(unsigned me);
  bool work_once(unsigned me, std::uint64_t& drained_upto);
  /// The per-batch step both executors run: coalesce, arena touch and
  /// color resolution into `colors`.
  void resolve(BatchToken& token, std::vector<Color>& colors);
  /// Replays lane l's cumulative feed into results_[l], unless nothing was
  /// fed since its last drain of this run (called by the lane's drainer).
  void drain_lane(std::size_t l);
  void bump() noexcept;

  std::vector<LaneSpec> lanes_;
  std::vector<engine::EngineSession> sessions_;   ///< one per lane
  std::vector<engine::EngineResult> results_;     ///< one per lane
  /// Per lane: sessions_[l].accesses() at its last drain this run, or
  /// kNotDrained before the first (written by the lane's drainer).
  static constexpr std::size_t kNotDrained = ~std::size_t{0};
  std::vector<std::size_t> drained_accesses_;
  /// Inline executor: per lane, batches cut this round (control plane),
  /// and the barrier's heaviest-first lane order.
  std::vector<std::uint64_t> lane_cuts_;
  std::vector<std::uint32_t> lane_order_;
  /// Inline executor: each lane's color scratch, kept across rounds so
  /// the per-batch step stops allocating once it has seen the largest
  /// batch (the staged executor resolves into the pooled tokens, which
  /// a fresh runner would allocate one by one).
  std::vector<std::vector<Color>> lane_colors_;
  /// Pooled token storage in fixed chunks: stable addresses, one
  /// allocation per kTokenChunk tokens.
  static constexpr std::size_t kTokenChunk = 256;
  std::vector<std::unique_ptr<BatchToken[]>> token_chunks_;

  std::deque<TokenList> resolve_lists_;  ///< one per worker (pinned)
  std::deque<TokenList> lane_lists_;     ///< one per lane (pinned)

  std::vector<std::thread> workers_;  ///< empty for the inline executor
  unsigned drain_threads_ = 1;
  /// On single-CPU hosts (false) mid-round wakes are skipped entirely —
  /// context switches there only interleave the same total work — and
  /// the round barrier does all the waking.
  bool eager_wake_ = true;

  // Cross-thread state, one writer class per cache line: the control
  // plane's per-cut bookkeeping must not share a line with a counter the
  // workers bump per burst, nor with the parking lock, or the serial
  // control stage pays for every worker pass (DESIGN.md §14).

  /// Control plane only.
  alignas(kCacheLine) std::size_t token_count_ = 0;  ///< live tokens this round
  std::uint64_t round_ = 0;                     ///< control-plane round no.
  std::uint64_t cut_seq_ = 0;                   ///< tokens cut, ever
  /// Cuts queued since the control plane last saw every worker busy.
  std::uint64_t cuts_since_wake_ = 0;
  std::uint64_t batches_total_ = 0;
  std::uint64_t rounds_total_ = 0;
  std::uint64_t max_in_flight_ = 0;

  /// Parking: the condvar only parks and wakes threads.
  alignas(kCacheLine) mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t signal_ = 0;      ///< bumped on every state change
  std::size_t done_workers_ = 0;  ///< workers finished draining this round
  bool shutdown_ = false;

  /// Written by the control plane (per cut / per round), polled by workers.
  alignas(kCacheLine) std::atomic<std::uint64_t> cut_round_{0};  ///< tokens cut this round
  alignas(kCacheLine) std::atomic<std::uint64_t> closed_round_{0};  ///< last round closed
  /// Written by workers, read by the control plane per cut.
  alignas(kCacheLine) std::atomic<std::uint64_t> executed_round_{0};  ///< fed tokens this round
  alignas(kCacheLine) std::atomic<unsigned> idle_workers_{0};  ///< workers parked or parking

  // Stage attribution (cumulative across runs; wall time, so the one
  // deliberately non-deterministic part of a pipelined report). Control
  // and barrier time are the control plane's; the rest the workers'.
  alignas(kCacheLine) std::atomic<std::uint64_t> control_ns_{0};
  std::atomic<std::uint64_t> barrier_ns_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> resolve_ns_{0};
  std::atomic<std::uint64_t> execute_ns_{0};
  std::atomic<std::uint64_t> drain_ns_{0};
};

}  // namespace pmtree::serve
