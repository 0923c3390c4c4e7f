// StagedRunner: the inline and staged executors of the serve control
// plane (pipeline.hpp, DESIGN.md §14).

#include "pmtree/serve/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>
#include <utility>

#include "pmtree/util/parallel.hpp"
#include "pmtree/util/simd.hpp"

namespace pmtree::serve {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// StagedRunner

StagedRunner::StagedRunner(std::vector<LaneSpec> lanes,
                           const PipelineOptions& options,
                           unsigned drain_threads)
    : lanes_(std::move(lanes)), drain_threads_(drain_threads) {
  const unsigned P = options.workers;
  sessions_.reserve(lanes_.size());
  for (const LaneSpec& lane : lanes_) {
    assert(lane.mapping != nullptr);
    sessions_.emplace_back(*lane.mapping, lane.options);
  }
  results_.resize(lanes_.size());
  lane_colors_.resize(lanes_.size());
  for (unsigned w = 0; w < P; ++w) {
    resolve_lists_.emplace_back(&BatchToken::next_resolve);
  }
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    lane_lists_.emplace_back(&BatchToken::next_lane);
  }
  // With one hardware thread, a mid-round wake cannot add parallelism —
  // it only slices the same total work across more context switches — so
  // all waking is deferred to the round barrier there.
  eager_wake_ = std::thread::hardware_concurrency() > 1;
  workers_.reserve(P);
  for (unsigned w = 0; w < P; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

StagedRunner::~StagedRunner() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    ++signal_;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void StagedRunner::bump() noexcept {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++signal_;
  }
  cv_.notify_all();
}

void StagedRunner::begin_run() {
  // Workers are quiescent here: the previous run's final close_round
  // barrier (or construction) parked them, and the mutex handshake that
  // reported done_workers_ ordered their session/result writes before
  // these control-plane accesses.
  for (engine::EngineSession& session : sessions_) session.clear();
  for (engine::EngineResult& result : results_) result = engine::EngineResult();
  token_count_ = 0;  // token storage is pooled across runs
  executed_round_.store(0, std::memory_order_relaxed);
  cut_round_.store(0, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  done_workers_ = 0;
}

void StagedRunner::cut(FormedBatch batch, std::uint32_t lane,
                       std::uint32_t tenant, const TreeMapping* mapping) {
  assert(lane < lanes_.size());
  assert(mapping == nullptr ||
         mapping->num_modules() == lanes_[lane].mapping->num_modules());
  // Pooled token storage (chunks: element addresses are stable). A reused
  // token keeps its colors capacity from earlier rounds; its ready flag
  // is lowered again before any list publishes the pointer.
  if (token_count_ == token_chunks_.size() * kTokenChunk) {
    token_chunks_.push_back(std::make_unique<BatchToken[]>(kTokenChunk));
  }
  BatchToken& token = this->token(token_count_);
  token_count_ += 1;
  token.batch = std::move(batch);
  token.lane = lane;
  token.tenant = tenant;
  token.mapping = mapping;
  token.mem = mem::TouchStats{};
  token.ready.store(false, std::memory_order_relaxed);

  batches_total_ += 1;
  // Lane list first: the lane owner's consumption is ready-gated, so the
  // token parks there inert until the resolver flips it. Pushing the
  // resolve list last means a token is never resolvable before its lane
  // position exists. Inline, the step waits for the barrier.
  lane_lists_[lane].push(&token);
  if (workers_.empty()) return;
  const std::uint64_t in_flight =
      token_count_ - executed_round_.load(std::memory_order_relaxed);
  max_in_flight_ = std::max(max_in_flight_, in_flight);
  resolve_lists_[cut_seq_++ % resolve_lists_.size()].push(&token);
  cut_round_.fetch_add(1, std::memory_order_release);

  // Wake batching: consumers that are awake poll their lists themselves;
  // parked ones are woken once kWakeBatch cuts have queued up since the
  // control plane last saw every worker busy (and not at all mid-round on
  // single-CPU hosts — the barrier wakes everyone). A wake costs this
  // serial thread a futex syscall worth several cuts, and a worker woken
  // for a handful of tokens parks again at once, so wakes must be rare:
  // at 256 cuts they stay a few percent of control time, and the round
  // barrier inherits at most 256 unresolved tokens. A parked worker
  // missed here is woken by the barrier, so this read needs no ordering.
  constexpr std::uint64_t kWakeBatch = 256;
  if (idle_workers_.load(std::memory_order_relaxed) == 0) {
    cuts_since_wake_ = 0;
  } else if (eager_wake_ && ++cuts_since_wake_ >= kWakeBatch) {
    cuts_since_wake_ = 0;
    bump();
  }
}

void StagedRunner::close_round() {
  const auto start = Clock::now();
  round_ += 1;
  rounds_total_ += 1;
  if (workers_.empty()) {
    // Inline barrier, the only parallel phase of this executor: each lane
    // takes its round's batches through the step in cut order, feeds them
    // and replays its cumulative feed. The control thread waits here, so
    // nothing the step reads (dyn colors, epoch mappings) moves meanwhile.
    const std::uint64_t L = lanes_.size();
    const unsigned threads = static_cast<unsigned>(
        std::min<std::uint64_t>(resolve_threads(drain_threads_),
                                std::max<std::uint64_t>(L, 1)));
    parallel_chunks(L, threads, /*grain=*/1,
                    [&](unsigned, std::uint64_t begin, std::uint64_t end) {
                      for (std::uint64_t l = begin; l < end; ++l) {
                        std::vector<Color>& colors = lane_colors_[l];
                        TokenList& list = lane_lists_[l];
                        for (; BatchToken* token = list.front(); list.pop()) {
                          resolve(*token, colors);
                          sessions_[l].feed_resolved(
                              colors, token->batch.formed_cycle);
                        }
                        list.reset();
                        results_[l] = sessions_[l].drain();
                      }
                    });
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Release-ordered via the mutex AND the atomic store: a worker that
    // observes the new closed_round_ also observes every list push above
    // (and the final cut_round_ count).
    closed_round_.store(round_, std::memory_order_release);
    ++signal_;
  }
  cv_.notify_all();
  cuts_since_wake_ = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return done_workers_ == workers_.size(); });
  }
  barrier_ns_.fetch_add(ns_since(start), std::memory_order_relaxed);
}

void StagedRunner::add_control_ns_since(Clock::time_point start) {
  control_ns_.fetch_add(ns_since(start), std::memory_order_relaxed);
}

void StagedRunner::next_round() {
  // Safe without worker synchronization: close_round's barrier guarantees
  // every list was reset by its consumer and every worker is parked with
  // no token pointer in hand.
  token_count_ = 0;  // keep pooled token storage
  executed_round_.store(0, std::memory_order_relaxed);
  cut_round_.store(0, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  done_workers_ = 0;
}

void StagedRunner::resolve(BatchToken& token, std::vector<Color>& colors) {
  // The per-batch step: coalesce (in-place sort/dedup; a no-op for a
  // batch the control plane already coalesced), arena touch and SIMD color
  // gather. All pure functions of the batch, so resolution order across
  // workers is irrelevant.
  BatchFormer::coalesce(token.batch);
  const std::vector<Node>& nodes = token.batch.nodes;
  colors.resize(nodes.size());
  const LaneSpec& lane = lanes_[token.lane];
  // Real-memory backend: load the batch's payloads from the arenas right
  // after the coalesce, on whichever thread runs the step. Pure
  // observation into this token; assembly folds the order-invariant
  // totals, so the aggregate is the same on either executor.
  if (lane.memory != nullptr) token.mem = lane.memory->touch(nodes);
  // Epoch-mapping override (migration): still one devirtualized batch
  // call — MigratedMapping delegates to the base kernel plus one rotation
  // pass, so the SIMD gather path stays hot.
  const TreeMapping& mapping =
      token.mapping != nullptr ? *token.mapping : *lane.mapping;
  mapping.color_of_batch(nodes, std::span<Color>(colors.data(), colors.size()));
}

bool StagedRunner::work_once(unsigned me, std::uint64_t& drained_upto) {
  bool progress = false;
  const unsigned P = static_cast<unsigned>(resolve_lists_.size());
  TokenList& resolvable = resolve_lists_[me];

  // Resolve stage: drain this worker's share of freshly cut tokens.
  // Timing wraps the whole drain (one clock pair per burst, not per
  // token); lane owners waiting on ready flags are woken by the single
  // bump after the stage loops.
  if (resolvable.front() != nullptr) {
    const auto start = Clock::now();
    while (BatchToken* token = resolvable.front()) {
      resolvable.pop();
      // Touch the NEXT batch's node array while this one resolves: the
      // batches were formed a whole round ago, so every resolve begins
      // with a DRAM-cold read that prefetching hides almost entirely.
      if (const BatchToken* next = resolvable.front()) {
        const char* p =
            reinterpret_cast<const char*>(next->batch.nodes.data());
        const char* const end = p + next->batch.nodes.size() * sizeof(Node);
        for (; p < end; p += 64) __builtin_prefetch(p, 0, 1);
      }
      resolve(*token, token->colors);
      token->ready.store(true, std::memory_order_release);
      progress = true;
    }
    resolve_ns_.fetch_add(ns_since(start), std::memory_order_relaxed);
  }

  // Execute stage: feed owned lanes front-first; a lane list's front is
  // consumed only once resolved, which pins the feed order to cut order.
  std::uint64_t executed = 0;
  for (std::size_t l = me; l < lane_lists_.size(); l += P) {
    TokenList& list = lane_lists_[l];
    if (list.front() == nullptr) continue;
    const auto start = Clock::now();
    while (BatchToken* token = list.front()) {
      if (!token->ready.load(std::memory_order_acquire)) break;
      sessions_[l].feed_resolved(token->colors, token->batch.formed_cycle);
      list.pop();
      executed += 1;
      progress = true;
    }
    execute_ns_.fetch_add(ns_since(start), std::memory_order_relaxed);
  }
  if (executed != 0) {
    executed_round_.fetch_add(executed, std::memory_order_release);
  }
  if (progress) bump();  // lane owners waiting on ready may be parked

  // Drain at the round barrier: once the round is closed and every cut
  // token of the round has been executed (which implies every list is
  // walked to its end), simulate the owned lanes' cumulative feeds and
  // empty this worker's lists for the next round — the control plane is
  // parked in close_round, so no push can race the reset.
  const std::uint64_t closed = closed_round_.load(std::memory_order_acquire);
  if (closed > drained_upto &&
      executed_round_.load(std::memory_order_acquire) ==
          cut_round_.load(std::memory_order_acquire)) {
    const auto start = Clock::now();
    resolvable.reset();
    for (std::size_t l = me; l < lane_lists_.size(); l += P) {
      assert(lane_lists_[l].front() == nullptr);
      lane_lists_[l].reset();
      results_[l] = sessions_[l].drain();
    }
    drain_ns_.fetch_add(ns_since(start), std::memory_order_relaxed);
    drained_upto = closed;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_workers_ += 1;
      ++signal_;
    }
    cv_.notify_all();
    progress = true;
  }
  return progress;
}

void StagedRunner::worker_loop(unsigned me) {
  std::uint64_t drained_upto = 0;
  for (;;) {
    if (work_once(me, drained_upto)) continue;
    std::unique_lock<std::mutex> lock(mutex_);
    if (shutdown_) return;
    const std::uint64_t seen = signal_;
    lock.unlock();
    // Re-check after snapshotting the signal: any state change since the
    // snapshot bumps signal_, so the wait below cannot miss it.
    if (work_once(me, drained_upto)) continue;
    lock.lock();
    idle_workers_.fetch_add(1, std::memory_order_relaxed);
    cv_.wait(lock, [&] { return shutdown_ || signal_ != seen; });
    idle_workers_.fetch_sub(1, std::memory_order_relaxed);
    if (shutdown_) return;
  }
}

Json StagedRunner::stats() const {
  Json stage = Json::object();
  stage.set("control", Json(control_ns_.load(std::memory_order_relaxed)));
  stage.set("resolve", Json(resolve_ns_.load(std::memory_order_relaxed)));
  stage.set("execute", Json(execute_ns_.load(std::memory_order_relaxed)));
  stage.set("drain", Json(drain_ns_.load(std::memory_order_relaxed)));
  stage.set("barrier", Json(barrier_ns_.load(std::memory_order_relaxed)));

  Json j = Json::object();
  j.set("workers", Json(std::uint64_t{workers_.size()}));
  j.set("lanes", Json(std::uint64_t{lanes_.size()}));
  j.set("rounds", Json(rounds_total_));
  j.set("batches", Json(batches_total_));
  j.set("max_in_flight", Json(max_in_flight_));
  j.set("stage_ns", stage);
  j.set("simd_kernel", Json(simd::active_kernel()));
  return j;
}

}  // namespace pmtree::serve
