#include "pmtree/engine/sharded.hpp"

#include <algorithm>

#include "export.hpp"
#include "pmtree/util/parallel.hpp"

namespace pmtree::engine {

std::vector<Workload> ShardedEngineRunner::partition(const Workload& workload,
                                                     std::size_t shards) {
  shards = std::max<std::size_t>(shards, 1);
  std::vector<std::vector<Workload::Access>> parts(shards);
  for (auto& part : parts) part.reserve(workload.size() / shards + 1);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    parts[i % shards].push_back(workload[i]);
  }
  std::vector<Workload> out;
  out.reserve(shards);
  for (auto& part : parts) out.emplace_back(std::move(part));
  return out;
}

ShardedResult ShardedEngineRunner::run(const Workload& workload,
                                       const ArrivalSchedule& schedule,
                                       const ShardedOptions& options) const {
  const std::size_t shards = std::max<std::size_t>(options.shards, 1);
  const std::vector<Workload> parts = partition(workload, shards);

  ShardedResult result;
  result.shards.resize(shards);

  // One scalar engine run per shard, claimed shard-at-a-time from the
  // deterministic chunk grid. Each slot is written by exactly one worker
  // and the value written does not depend on which worker it is, so the
  // whole ShardedResult is thread-count invariant. Shard engines write no
  // metrics; the merged trajectory is exported once below.
  const CycleEngine engine(mapping_);
  parallel_chunks(shards, resolve_threads(options.threads), 1,
                  [&](unsigned, std::uint64_t begin, std::uint64_t end) {
                    for (std::uint64_t s = begin; s < end; ++s) {
                      result.shards[s] =
                          engine.run(parts[s], schedule, options.engine);
                    }
                  });

  // Deterministic fold in shard order (every reduction below is also
  // commutative, but a fixed order keeps the contract self-evident).
  const std::uint32_t modules = mapping_.num_modules();
  EngineResult& merged = result.merged;
  merged.served.assign(modules, 0);
  merged.queue_high_water.assign(modules, 0);
  merged.records.resize(workload.size());
  for (std::size_t s = 0; s < shards; ++s) {
    const EngineResult& shard = result.shards[s];
    merged.accesses += shard.accesses;
    merged.requests += shard.requests;
    merged.busy_cycles += shard.busy_cycles;
    merged.rerouted_requests += shard.rerouted_requests;
    merged.stalled_cycles += shard.stalled_cycles;
    merged.completion_cycle =
        std::max(merged.completion_cycle, shard.completion_cycle);
    for (std::uint32_t m = 0; m < modules; ++m) {
      merged.served[m] += shard.served[m];
      merged.queue_high_water[m] =
          std::max(merged.queue_high_water[m], shard.queue_high_water[m]);
    }
    merged.latency.merge(shard.latency);
    merged.queue_depth.merge(shard.queue_depth);
    for (std::size_t j = 0; j < shard.records.size(); ++j) {
      AccessRecord rec = shard.records[j];
      rec.id = j * shards + s;  // undo the round-robin assignment
      merged.records[rec.id] = rec;
    }
  }

  if (metrics_ != nullptr) {
    metrics_->counter(prefix_ + ".shards").add(shards);
    detail::export_metrics(*metrics_, prefix_, merged, options.engine);
  }
  return result;
}

}  // namespace pmtree::engine
