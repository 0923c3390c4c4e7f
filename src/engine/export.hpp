// Metric export shared by CycleEngine and ShardedEngineRunner (private to
// the engine library).
#pragma once

#include <string>

#include "pmtree/engine/engine.hpp"

namespace pmtree::engine::detail {

/// Adds `result` to `metrics` under `<prefix>.*` — the instruments
/// CycleEngine documents, plus `.rerouted_requests` / `.stalled_cycles`
/// when `options` carries a non-empty fault plan.
void export_metrics(MetricsRegistry& metrics, const std::string& prefix,
                    const EngineResult& result, const EngineOptions& options);

}  // namespace pmtree::engine::detail
