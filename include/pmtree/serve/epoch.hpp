// The skeleton the serve layer's epoch controllers share (DESIGN.md §15,
// §17): MigrationPlanner and AdaptiveSelector both count cut batches into
// epochs, forget old traffic with the same integer decay step, and report
// the tail of their event log in their stats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pmtree/util/json.hpp"

namespace pmtree::serve {

/// One integer decay step: `h` loses h >> shift (shift 0 forgets all of
/// it; shift >= 64, where the raw shift is undefined, keeps it). Returns
/// what was lost — no floating point on any decision path.
constexpr std::uint64_t decay_step(std::uint64_t& h,
                                   std::uint32_t shift) noexcept {
  const std::uint64_t lost = shift == 0 ? h : shift < 64 ? h >> shift : 0;
  h -= lost;
  return lost;
}

/// A controller's epoch cadence and audit log: every `epoch_batches` cut
/// batches close an epoch, which records one Event (anything with
/// `Json to_json() const`).
template <typename Event>
struct EpochLog {
  /// Counts one cut batch; true when it closes an epoch (already counted).
  bool tick() noexcept {
    batches += 1;
    if (++since_epoch < epoch_batches) return false;
    since_epoch = 0;
    epochs += 1;
    return true;
  }
  /// The last eight events, oldest first: a bounded stats payload.
  [[nodiscard]] Json recent() const {
    Json out = Json::array();
    const std::size_t first = events.size() > 8 ? events.size() - 8 : 0;
    for (std::size_t e = first; e < events.size(); ++e) {
      out.push_back(events[e].to_json());
    }
    return out;
  }

  std::uint32_t epoch_batches = 0;
  std::uint32_t since_epoch = 0;
  std::uint64_t batches = 0;
  std::uint64_t epochs = 0;
  std::vector<Event> events;
};

}  // namespace pmtree::serve
