// perfbench: the repository benchmark. One process runs one workload
// (read-dense, sparse-rw or tenants-dram) against the public serve API,
// checks its outputs, and reports either the end-to-end metrics or, in a
// separate traced run, the per-layer metrics. See perfbench/README.md for
// what each metric and workload means and why it was chosen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pmtree/serve/request.hpp"
#include "pmtree/util/json.hpp"

namespace perfbench {

/// One reported metric: its name, unit and which direction is better
/// ("higher" or "lower").
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
};

/// The end-to-end metrics, in report order (an untraced run emits these).
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// The per-layer metrics, in report order (a traced run emits these).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();
/// Workload names accepted by run().
[[nodiscard]] const std::vector<std::string>& workload_names();
/// The per-layer metrics the traced run of `workload` actually measures;
/// the others are reported as 0 because their layer does no work there.
[[nodiscard]] std::vector<std::string> layers_measured(
    const std::string& workload);

/// Median plus the highest percentile that still has at least 10 samples
/// beyond it, with the sample count. Percentiles are nearest-rank. With
/// too few samples for any tail above the median, the tail is the median.
/// An empty sample summarizes to zeros.
struct Summary {
  double median = 0;
  std::string tail_label = "p50";  ///< e.g. "p96.6667" for n = 300
  double tail = 0;
  std::size_t samples = 0;
};
[[nodiscard]] Summary summarize(std::vector<double> sample);
/// Splits a sample, in the order it was taken, into `groups` consecutive
/// groups of near-equal size and returns the median of the group means
/// (fewer groups if there are fewer samples; 0 for an empty sample). Host
/// speed on a shared machine flips between regimes that last about a
/// second, so a plain median over samples spread across a run lands on
/// whichever regime held just over half of them; a group mean averages
/// the regimes within its stretch, and the median over groups still
/// drops a stretch hit by one long stall.
[[nodiscard]] double median_of_means(const std::vector<double>& sample,
                                     std::size_t groups);
/// Host-speed probe: a fixed piece of the benchmark's own code, calling
/// nothing in pmtree (a read-modify-write pass with random reads over a
/// 32 MiB buffer, then a sort of 2^18 integers). Returns its wall time in
/// seconds. An untimed pass first pulls the buffer into cache, so the time
/// depends on how fast the host runs now, not on what ran before.
[[nodiscard]] double host_probe_seconds();
/// The probe time that host-speed-normalized timings are scaled to: a
/// normalized figure is what the host would give if the probe took this
/// long (about its median on the 4-vCPU host the benchmark was tuned on).
inline constexpr double kProbeReferenceSeconds = 0.1;
/// One probe: when it started (seconds from any fixed origin) and how long
/// it took.
struct Probe {
  double at = 0;
  double seconds = 0;
};
/// The probe time that applies to a sample taken at time `at`: the mean
/// of the last probe started at or before `at` and the first started
/// after it, or whichever of the two exists. `probes` is in time order and
/// not empty.
[[nodiscard]] double bracketing_probe(const std::vector<Probe>& probes,
                                      double at);
/// Nearest-rank q-quantile of an ascending, non-empty sample.
[[nodiscard]] double quantile(const std::vector<double>& sorted, double q);
/// The q-quantile of an ascending, non-empty sample of whole numbers, each
/// read as spread evenly over [x - 0.5, x + 0.5): the nearest-rank value,
/// interpolated within its unit bin (Python's statistics.median_grouped
/// for q = 0.5). Moves smoothly when a quantile sits on a bin edge.
[[nodiscard]] double grouped_quantile(const std::vector<double>& sorted,
                                      double q);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measured trial time
  bool trace = false;
  /// Stream-size multiplier; 1 is the benchmark. The self-tests shrink it.
  double scale = 1.0;
};

struct Outcome {
  bool correct = true;
  std::vector<std::string> errors;  ///< failed gates, human-readable
  std::uint64_t attempted = 0;      ///< requests submitted in timed trials
  std::uint64_t failed = 0;         ///< requests left without a verdict
  /// Metric values keyed by name, in catalog order.
  std::vector<std::pair<std::string, double>> metrics;
  /// One JSON object with the host record, per-metric sample counts and
  /// tail percentiles, and the gate verdicts (printed before the result).
  std::string details;
};

/// Runs one workload end to end. Never throws on a failed gate: the
/// failure is recorded in Outcome::correct / errors.
[[nodiscard]] Outcome run(const Options& options);

/// The host facts every output records: nproc, LLC size, active SIMD
/// kernel, build type and compiler.
[[nodiscard]] pmtree::Json host_record();

/// The request streams the workloads submit, exposed so the self-tests
/// can pin their determinism. `count` is the number of requests.
[[nodiscard]] std::vector<pmtree::serve::Request> read_dense_stream(
    std::uint64_t seed, std::size_t count);
/// One stream per tenant, in tenant order.
[[nodiscard]] std::vector<std::vector<pmtree::serve::Request>>
tenants_dram_streams(std::uint64_t seed, std::size_t count);
struct SparseRwStream {
  std::vector<pmtree::Node> initial;  ///< pre-grown live set, insert order
  std::vector<pmtree::serve::Request> requests;
};
[[nodiscard]] SparseRwStream sparse_rw_stream(std::uint64_t seed,
                                              std::size_t count);

/// Byte serialization of a stream (every field of every request), for
/// byte-identity checks.
[[nodiscard]] std::string serialize(
    const std::vector<pmtree::serve::Request>& requests);

}  // namespace perfbench
