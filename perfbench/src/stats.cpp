// Sample summaries, the metric catalogs and the host record.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "pmtree/util/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double quantile(const std::vector<double>& sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double grouped_quantile(const std::vector<double>& sorted, double q) {
  const double target = q * static_cast<double>(sorted.size());
  const double value = quantile(sorted, q);
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), value);
  const auto hi = std::upper_bound(lo, sorted.end(), value);
  return value - 0.5 +
         (target - static_cast<double>(lo - sorted.begin())) /
             static_cast<double>(hi - lo);
}

double median_of_means(const std::vector<double>& sample, std::size_t groups) {
  if (sample.empty()) return 0;
  groups = std::clamp<std::size_t>(groups, 1, sample.size());
  std::vector<double> means;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t begin = g * sample.size() / groups;
    const std::size_t end = (g + 1) * sample.size() / groups;
    double sum = 0;
    for (std::size_t i = begin; i < end; ++i) sum += sample[i];
    means.push_back(sum / static_cast<double>(end - begin));
  }
  std::sort(means.begin(), means.end());
  return quantile(means, 0.5);
}

double host_probe_seconds() {
  static std::vector<std::uint64_t> buffer(std::size_t{1} << 22);
  static std::vector<std::uint32_t> keys(std::size_t{1} << 18);
  static volatile std::uint64_t sink = 0;
  std::uint64_t acc = 0;
  for (const std::uint64_t word : buffer) acc += word;  // untimed: warm
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const std::size_t mask = buffer.size() - 1;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] += next();
    acc += buffer[(x >> 20) & mask];
  }
  for (std::uint32_t& k : keys) k = static_cast<std::uint32_t>(next());
  std::sort(keys.begin(), keys.end());
  acc += keys[keys.size() / 2];
  const auto t1 = std::chrono::steady_clock::now();
  sink = sink + acc;
  return std::chrono::duration<double>(t1 - t0).count();
}

double bracketing_probe(const std::vector<Probe>& probes, double at) {
  const auto after = std::upper_bound(
      probes.begin(), probes.end(), at,
      [](double t, const Probe& p) { return t < p.at; });
  if (after == probes.begin()) return after->seconds;
  const Probe& before = *(after - 1);
  if (after == probes.end()) return before.seconds;
  return (before.seconds + after->seconds) / 2;
}

Summary summarize(std::vector<double> sample) {
  Summary s;
  s.samples = sample.size();
  if (sample.empty()) return s;
  std::sort(sample.begin(), sample.end());
  s.median = quantile(sample, 0.5);
  s.tail = s.median;
  // The highest nearest-rank percentile with at least 10 samples strictly
  // above it: rank n - 10, as long as that is above the median.
  const std::size_t n = sample.size();
  if (n > 10 && n - 10 > (n + 1) / 2) {
    const std::size_t rank = n - 10;
    s.tail = sample[rank - 1];
    char label[32];
    std::snprintf(label, sizeof label, "p%.6g",
                  100.0 * static_cast<double>(rank) / static_cast<double>(n));
    s.tail_label = label;
  }
  return s;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics{
      {"goodput_rps", "req/s", "higher"},
      {"sim_latency_p50_cyc", "cyc", "lower"},
      {"sim_latency_p99_cyc", "cyc", "lower"},
      {"sim_rpkc", "req/kcyc", "higher"},
      {"fail_ratio", "ratio", "lower"},
      {"slo_miss_ratio", "ratio", "lower"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mib", "MiB", "lower"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics{
      {"serve.submit_ns_per_req", "ns/req", "lower"},
      {"serve.ticks_per_req", "ticks/req", "lower"},
      {"serve.useful_tick_ratio", "ratio", "higher"},
      {"serve.coalesce_ns_per_batch", "ns/batch", "lower"},
      {"serve.batch_nodes_mean", "nodes", "higher"},
      {"serve.dedup_ratio", "ratio", "lower"},
      {"serve.pipeline.control_ns_per_req", "ns/req", "lower"},
      {"serve.pipeline.resolve_ns_per_req", "ns/req", "lower"},
      {"serve.pipeline.execute_ns_per_req", "ns/req", "lower"},
      {"serve.pipeline.drain_ns_per_req", "ns/req", "lower"},
      {"serve.pipeline.barrier_ns_per_req", "ns/req", "lower"},
      {"mapping.resolve_ns_per_node", "ns/node", "lower"},
      {"analysis.conflicts_per_batch_mean", "count", "lower"},
      {"analysis.conflicts_per_batch_max", "count", "lower"},
      {"analysis.ns_per_batch", "ns/batch", "lower"},
      {"engine.ns_per_access", "ns/access", "lower"},
      {"engine.load_imbalance", "ratio", "lower"},
      {"engine.max_queue_depth", "count", "lower"},
      {"mem.ns_per_node", "ns/node", "lower"},
      {"mem.gib_per_s", "GiB/s", "higher"},
      {"mem.bytes_per_req", "B/req", "lower"},
      {"dyn.apply_ns_per_mutation", "ns/mutation", "lower"},
      {"dyn.applied", "count", "higher"},
      {"dyn.rejected", "count", "lower"},
      {"dyn.nodes_colored", "count", "lower"},
      {"fault.retry_ratio", "ratio", "lower"},
      {"fault.rerouted_requests", "count", "lower"},
      {"fault.stalled_cycles", "cyc", "lower"},
      {"serve.fair.share_rel_err_max", "ratio", "lower"},
      {"serve.migration.subtrees_moved", "count", "lower"},
      {"serve.adaptive.switches", "count", "lower"},
      {"setup.mapping_build_s", "s", "lower"},
      {"setup.arena_fill_s", "s", "lower"},
      {"trace.replay_sum_over_run", "ratio", "higher"},
      {"trace.overhead_ratio", "ratio", "higher"},
  };
  return kMetrics;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames{"read-dense", "sparse-rw",
                                               "tenants-dram"};
  return kNames;
}

std::vector<std::string> layers_measured(const std::string& workload) {
  std::vector<std::string> names{
      "serve.submit_ns_per_req",    "serve.ticks_per_req",
      "serve.useful_tick_ratio",    "serve.coalesce_ns_per_batch",
      "serve.batch_nodes_mean",     "serve.dedup_ratio",
      "mapping.resolve_ns_per_node", "analysis.conflicts_per_batch_mean",
      "analysis.conflicts_per_batch_max", "analysis.ns_per_batch",
      "engine.ns_per_access",       "engine.load_imbalance",
      "engine.max_queue_depth",     "setup.mapping_build_s",
      "trace.replay_sum_over_run",  "trace.overhead_ratio"};
  const auto add = [&](std::initializer_list<const char*> more) {
    names.insert(names.end(), more.begin(), more.end());
  };
  if (workload == "read-dense") {
    add({"serve.pipeline.control_ns_per_req",
         "serve.pipeline.resolve_ns_per_req",
         "serve.pipeline.execute_ns_per_req",
         "serve.pipeline.drain_ns_per_req",
         "serve.pipeline.barrier_ns_per_req"});
  } else if (workload == "sparse-rw") {
    add({"dyn.apply_ns_per_mutation", "dyn.applied", "dyn.rejected",
         "dyn.nodes_colored"});
  } else if (workload == "tenants-dram") {
    add({"mem.ns_per_node", "mem.gib_per_s", "mem.bytes_per_req",
         "fault.retry_ratio", "fault.rerouted_requests",
         "fault.stalled_cycles", "serve.fair.share_rel_err_max",
         "serve.migration.subtrees_moved", "serve.adaptive.switches",
         "setup.arena_fill_s"});
  }
  return names;
}

pmtree::Json host_record() {
  pmtree::Json j = pmtree::Json::object();
  j.set("nproc",
        pmtree::Json(std::uint64_t{std::thread::hardware_concurrency()}));
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  j.set("llc_bytes",
        pmtree::Json(static_cast<std::uint64_t>(llc > 0 ? llc : 0)));
  j.set("simd_kernel", pmtree::Json(pmtree::simd::active_kernel()));
  j.set("build_type", pmtree::Json(PERFBENCH_BUILD_TYPE));
#if defined(__clang__)
  j.set("compiler", pmtree::Json("clang " __clang_version__));
#elif defined(__GNUC__)
  j.set("compiler", pmtree::Json("gcc " __VERSION__));
#else
  j.set("compiler", pmtree::Json("unknown"));
#endif
  return j;
}

}  // namespace perfbench
