// Self-tests of the benchmark's own code: seeded stream determinism,
// percentile and sample-count reporting, host-probe bracketing,
// metric-name hygiene, and the traced run's per-layer coverage on every
// workload.
#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace {

using perfbench::Options;
using perfbench::serialize;

std::string sparse_bytes(std::uint64_t seed) {
  const perfbench::SparseRwStream s = perfbench::sparse_rw_stream(seed, 3000);
  std::string out;
  for (const pmtree::Node n : s.initial) {
    out += std::to_string(pmtree::bfs_id(n)) + ",";
  }
  return out + "|" + serialize(s.requests);
}

std::string tenants_bytes(std::uint64_t seed) {
  std::string out;
  for (const auto& stream : perfbench::tenants_dram_streams(seed, 3000)) {
    out += serialize(stream) + "|";
  }
  return out;
}

TEST(Streams, SameSeedGivesByteIdenticalStream) {
  EXPECT_EQ(serialize(perfbench::read_dense_stream(11, 3000)),
            serialize(perfbench::read_dense_stream(11, 3000)));
  EXPECT_NE(serialize(perfbench::read_dense_stream(11, 3000)),
            serialize(perfbench::read_dense_stream(12, 3000)));
  EXPECT_EQ(sparse_bytes(11), sparse_bytes(11));
  EXPECT_NE(sparse_bytes(11), sparse_bytes(12));
  EXPECT_EQ(tenants_bytes(11), tenants_bytes(11));
  EXPECT_NE(tenants_bytes(11), tenants_bytes(12));
}

TEST(Streams, SparseWritesAreMixedIn) {
  const auto s = perfbench::sparse_rw_stream(5, 5000);
  std::size_t writes = 0;
  for (const auto& r : s.requests) {
    writes += r.kind == pmtree::serve::RequestKind::kRead ? 0 : 1;
  }
  EXPECT_GT(writes, 700u);
  EXPECT_LT(writes, 1300u);
  EXPECT_FALSE(s.initial.empty());
}

TEST(Summary, MedianTailAndSampleCount) {
  std::vector<double> sample;
  for (int i = 1000; i >= 1; --i) sample.push_back(i);
  const perfbench::Summary s = perfbench::summarize(sample);
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_EQ(s.median, 500);
  EXPECT_EQ(s.tail_label, "p99");
  EXPECT_EQ(s.tail, 990);  // exactly 10 samples above it
}

TEST(Summary, SmallSamplesFallBackToTheMedian) {
  std::vector<double> thirty;
  for (int i = 1; i <= 30; ++i) thirty.push_back(i);
  const perfbench::Summary s30 = perfbench::summarize(thirty);
  EXPECT_EQ(s30.median, 15);
  EXPECT_EQ(s30.tail, 20);
  EXPECT_EQ(s30.tail_label, "p66.6667");

  const perfbench::Summary s5 = perfbench::summarize({3, 1, 2, 5, 4});
  EXPECT_EQ(s5.samples, 5u);
  EXPECT_EQ(s5.median, 3);
  EXPECT_EQ(s5.tail, 3);
  EXPECT_EQ(s5.tail_label, "p50");

  const perfbench::Summary empty = perfbench::summarize({});
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_EQ(empty.median, 0);
}

TEST(Summary, MedianOfMeansAveragesConsecutiveGroups) {
  // Groups {1, 2}, {3, 100}, {5, 6}: means 1.5, 51.5, 5.5.
  EXPECT_DOUBLE_EQ(perfbench::median_of_means({1, 2, 3, 100, 5, 6}, 3), 5.5);
  // A sample alternating between two regimes: the plain median sits on
  // one of them, the median of group means between them.
  const std::vector<double> flips{4, 6, 4, 6, 4, 6, 4, 6, 4, 6};
  EXPECT_DOUBLE_EQ(perfbench::median_of_means(flips, 5), 5);
  EXPECT_DOUBLE_EQ(perfbench::median_of_means({7, 9}, 5), 7);
  EXPECT_EQ(perfbench::median_of_means({}, 5), 0);
}

TEST(HostProbe, BracketingProbeAveragesTheNeighbours) {
  const std::vector<perfbench::Probe> probes{{0, 0.1}, {2, 0.2}, {5, 0.4}};
  // Before the first probe, or after the last, only one side exists.
  EXPECT_DOUBLE_EQ(perfbench::bracketing_probe(probes, -1), 0.1);
  EXPECT_DOUBLE_EQ(perfbench::bracketing_probe(probes, 7), 0.4);
  EXPECT_DOUBLE_EQ(perfbench::bracketing_probe(probes, 1), 0.15);
  EXPECT_DOUBLE_EQ(perfbench::bracketing_probe(probes, 3), 0.3);
  // A probe started exactly at the sample counts as before it.
  EXPECT_DOUBLE_EQ(perfbench::bracketing_probe(probes, 2), 0.3);
}

TEST(Summary, NearestRankQuantile) {
  const std::vector<double> sorted{10, 20, 30, 40};
  EXPECT_EQ(perfbench::quantile(sorted, 0.5), 20);
  EXPECT_EQ(perfbench::quantile(sorted, 0.99), 40);
  EXPECT_EQ(perfbench::quantile(sorted, 0.0), 10);
}

TEST(Summary, GroupedQuantileInterpolatesWithinTheBin) {
  // statistics.median_grouped([1, 2, 2, 3, 4, 4, 4, 4, 4, 5]) == 3.7
  const std::vector<double> sorted{1, 2, 2, 3, 4, 4, 4, 4, 4, 5};
  EXPECT_DOUBLE_EQ(perfbench::grouped_quantile(sorted, 0.5), 3.7);
  EXPECT_DOUBLE_EQ(perfbench::grouped_quantile(sorted, 1.0), 5.5);
  const std::vector<double> flat(100, 12);
  EXPECT_DOUBLE_EQ(perfbench::grouped_quantile(flat, 0.99), 12.49);
}

TEST(Metrics, NamesAndUnitsAreWellFormedAndUnique) {
  const std::regex name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const auto* catalog : {&perfbench::end_to_end_metrics(),
                              &perfbench::per_layer_metrics()}) {
    for (const perfbench::MetricSpec& m : *catalog) {
      EXPECT_TRUE(std::regex_match(m.name, name)) << m.name;
      EXPECT_TRUE(std::regex_match(m.unit, unit)) << m.unit;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    }
  }
  for (const std::string& w : perfbench::workload_names()) {
    EXPECT_TRUE(std::regex_match(w, name)) << w;
    for (const std::string& layer : perfbench::layers_measured(w)) {
      EXPECT_TRUE(seen.count(layer)) << w << " measures unknown " << layer;
    }
  }
}

bool is_timing(const std::string& unit) {
  return unit.rfind("ns/", 0) == 0 || unit == "s" || unit == "GiB/s";
}

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryWorkload, TracedRunEmitsEveryLayerItMeasures) {
  Options options;
  options.workload = GetParam();
  options.seed = 7;
  options.seconds = 0;
  options.trace = true;
  options.scale = 0.02;
  const perfbench::Outcome out = perfbench::run(options);
  ASSERT_TRUE(out.correct) << out.details;
  EXPECT_GT(out.attempted, 0u);
  EXPECT_EQ(out.failed, 0u);
  const auto& catalog = perfbench::per_layer_metrics();
  ASSERT_EQ(out.metrics.size(), catalog.size());
  const std::vector<std::string> measured =
      perfbench::layers_measured(GetParam());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(out.metrics[i].first, catalog[i].name);
    const bool is_measured =
        std::find(measured.begin(), measured.end(), catalog[i].name) !=
        measured.end();
    if (is_measured && is_timing(catalog[i].unit)) {
      EXPECT_GT(out.metrics[i].second, 0) << catalog[i].name;
    }
    if (!is_measured) {
      EXPECT_EQ(out.metrics[i].second, 0) << catalog[i].name;
    }
  }
}

TEST_P(EveryWorkload, UntracedRunEmitsNonZeroEndToEndMetrics) {
  Options options;
  options.workload = GetParam();
  options.seed = 3;
  options.seconds = 0;
  options.scale = 0.05;
  const perfbench::Outcome out = perfbench::run(options);
  ASSERT_TRUE(out.correct) << out.details;
  const auto& catalog = perfbench::end_to_end_metrics();
  ASSERT_EQ(out.metrics.size(), catalog.size());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(out.metrics[i].first, catalog[i].name);
    EXPECT_GT(out.metrics[i].second, 0) << catalog[i].name;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, EveryWorkload,
                         ::testing::ValuesIn(perfbench::workload_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name) ch = ch == '-' ? '_' : ch;
                           return name;
                         });

}  // namespace
