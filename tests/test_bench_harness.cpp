// Bench harness helpers (bench/bench_common.hpp): the median estimator
// (odd N = middle element, even N = mean of the two middles — the
// upper-middle-only form was biased high), median_wall_seconds's
// invocation contract (warmup + max(trials, 1) timed runs, setup before
// every body), and print_experiment's PMTREE_BENCH_CSV path join
// (trailing-slash directories must not produce "dir//file.csv"-style
// surprises, and an unwritable directory must warn, not silently drop
// the CSV); and write_report's PMTREE_BENCH_JSON round trip.
#include "../bench/bench_common.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

namespace pmtree::bench {
namespace {

TEST(MedianOf, OddCountTakesTheMiddleElement) {
  EXPECT_DOUBLE_EQ(median_of({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({9.0, 1.0, 5.0, 7.0, 3.0}), 5.0);
}

TEST(MedianOf, EvenCountAveragesTheTwoMiddles) {
  EXPECT_DOUBLE_EQ(median_of({1.0, 2.0}), 1.5);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 3.0, 2.0}), 2.5);
  // The regression this fixes: the upper middle alone would say 3.0.
  EXPECT_DOUBLE_EQ(median_of({1.0, 1.0, 3.0, 100.0}), 2.0);
}

TEST(MedianWallSeconds, RunsWarmupPlusTrialsWithSetupBeforeEveryBody) {
  int setups = 0;
  int bodies = 0;
  const double got = median_wall_seconds(
      /*warmup=*/2, /*trials=*/5, [&] { ++setups; },
      [&] {
        EXPECT_EQ(setups, bodies + 1) << "setup must precede every body";
        ++bodies;
      });
  EXPECT_EQ(bodies, 7);  // 2 warmup + 5 timed
  EXPECT_EQ(setups, 7);
  EXPECT_GE(got, 0.0);
}

TEST(MedianWallSeconds, ZeroTrialsBehavesAsOne) {
  int bodies = 0;
  const double got = median_wall_seconds(0, 0, [&] { ++bodies; });
  EXPECT_EQ(bodies, 1);
  EXPECT_GE(got, 0.0);
}

class BenchCsvEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* prior = std::getenv("PMTREE_BENCH_CSV");
    if (prior != nullptr) prior_ = prior;
    dir_ = ::testing::TempDir() + "pmtree_bench_csv_test";
    std::remove((dir_ + "/E99_test.csv").c_str());
    (void)::mkdir(dir_.c_str(), 0755);
  }
  void TearDown() override {
    if (prior_.empty()) {
      ::unsetenv("PMTREE_BENCH_CSV");
    } else {
      ::setenv("PMTREE_BENCH_CSV", prior_.c_str(), 1);
    }
  }
  std::string dir_;
  std::string prior_;
};

TEST_F(BenchCsvEnv, TrailingSlashDirectoryProducesTheSameCsvPath) {
  TableWriter table({"k", "v"});
  table.row(1, 2);

  ::setenv("PMTREE_BENCH_CSV", (dir_ + "/").c_str(), 1);
  print_experiment("E99 test", "csv path join", table);
  std::ifstream with_slash(dir_ + "/E99_test.csv");
  EXPECT_TRUE(with_slash.good()) << "trailing '/' broke the path join";

  std::remove((dir_ + "/E99_test.csv").c_str());
  ::setenv("PMTREE_BENCH_CSV", dir_.c_str(), 1);
  print_experiment("E99 test", "csv path join", table);
  std::ifstream without_slash(dir_ + "/E99_test.csv");
  EXPECT_TRUE(without_slash.good());
}

TEST_F(BenchCsvEnv, MissingDirectoryWarnsOnStderrInsteadOfSilence) {
  TableWriter table({"k", "v"});
  table.row(1, 2);
  ::setenv("PMTREE_BENCH_CSV", (dir_ + "/does_not_exist").c_str(), 1);
  ::testing::internal::CaptureStderr();
  print_experiment("E99 test", "csv warn", table);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("cannot write"), std::string::npos)
      << "a failed CSV export must be reported, got: " << err;
}

TEST(BenchJsonReport, WritesIntoTheBenchJsonDirectoryAndReadsBack) {
  const char* prior = std::getenv("PMTREE_BENCH_JSON");
  const std::string saved = prior != nullptr ? prior : "";
  const std::string dir = ::testing::TempDir() + "pmtree_bench_json_test";
  (void)::mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/BENCH_E99_test.json";
  std::remove(path.c_str());

  Json report = Json::object();
  report.set("experiment", Json("E99"));
  report.set("rows", Json(std::uint64_t{3}));
  ::setenv("PMTREE_BENCH_JSON", dir.c_str(), 1);
  ::testing::internal::CaptureStdout();
  write_report("BENCH_E99_test.json", report);
  const std::string out = ::testing::internal::GetCapturedStdout();
  if (saved.empty()) {
    ::unsetenv("PMTREE_BENCH_JSON");
  } else {
    ::setenv("PMTREE_BENCH_JSON", saved.c_str(), 1);
  }

  EXPECT_NE(out.find(path), std::string::npos) << out;
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no report at " << path;
  std::stringstream text;
  text << in.rdbuf();
  const std::optional<Json> back = Json::parse(text.str());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dump(), report.dump());
}

}  // namespace
}  // namespace pmtree::bench
