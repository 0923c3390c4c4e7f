// Failure injection: the paper's description of Gamma(i, j) ("the path
// from the root of B(i', j-1) to the root of B(i, j)") names N-k+1 nodes
// for an N-k slot list, so an implementation must pick a reading. These
// tests show the exhaustive conflict-freeness suite *distinguishes* the
// readings: the kCorrect variant passes (see test_mapping_color.cpp) while
// both mutants produce conflicts on the very templates Theorem 3 covers —
// i.e. the test suite would have caught the wrong choice.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

#include "pmtree/analysis/cost.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/util/bits.hpp"

namespace pmtree {
namespace {

using internal::GammaVariant;

struct MutantCase {
  GammaVariant variant;
  const char* label;
};

// gtest appends the printed parameter to each listed test name; without
// this it prints the raw bytes, label pointer included, and the names
// change from run to run under address-space randomization.
void PrintTo(const MutantCase& c, std::ostream* os) { *os << c.label; }

class GammaMutants : public ::testing::TestWithParam<MutantCase> {};

TEST_P(GammaMutants, MutantViolatesTheorem3Somewhere) {
  const auto& [variant, label] = GetParam();
  bool caught = false;
  // Sweep a few configurations; a mutant must fail at least one.
  const struct {
    std::uint32_t levels, N, k;
  } configs[] = {{8, 4, 2}, {9, 5, 3}, {11, 5, 2}, {12, 6, 3}};
  for (const auto& cfg : configs) {
    const ColorMapping map(CompleteBinaryTree(cfg.levels), cfg.N, cfg.k, variant);
    const auto s = evaluate_subtrees(map, tree_size(cfg.k));
    const auto p = evaluate_paths(map, cfg.N);
    if (s.max_conflicts > 0 || p.max_conflicts > 0) {
      caught = true;
      break;
    }
  }
  EXPECT_TRUE(caught) << "mutant '" << label
                      << "' was not detected by the CF sweep";
}

TEST_P(GammaMutants, MutantStaysWithinModuleRange) {
  // Even wrong Gamma readings must still produce legal colors; this pins
  // down that the mutants model *semantic* bugs, not crashes.
  const auto& [variant, label] = GetParam();
  const CompleteBinaryTree tree(10);
  const ColorMapping map(tree, 5, 2, variant);
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    ASSERT_LT(map.color_of(node_at(id)), map.num_modules()) << label;
  }
}

TEST_P(GammaMutants, MutantLazyStillMatchesItsOwnEagerTable) {
  // The lazy/eager cross-check is independent of the Gamma reading: both
  // paths must implement the same (possibly wrong) mapping.
  const auto& [variant, label] = GetParam();
  const CompleteBinaryTree tree(11);
  const ColorMapping map(tree, 5, 2, variant);
  const auto table = map.materialize();
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    ASSERT_EQ(map.color_of(node_at(id)), table[id]) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, GammaMutants,
    ::testing::Values(MutantCase{GammaVariant::kIncludeChildRoot,
                                 "include-child-root"},
                      MutantCase{GammaVariant::kReversed, "reversed"}),
    [](const auto& param_info) { return std::string(param_info.param.label) == "reversed"
                               ? "Reversed"
                               : "IncludeChildRoot"; });

}  // namespace
}  // namespace pmtree
