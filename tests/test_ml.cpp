// Tests for lhd/ml: every shallow classifier on controlled synthetic data.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <ostream>

#include "lhd/ml/adaboost.hpp"
#include "lhd/ml/decision_tree.hpp"
#include "lhd/ml/kernel_svm.hpp"
#include "lhd/ml/linear_svm.hpp"
#include "lhd/ml/logistic_regression.hpp"
#include "lhd/ml/naive_bayes.hpp"
#include "lhd/ml/pattern_match.hpp"
#include "lhd/ml/random_forest.hpp"
#include "lhd/util/rng.hpp"

namespace lhd::ml {
namespace {

struct Problem {
  Matrix x;
  std::vector<float> y;
};

/// Two well-separated Gaussian blobs (linearly separable).
Problem blobs(int n_per_class, std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  for (int i = 0; i < n_per_class; ++i) {
    p.x.push_back({static_cast<float>(rng.next_gaussian(2.0, 0.5)),
                   static_cast<float>(rng.next_gaussian(2.0, 0.5))});
    p.y.push_back(1.0f);
    p.x.push_back({static_cast<float>(rng.next_gaussian(-2.0, 0.5)),
                   static_cast<float>(rng.next_gaussian(-2.0, 0.5))});
    p.y.push_back(-1.0f);
  }
  return p;
}

/// XOR-style checkerboard — not linearly separable.
Problem xor_data(int n_per_quadrant, std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  for (int i = 0; i < n_per_quadrant; ++i) {
    for (const auto& [sx, sy] :
         {std::pair{1, 1}, {-1, -1}, {1, -1}, {-1, 1}}) {
      const float x = static_cast<float>(sx * (1.0 + rng.next_double()));
      const float y = static_cast<float>(sy * (1.0 + rng.next_double()));
      p.x.push_back({x, y});
      p.y.push_back(sx * sy > 0 ? 1.0f : -1.0f);
    }
  }
  return p;
}

double accuracy(const BinaryClassifier& clf, const Problem& p) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < p.x.size(); ++i) {
    correct += clf.predict(p.x[i]) == (p.y[i] > 0);
  }
  return static_cast<double>(correct) / static_cast<double>(p.x.size());
}

// Parameterized over every classifier: all must nail linearly separable
// blobs (train on one sample, test on a fresh one).
using ClassifierFactory = std::function<std::unique_ptr<BinaryClassifier>()>;

struct ClassifierCase {
  const char* name;
  ClassifierFactory make;
};

// gtest appends the printed parameter to every listed test name. Print the
// label only: the default byte dump holds load addresses, which change from
// run to run and would make the registered ctest names unstable.
void PrintTo(const ClassifierCase& c, std::ostream* os) { *os << c.name; }

class AllClassifiers : public ::testing::TestWithParam<ClassifierCase> {};

TEST_P(AllClassifiers, SeparatesGaussianBlobs) {
  const auto clf = GetParam().make();
  const Problem train = blobs(60, 1);
  const Problem test = blobs(60, 2);
  clf->fit(train.x, train.y);
  EXPECT_GE(accuracy(*clf, test), 0.9) << GetParam().name;
}

TEST_P(AllClassifiers, RejectsEmptyTrainingSet) {
  const auto clf = GetParam().make();
  EXPECT_THROW(clf->fit({}, {}), Error);
}

TEST_P(AllClassifiers, RejectsBadLabels) {
  const auto clf = GetParam().make();
  EXPECT_THROW(clf->fit({{1.0f}}, {0.5f}), Error);
}

TEST_P(AllClassifiers, RejectsSizeMismatch) {
  const auto clf = GetParam().make();
  EXPECT_THROW(clf->fit({{1.0f}, {2.0f}}, {1.0f}), Error);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllClassifiers,
    ::testing::Values(
        ClassifierCase{"linear-svm",
                       [] { return std::make_unique<LinearSvm>(); }},
        ClassifierCase{"rbf-svm", [] { return std::make_unique<KernelSvm>(); }},
        ClassifierCase{"adaboost", [] { return std::make_unique<AdaBoost>(); }},
        ClassifierCase{"dtree",
                       [] { return std::make_unique<DecisionTree>(); }},
        ClassifierCase{"forest",
                       [] { return std::make_unique<RandomForest>(); }},
        ClassifierCase{"logreg",
                       [] { return std::make_unique<LogisticRegression>(); }},
        ClassifierCase{"naive-bayes",
                       [] { return std::make_unique<GaussianNaiveBayes>(); }}),
    [](const auto& param_info) {
      std::string name = param_info.param.name;
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// Nonlinear learners must solve XOR; the linear ones cannot.
TEST(NonlinearClassifiers, RbfSvmSolvesXor) {
  KernelSvm clf;
  const Problem train = xor_data(40, 3);
  clf.fit(train.x, train.y);
  EXPECT_GE(accuracy(clf, xor_data(40, 4)), 0.9);
}

TEST(NonlinearClassifiers, TreeSolvesXor) {
  DecisionTree clf;
  const Problem train = xor_data(40, 3);
  clf.fit(train.x, train.y);
  EXPECT_GE(accuracy(clf, xor_data(40, 4)), 0.9);
}

TEST(NonlinearClassifiers, ForestSolvesXor) {
  RandomForest clf;
  const Problem train = xor_data(40, 3);
  clf.fit(train.x, train.y);
  EXPECT_GE(accuracy(clf, xor_data(40, 4)), 0.9);
}

TEST(LinearClassifiers, LinearSvmFailsXor) {
  LinearSvm clf;
  const Problem train = xor_data(40, 3);
  clf.fit(train.x, train.y);
  EXPECT_LE(accuracy(clf, xor_data(40, 4)), 0.7);
}

// ------------------------------------------------------------- threshold --

TEST(Threshold, RaisingThresholdReducesAlarms) {
  LogisticRegression clf;
  const Problem train = blobs(50, 5);
  clf.fit(train.x, train.y);
  const Problem test = blobs(50, 6);
  auto alarms_at = [&](float threshold) {
    clf.set_threshold(threshold);
    int alarms = 0;
    for (const auto& row : test.x) alarms += clf.predict(row);
    return alarms;
  };
  EXPECT_GE(alarms_at(-5.0f), alarms_at(0.0f));
  EXPECT_GE(alarms_at(0.0f), alarms_at(5.0f));
}

TEST(Threshold, DefaultIsZero) {
  LinearSvm clf;
  EXPECT_FLOAT_EQ(clf.threshold(), 0.0f);
}

// ------------------------------------------------------------ per-model ---

TEST(LinearSvm, ExposesWeights) {
  LinearSvm clf;
  const Problem train = blobs(50, 7);
  clf.fit(train.x, train.y);
  EXPECT_EQ(clf.weights().size(), 2u);
  // Both features point towards the positive blob.
  EXPECT_GT(clf.weights()[0], 0.0f);
  EXPECT_GT(clf.weights()[1], 0.0f);
}

TEST(KernelSvm, KeepsSubsetAsSupportVectors) {
  KernelSvm clf;
  const Problem train = blobs(60, 8);
  clf.fit(train.x, train.y);
  EXPECT_GT(clf.support_vector_count(), 0u);
  EXPECT_LT(clf.support_vector_count(), train.x.size());
}

TEST(AdaBoost, BuildsRequestedRounds) {
  AdaBoostConfig cfg;
  cfg.rounds = 10;
  AdaBoost clf(cfg);
  const Problem train = xor_data(30, 9);
  clf.fit(train.x, train.y);
  EXPECT_LE(clf.stumps().size(), 10u);
  EXPECT_GE(clf.stumps().size(), 2u);
  for (const auto& s : clf.stumps()) EXPECT_GT(s.weight, 0.0f);
}

TEST(DecisionTree, RespectsMaxDepth) {
  DecisionTreeConfig cfg;
  cfg.max_depth = 2;
  DecisionTree clf(cfg);
  const Problem train = xor_data(30, 10);
  clf.fit(train.x, train.y);
  EXPECT_LE(clf.depth(), 2);
}

TEST(DecisionTree, PureDataGivesLeafOnly) {
  DecisionTree clf;
  Matrix x = {{1.0f}, {2.0f}, {3.0f}};
  std::vector<float> y = {1.0f, 1.0f, 1.0f};
  clf.fit(x, y);
  EXPECT_EQ(clf.node_count(), 1);
  EXPECT_GT(clf.score({9.0f}), 0.0f);
}

TEST(DecisionTree, WeightedFitRespectsWeights) {
  DecisionTree clf;
  // Same point labeled both ways; weights decide the leaf.
  Matrix x = {{0.0f}, {0.0f}};
  std::vector<float> y = {1.0f, -1.0f};
  clf.fit_weighted(x, y, {10.0, 1.0});
  EXPECT_GT(clf.score({0.0f}), 0.0f);
  clf.fit_weighted(x, y, {1.0, 10.0});
  EXPECT_LT(clf.score({0.0f}), 0.0f);
}

TEST(RandomForest, UsesConfiguredTreeCount) {
  RandomForestConfig cfg;
  cfg.trees = 7;
  RandomForest clf(cfg);
  const Problem train = blobs(30, 11);
  clf.fit(train.x, train.y);
  EXPECT_EQ(clf.tree_count(), 7u);
}

TEST(LogisticRegression, ProbabilityInUnitInterval) {
  LogisticRegression clf;
  const Problem train = blobs(40, 12);
  clf.fit(train.x, train.y);
  for (const auto& row : train.x) {
    const float p = clf.probability(row);
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
  EXPECT_GT(clf.probability({2.0f, 2.0f}), 0.9f);
  EXPECT_LT(clf.probability({-2.0f, -2.0f}), 0.1f);
}

TEST(NaiveBayes, RequiresBothClasses) {
  GaussianNaiveBayes clf;
  Matrix x = {{1.0f}, {2.0f}};
  std::vector<float> y = {1.0f, 1.0f};
  EXPECT_THROW(clf.fit(x, y), Error);
}

// --------------------------------------------------------- pattern match --

TEST(PatternMatch, ExactMatchOnSeenHotspot) {
  PatternMatcher clf;
  Matrix x = {{0.1f, 0.9f}, {0.9f, 0.1f}};
  std::vector<float> y = {1.0f, -1.0f};
  clf.fit(x, y);
  EXPECT_TRUE(clf.predict({0.1f, 0.9f}));   // stored hotspot
  EXPECT_FALSE(clf.predict({0.9f, 0.1f}));  // non-hotspot never stored
  EXPECT_EQ(clf.library_size(), 0u);        // exact mode keeps hashes only
}

TEST(PatternMatch, MissesUnseenPattern) {
  PatternMatcher clf;  // exact-only
  Matrix x = {{0.1f, 0.9f}};
  std::vector<float> y = {1.0f};
  clf.fit(x, y);
  EXPECT_FALSE(clf.predict({0.5f, 0.5f}));
}

TEST(PatternMatch, FuzzyMatchWithinRadius) {
  PatternMatchConfig cfg;
  cfg.match_radius = 0.2;
  PatternMatcher clf(cfg);
  Matrix x = {{0.5f, 0.5f}};
  std::vector<float> y = {1.0f};
  clf.fit(x, y);
  EXPECT_TRUE(clf.predict({0.55f, 0.5f}));   // inside the ball
  EXPECT_FALSE(clf.predict({0.9f, 0.9f}));   // outside
}

TEST(PatternMatch, AutoRadiusCalibrates) {
  PatternMatchConfig cfg;
  cfg.auto_radius = true;
  PatternMatcher clf(cfg);
  Rng rng(13);
  Matrix x;
  std::vector<float> y;
  for (int i = 0; i < 20; ++i) {
    x.push_back({static_cast<float>(rng.next_double()),
                 static_cast<float>(rng.next_double())});
    y.push_back(i % 2 == 0 ? 1.0f : -1.0f);
  }
  clf.fit(x, y);
  EXPECT_EQ(clf.library_size(), 10u);
  // A stored hotspot matches itself through the fuzzy path as well.
  EXPECT_TRUE(clf.predict(x[0]));
}


}  // namespace
}  // namespace lhd::ml
