// Dataset generator and registry tests: planted statistics, feature model,
// split protocol.

#include <gtest/gtest.h>

#include <set>

#include "data/generator.h"
#include "data/registry.h"
#include "data/splits.h"
#include "test_support.h"

namespace graphrare {
namespace data {
namespace {

using testing_ref::AllClose;
using testing_ref::ToDense;

GeneratorOptions BaseOptions() {
  GeneratorOptions o;
  o.num_nodes = 300;
  o.num_edges = 900;
  o.num_features = 120;
  o.num_classes = 5;
  o.homophily = 0.3;
  o.seed = 21;
  return o;
}

TEST(GeneratorTest, MatchesRequestedCounts) {
  Dataset ds = std::move(GenerateDataset(BaseOptions())).value();
  EXPECT_EQ(ds.num_nodes(), 300);
  EXPECT_EQ(ds.graph.num_edges(), 900);
  EXPECT_EQ(ds.num_features(), 120);
  EXPECT_EQ(ds.num_classes, 5);
  EXPECT_EQ(ds.labels.size(), 300u);
}

TEST(GeneratorTest, PlantsHomophilyRatio) {
  for (double h : {0.1, 0.3, 0.5, 0.8}) {
    GeneratorOptions o = BaseOptions();
    o.homophily = h;
    Dataset ds = std::move(GenerateDataset(o)).value();
    EXPECT_NEAR(ds.Homophily(), h, 0.02) << "target H=" << h;
  }
}

TEST(GeneratorTest, LabelsBalanced) {
  Dataset ds = std::move(GenerateDataset(BaseOptions())).value();
  std::vector<int> counts(5, 0);
  for (int64_t y : ds.labels) counts[static_cast<size_t>(y)]++;
  for (int c : counts) EXPECT_EQ(c, 60);
}

TEST(GeneratorTest, FeaturesAreBinary) {
  Dataset ds = std::move(GenerateDataset(BaseOptions())).value();
  for (int64_t i = 0; i < ds.features.numel(); ++i) {
    EXPECT_TRUE(ds.features[i] == 0.0f || ds.features[i] == 1.0f);
  }
}

TEST(GeneratorTest, FeatureDensityApproximatelyMet) {
  GeneratorOptions o = BaseOptions();
  o.feature_density = 0.08;
  Dataset ds = std::move(GenerateDataset(o)).value();
  const double density = ds.features.Sum() / ds.features.numel();
  EXPECT_NEAR(density, 0.08, 0.02);
}

TEST(GeneratorTest, FeatureSignalSeparatesClasses) {
  GeneratorOptions o = BaseOptions();
  o.feature_signal = 12.0;
  Dataset ds = std::move(GenerateDataset(o)).value();
  // Mean topic-block activation should far exceed off-topic activation.
  const int64_t block = o.num_features / o.num_classes;
  double in_topic = 0.0, off_topic = 0.0;
  int64_t in_n = 0, off_n = 0;
  for (int64_t i = 0; i < ds.num_nodes(); ++i) {
    const int64_t cls = ds.labels[static_cast<size_t>(i)];
    for (int64_t j = 0; j < o.num_features; ++j) {
      const bool topical = j >= cls * block && j < (cls + 1) * block;
      if (topical) {
        in_topic += ds.features.at(i, j);
        ++in_n;
      } else {
        off_topic += ds.features.at(i, j);
        ++off_n;
      }
    }
  }
  EXPECT_GT(in_topic / in_n, 4.0 * (off_topic / off_n));
}

TEST(GeneratorTest, DeterministicForSeed) {
  Dataset a = std::move(GenerateDataset(BaseOptions())).value();
  Dataset b = std::move(GenerateDataset(BaseOptions())).value();
  EXPECT_EQ(a.graph.edges(), b.graph.edges());
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_TRUE(AllClose(a.features, b.features));
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  GeneratorOptions o2 = BaseOptions();
  o2.seed = 22;
  Dataset a = std::move(GenerateDataset(BaseOptions())).value();
  Dataset b = std::move(GenerateDataset(o2)).value();
  EXPECT_NE(a.graph.edges(), b.graph.edges());
}

TEST(GeneratorTest, DegreeSkewRaisesMaxDegree) {
  GeneratorOptions flat = BaseOptions();
  flat.degree_power = 0.0;
  GeneratorOptions skewed = BaseOptions();
  skewed.degree_power = 0.8;
  Dataset a = std::move(GenerateDataset(flat)).value();
  Dataset b = std::move(GenerateDataset(skewed)).value();
  EXPECT_GT(b.graph.MaxDegree(), a.graph.MaxDegree());
}

TEST(GeneratorTest, ValidationCatchesBadOptions) {
  GeneratorOptions o = BaseOptions();
  o.homophily = 1.5;
  EXPECT_FALSE(GenerateDataset(o).ok());
  o = BaseOptions();
  o.num_classes = 1;
  EXPECT_FALSE(GenerateDataset(o).ok());
  o = BaseOptions();
  o.num_edges = o.num_nodes * o.num_nodes;  // over simple-graph max
  EXPECT_FALSE(GenerateDataset(o).ok());
  o = BaseOptions();
  o.feature_density = 0.0;
  EXPECT_FALSE(GenerateDataset(o).ok());
}

TEST(GeneratorTest, FeaturesCsrMatchesDense) {
  Dataset ds = std::move(GenerateDataset(BaseOptions())).value();
  auto csr = ds.FeaturesCsr();
  EXPECT_TRUE(AllClose(ToDense(*csr), ds.features));
  // Cached.
  EXPECT_EQ(csr.get(), ds.FeaturesCsr().get());
}

// ---- Registry --------------------------------------------------------------

TEST(RegistryTest, ListsSevenDatasets) {
  const auto names = ListDatasets();
  EXPECT_EQ(names.size(), 7u);
  EXPECT_EQ(names.front(), "chameleon");
  EXPECT_EQ(names.back(), "pubmed");
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  EXPECT_FALSE(GetDatasetSpec("citeseer").ok());
  EXPECT_FALSE(MakeDataset("citeseer").ok());
}

TEST(RegistryTest, SpecMatchesTable2) {
  const DatasetSpec cham = *GetDatasetSpec("chameleon");
  EXPECT_EQ(cham.num_nodes, 2277);
  EXPECT_EQ(cham.num_edges, 36101);
  EXPECT_EQ(cham.num_features, 2325);
  EXPECT_EQ(cham.num_classes, 5);
  EXPECT_NEAR(cham.homophily, 0.23, 1e-9);

  const DatasetSpec pubmed = *GetDatasetSpec("pubmed");
  EXPECT_EQ(pubmed.num_nodes, 19717);
  EXPECT_EQ(pubmed.num_classes, 3);
  EXPECT_NEAR(pubmed.homophily, 0.80, 1e-9);
}

TEST(RegistryTest, SmallDatasetsRealiseSpec) {
  for (const char* name : {"cornell", "texas", "wisconsin"}) {
    const DatasetSpec spec = *GetDatasetSpec(name);
    Dataset ds = *MakeDataset(name, 2);
    EXPECT_EQ(ds.num_nodes(), spec.num_nodes) << name;
    EXPECT_EQ(ds.graph.num_edges(), spec.num_edges) << name;
    EXPECT_EQ(ds.num_features(), spec.num_features) << name;
    EXPECT_NEAR(ds.Homophily(), spec.homophily, 0.05) << name;
  }
}

TEST(RegistryTest, ScaledVariantShrinks) {
  Dataset full = *MakeDataset("cora", 1);
  Dataset half = *MakeDatasetScaled("cora", 2, 1);
  EXPECT_NEAR(static_cast<double>(half.num_nodes()),
              full.num_nodes() / 2.0, 2.0);
  EXPECT_LT(half.graph.num_edges(), full.graph.num_edges());
  // Homophily preserved under scaling.
  EXPECT_NEAR(half.Homophily(), full.Homophily(), 0.05);
}

TEST(RegistryTest, ShrinkValidation) {
  EXPECT_FALSE(MakeDatasetScaled("cora", 0).ok());
}

// ---- Splits ----------------------------------------------------------------

TEST(SplitsTest, PartitionsAreDisjointAndComplete) {
  Dataset ds = std::move(GenerateDataset(BaseOptions())).value();
  SplitOptions so;
  so.num_splits = 3;
  const auto splits = MakeSplits(ds.labels, ds.num_classes, so);
  ASSERT_EQ(splits.size(), 3u);
  for (const Split& s : splits) {
    std::set<int64_t> all;
    all.insert(s.train.begin(), s.train.end());
    all.insert(s.val.begin(), s.val.end());
    all.insert(s.test.begin(), s.test.end());
    EXPECT_EQ(static_cast<int64_t>(all.size()), ds.num_nodes());
    EXPECT_EQ(s.train.size() + s.val.size() + s.test.size(),
              static_cast<size_t>(ds.num_nodes()));
  }
}

TEST(SplitsTest, FractionsApproximatelyHonoured) {
  Dataset ds = std::move(GenerateDataset(BaseOptions())).value();
  const auto splits = MakeSplits(ds.labels, ds.num_classes, {});
  const double n = static_cast<double>(ds.num_nodes());
  EXPECT_NEAR(splits[0].train.size() / n, 0.6, 0.05);
  EXPECT_NEAR(splits[0].val.size() / n, 0.2, 0.05);
  EXPECT_NEAR(splits[0].test.size() / n, 0.2, 0.05);
}

TEST(SplitsTest, EveryClassRepresentedInTrain) {
  Dataset ds = std::move(GenerateDataset(BaseOptions())).value();
  const auto splits = MakeSplits(ds.labels, ds.num_classes, {});
  for (const Split& s : splits) {
    std::set<int64_t> classes;
    for (int64_t i : s.train) classes.insert(ds.labels[static_cast<size_t>(i)]);
    EXPECT_EQ(static_cast<int64_t>(classes.size()), ds.num_classes);
  }
}

TEST(SplitsTest, SplitsDifferAcrossIndices) {
  Dataset ds = std::move(GenerateDataset(BaseOptions())).value();
  SplitOptions so;
  so.num_splits = 2;
  const auto splits = MakeSplits(ds.labels, ds.num_classes, so);
  EXPECT_NE(splits[0].train, splits[1].train);
}

TEST(SplitsTest, DeterministicForSeed) {
  Dataset ds = std::move(GenerateDataset(BaseOptions())).value();
  const auto a = MakeSplits(ds.labels, ds.num_classes, {});
  const auto b = MakeSplits(ds.labels, ds.num_classes, {});
  EXPECT_EQ(a[0].train, b[0].train);
  EXPECT_EQ(a[0].test, b[0].test);
}

TEST(SplitsTest, TinyClassesStillSplit) {
  // 3 members per class: train/val/test each get exactly one.
  std::vector<int64_t> labels = {0, 0, 0, 1, 1, 1};
  const auto splits = MakeSplits(labels, 2, {});
  EXPECT_EQ(splits[0].train.size(), 2u);
  EXPECT_EQ(splits[0].val.size(), 2u);
  EXPECT_EQ(splits[0].test.size(), 2u);
}

}  // namespace
}  // namespace data
}  // namespace graphrare
