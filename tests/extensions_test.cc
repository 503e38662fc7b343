// Tests for the extension components: dataset I/O, the full-graph topology
// env (BlockTopologyEnv over the identity block), telemetry
// CSV, SGC/APPNP backbones, and the GraphRARE framework over the new
// backbones.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "data/io.h"
#include "core/graphrare.h"
#include "core/telemetry.h"
#include "test_support.h"

namespace graphrare {
namespace {

using testing_ref::AllClose;
using testing_ref::HasNonFinite;

data::Dataset Small(uint64_t seed = 51) {
  data::GeneratorOptions o;
  o.num_nodes = 80;
  o.num_edges = 200;
  o.num_features = 40;
  o.num_classes = 4;
  o.homophily = 0.2;
  o.feature_signal = 9.0;
  o.feature_density = 0.1;
  o.seed = seed;
  return std::move(data::GenerateDataset(o)).value();
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// ---- Dataset I/O -----------------------------------------------------------

TEST(DatasetIoTest, RoundTrip) {
  data::Dataset ds = Small();
  const std::string path = TempPath("ds_roundtrip.txt");
  ASSERT_TRUE(data::SaveDataset(ds, path).ok());
  auto loaded = data::LoadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, ds.name);
  EXPECT_EQ(loaded->num_classes, ds.num_classes);
  EXPECT_EQ(loaded->labels, ds.labels);
  EXPECT_EQ(loaded->graph.edges(), ds.graph.edges());
  EXPECT_TRUE(AllClose(loaded->features, ds.features, 0.0f, 0.0f));
  std::remove(path.c_str());
}

TEST(DatasetIoTest, RejectsNonBinaryFeatures) {
  data::Dataset ds = Small();
  ds.features.at(0, 0) = 0.5f;
  EXPECT_FALSE(data::SaveDataset(ds, TempPath("bad.txt")).ok());
}

TEST(DatasetIoTest, MissingFile) {
  EXPECT_EQ(data::LoadDataset(TempPath("missing.txt")).status().code(),
            StatusCode::kNotFound);
}

TEST(DatasetIoTest, CorruptHeader) {
  const std::string path = TempPath("corrupt.txt");
  std::ofstream(path) << "something else\n";
  EXPECT_EQ(data::LoadDataset(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// The loader reports the 1-based line of the first malformed token, so a
// truncated or hand-edited file points straight at the problem.
TEST(DatasetIoTest, TruncatedLabelsReportsLineNumber) {
  const std::string path = TempPath("ds_short_labels.txt");
  std::ofstream(path) << "# graphrare-dataset v1\n"
                      << "name tiny\n"
                      << "nodes 4 edges 1 features 2 classes 2\n"
                      << "labels\n"
                      << "0 1 0\n";  // promises 4 labels, line 5 has 3
  const Status s = data::LoadDataset(path).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("line 5"), std::string::npos) << s.ToString();
  std::remove(path.c_str());
}

TEST(DatasetIoTest, OutOfRangeLabelReportsLineNumber) {
  const std::string path = TempPath("ds_bad_label.txt");
  std::ofstream(path) << "# graphrare-dataset v1\n"
                      << "name tiny\n"
                      << "nodes 2 edges 0 features 2 classes 2\n"
                      << "labels\n"
                      << "0 9\n";  // 9 >= num_classes
  const Status s = data::LoadDataset(path).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("line 5"), std::string::npos) << s.ToString();
  std::remove(path.c_str());
}

TEST(DatasetIoTest, TruncatedEdgeSectionReportsLastLine) {
  const std::string path = TempPath("ds_short_edges.txt");
  std::ofstream(path) << "# graphrare-dataset v1\n"
                      << "name tiny\n"
                      << "nodes 3 edges 2 features 2 classes 2\n"
                      << "labels\n"
                      << "0 1 0\n"
                      << "edges\n"
                      << "0 1\n";  // promises 2 edges, file ends
  const Status s = data::LoadDataset(path).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("line 7"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("found 1"), std::string::npos) << s.ToString();
  std::remove(path.c_str());
}

TEST(DatasetIoTest, MalformedFeatureEntryReportsLineNumber) {
  const std::string path = TempPath("ds_bad_feature.txt");
  std::ofstream(path) << "# graphrare-dataset v1\n"
                      << "name tiny\n"
                      << "nodes 2 edges 1 features 2 classes 2\n"
                      << "labels\n"
                      << "0 1\n"
                      << "edges\n"
                      << "0 1\n"
                      << "features\n"
                      << "0 7\n"  // dim 7 >= 2, line 9
                      << "end\n";
  const Status s = data::LoadDataset(path).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("line 9"), std::string::npos) << s.ToString();
  std::remove(path.c_str());
}

TEST(DatasetIoTest, MissingEndMarkerRejected) {
  const std::string path = TempPath("ds_no_end.txt");
  std::ofstream(path) << "# graphrare-dataset v1\n"
                      << "name tiny\n"
                      << "nodes 2 edges 1 features 2 classes 2\n"
                      << "labels\n"
                      << "0 1\n"
                      << "edges\n"
                      << "0 1\n"
                      << "features\n"
                      << "0 1\n";  // no "end"
  const Status s = data::LoadDataset(path).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("end"), std::string::npos) << s.ToString();
  std::remove(path.c_str());
}

TEST(DatasetIoTest, HomophilyPreservedThroughRoundTrip) {
  data::Dataset ds = Small(52);
  const std::string path = TempPath("ds_h.txt");
  ASSERT_TRUE(data::SaveDataset(ds, path).ok());
  auto loaded = data::LoadDataset(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->Homophily(), ds.Homophily());
  std::remove(path.c_str());
}

// ---- Full-graph topology env ------------------------------------------------

/// The full-graph episodic MDP: BlockTopologyEnv over the identity block,
/// finetuning through a MiniBatchTrainer. Members are declared in
/// construction order; the env holds pointers to the dataset and trainer.
struct FullGraphEnv {
  FullGraphEnv(uint64_t data_seed, int64_t hidden, uint64_t model_seed,
               const core::TopologyEnvOptions& options)
      : ds(Small(data_seed)) {
    data::SplitOptions so;
    so.num_splits = 1;
    split = data::MakeSplits(ds.labels, ds.num_classes, so)[0];
    nn::ModelOptions mo;
    mo.in_features = ds.num_features();
    mo.hidden = hidden;
    mo.num_classes = ds.num_classes;
    mo.seed = model_seed;
    model = nn::MakeModel(nn::BackboneKind::kGcn, mo);
    trainer = std::make_unique<nn::MiniBatchTrainer>(
        model.get(), ds.FeaturesCsr(), &ds.labels,
        nn::MiniBatchTrainer::Options{});
    const graph::Subgraph block = graph::FullSubgraph(ds.graph, split.train);
    const auto index = std::move(
        *entropy::RelativeEntropyIndex::Build(ds.graph, ds.features, {}));
    env = std::make_unique<core::BlockTopologyEnv>(
        &ds, block, split.train, trainer.get(), index.Restrict(block),
        options);
  }

  data::Dataset ds;
  data::Split split;
  std::unique_ptr<nn::NodeClassifier> model;
  std::unique_ptr<nn::MiniBatchTrainer> trainer;
  std::unique_ptr<core::BlockTopologyEnv> env;
};

TEST(FullGraphEnvTest, ResetReturnsObservation) {
  FullGraphEnv f(53, 16, 3, {});
  tensor::Tensor obs = f.env->Reset();
  EXPECT_EQ(obs.rows(), f.ds.num_nodes());
  EXPECT_EQ(obs.cols(), core::kObservationDim);
  EXPECT_EQ(f.env->obs_dim(), core::kObservationDim);
  EXPECT_EQ(f.env->num_components(), f.ds.num_nodes());
}

TEST(FullGraphEnvTest, AgentLoopRunsAndRewiresGraph) {
  core::TopologyEnvOptions eopts;
  eopts.gnn_epochs_per_step = 1;
  FullGraphEnv f(54, 16, 4, eopts);

  rl::PpoOptions popts;
  popts.steps_per_update = 4;
  rl::PpoAgent agent(f.env->obs_dim(), popts);
  const auto rewards = rl::RunAgentOnBatchedEnvs(&agent, {f.env.get()}, 10);
  EXPECT_EQ(rewards.size(), 10u);
  EXPECT_GE(
      f.trainer->Evaluate(f.env->current_graph(), f.split.val).accuracy,
      0.0);
  // After 10 steps of random-ish +-1 actions some edits are very likely.
  EXPECT_EQ(f.env->current_graph().num_nodes(), f.ds.num_nodes());
}

TEST(FullGraphEnvDeathTest, StepBeforeResetAborts) {
  FullGraphEnv f(55, 8, 5, {});
  rl::ActionSample a;
  a.delta_k.assign(static_cast<size_t>(f.ds.num_nodes()), 0);
  a.delta_d.assign(static_cast<size_t>(f.ds.num_nodes()), 0);
  tensor::Tensor obs;
  EXPECT_DEATH(f.env->Step(a, &obs), "Reset");
}

// ---- Telemetry --------------------------------------------------------------

TEST(TelemetryTest, CsvContainsAllIterations) {
  core::GraphRareResult r;
  r.train_acc_history = {0.5, 0.6, 0.7};
  r.val_acc_history = {0.4, 0.5, 0.55};
  r.homophily_history = {0.2, 0.3, 0.35};
  r.reward_history = {0.0, 0.1, -0.05};
  const std::string csv = core::TelemetryCsvString(r);
  EXPECT_NE(csv.find("iteration,train_accuracy"), std::string::npos);
  // Header + 3 rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
  EXPECT_NE(csv.find("2,0.7,0.55,0.35,-0.05"), std::string::npos);
}

TEST(TelemetryTest, WriteAndReadBack) {
  core::GraphRareResult r;
  r.train_acc_history = {1.0};
  r.val_acc_history = {0.9};
  r.homophily_history = {0.5};
  r.reward_history = {0.25};
  const std::string path = TempPath("telemetry.csv");
  ASSERT_TRUE(core::WriteTelemetryCsv(r, path).ok());
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(row, "0,1,0.9,0.5,0.25");
  std::remove(path.c_str());
}

// ---- New backbones ------------------------------------------------------------

TEST(NewBackboneTest, SgcAndAppnpProduceLogits) {
  data::Dataset ds = Small(56);
  for (nn::BackboneKind kind : {nn::BackboneKind::kSgc,
                                nn::BackboneKind::kAppnp}) {
    nn::ModelOptions mo;
    mo.in_features = ds.num_features();
    mo.hidden = 16;
    mo.num_classes = ds.num_classes;
    mo.seed = 6;
    auto model = nn::MakeModel(kind, mo);
    EXPECT_EQ(model->kind(), kind);
    nn::ModelInputs in;
    in.graph = &ds.graph;
    in.features = nn::LayerInput::Sparse(ds.FeaturesCsr());
    tensor::Tensor logits = model->Logits(in, false, nullptr).value();
    EXPECT_EQ(logits.rows(), ds.num_nodes());
    EXPECT_EQ(logits.cols(), ds.num_classes);
    EXPECT_FALSE(HasNonFinite(logits));
  }
}

TEST(NewBackboneTest, NamesRoundTrip) {
  EXPECT_EQ(*nn::BackboneFromName("sgc"), nn::BackboneKind::kSgc);
  EXPECT_EQ(*nn::BackboneFromName("appnp"), nn::BackboneKind::kAppnp);
  EXPECT_STREQ(nn::BackboneName(nn::BackboneKind::kSgc), "sgc");
  EXPECT_STREQ(nn::BackboneName(nn::BackboneKind::kAppnp), "appnp");
}

TEST(NewBackboneTest, SgcLearnsOnHomophilicGraph) {
  data::GeneratorOptions o;
  o.num_nodes = 120;
  o.num_edges = 360;
  o.num_features = 48;
  o.num_classes = 3;
  o.homophily = 0.85;
  o.feature_signal = 6.0;
  o.feature_density = 0.1;
  o.seed = 57;
  data::Dataset ds = std::move(data::GenerateDataset(o)).value();
  data::SplitOptions so;
  so.num_splits = 1;
  auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);
  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 16;
  mo.num_classes = ds.num_classes;
  mo.seed = 7;
  auto model = nn::MakeModel(nn::BackboneKind::kSgc, mo);
  nn::ClassifierTrainer::Options to;
  to.adam.lr = 0.05f;
  nn::ClassifierTrainer trainer(model.get(),
                                nn::LayerInput::Sparse(ds.FeaturesCsr()),
                                &ds.labels, to);
  trainer.Fit(ds.graph, splits[0].train, splits[0].val, 60, 20);
  EXPECT_GT(trainer.Evaluate(ds.graph, splits[0].test).accuracy, 0.5);
}

TEST(NewBackboneTest, AppnpValidationCatchesBadAlpha) {
  nn::ModelOptions mo;
  mo.in_features = 4;
  mo.num_classes = 2;
  mo.appnp_alpha = 0.0f;
  EXPECT_FALSE(mo.Validate().ok());
  mo.appnp_alpha = 0.1f;
  mo.appnp_iterations = 0;
  EXPECT_FALSE(mo.Validate().ok());
}

TEST(NewBackboneTest, GraphRareWrapsSgc) {
  data::Dataset ds = Small(58);
  data::SplitOptions so;
  so.num_splits = 1;
  auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);
  core::GraphRareOptions opts;
  opts.backbone = nn::BackboneKind::kSgc;
  opts.hidden = 16;
  opts.iterations = 4;
  opts.pretrain_epochs = 15;
  opts.seed = 21;
  core::GraphRareTrainer trainer(&ds, opts);
  const core::GraphRareResult r = trainer.Run(splits[0]);
  EXPECT_GT(r.test_accuracy, 0.2);
}

}  // namespace
}  // namespace graphrare
