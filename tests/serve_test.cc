// Serving-pipeline tests: state-dict round trips, artifact save/load,
// InferenceEngine correctness, and the end-to-end train -> artifact ->
// serve contract (training-time logits reproduced bitwise in a fresh
// engine, for both co-training paths).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "core/graphrare.h"

namespace graphrare {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

const nn::BackboneKind kAllBackbones[] = {
    nn::BackboneKind::kMlp,  nn::BackboneKind::kGcn,
    nn::BackboneKind::kSage, nn::BackboneKind::kGat,
    nn::BackboneKind::kMixHop, nn::BackboneKind::kH2Gcn,
    nn::BackboneKind::kSgc,  nn::BackboneKind::kAppnp,
};

/// Bitwise float equality over whole tensors (AllClose is too weak for
/// the serving contract).
void ExpectBitwiseEqual(const tensor::Tensor& a, const tensor::Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.numel()) * sizeof(float)));
}

data::Dataset SmallDataset(uint64_t seed = 3) {
  auto ds = data::MakeDatasetScaled("cornell", /*shrink=*/1, seed);
  GR_CHECK(ds.ok()) << ds.status().ToString();
  return std::move(ds).value();
}

nn::ModelOptions SmallModelOptions(const data::Dataset& ds, uint64_t seed) {
  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 16;
  mo.num_classes = ds.num_classes;
  mo.seed = seed;
  return mo;
}

tensor::Tensor EvalLogits(const nn::NodeClassifier& model,
                          const data::Dataset& ds, const graph::Graph& g) {
  nn::ModelInputs inputs;
  inputs.graph = &g;
  inputs.features = nn::LayerInput::Sparse(ds.FeaturesCsr());
  return model.Logits(inputs, /*training=*/false, nullptr).value();
}

// ---- Module state dicts ---------------------------------------------------

TEST(StateDictTest, RoundTripReproducesLogitsAllBackbones) {
  const data::Dataset ds = SmallDataset();
  for (const nn::BackboneKind kind : kAllBackbones) {
    SCOPED_TRACE(nn::BackboneName(kind));
    auto trained = nn::MakeModel(kind, SmallModelOptions(ds, 1));
    // Differently-initialised target: the load must overwrite everything.
    auto fresh = nn::MakeModel(kind, SmallModelOptions(ds, 99));
    ASSERT_TRUE(fresh->LoadStateDict(trained->StateDict()).ok());
    ExpectBitwiseEqual(EvalLogits(*trained, ds, ds.graph),
                       EvalLogits(*fresh, ds, ds.graph));
  }
}

TEST(StateDictTest, NamesFollowModuleTree) {
  const data::Dataset ds = SmallDataset();
  auto model = nn::MakeModel(nn::BackboneKind::kGcn,
                             SmallModelOptions(ds, 1));
  const nn::StateDict dict = model->StateDict();
  ASSERT_FALSE(dict.empty());
  // Two GCNConv children, each holding a Linear: conv<i>.linear.{weight,bias}.
  EXPECT_EQ(dict[0].first, "conv0.linear.weight");
  for (const auto& [name, value] : dict) {
    EXPECT_NE(name.find('.'), std::string::npos) << name;
    EXPECT_GT(value.numel(), 0) << name;
  }
}

TEST(StateDictTest, LoadRejectsCountMismatch) {
  const data::Dataset ds = SmallDataset();
  auto model = nn::MakeModel(nn::BackboneKind::kGcn,
                             SmallModelOptions(ds, 1));
  nn::StateDict dict = model->StateDict();
  dict.pop_back();
  EXPECT_FALSE(model->LoadStateDict(dict).ok());
}

TEST(StateDictTest, LoadRejectsUnknownName) {
  const data::Dataset ds = SmallDataset();
  auto model = nn::MakeModel(nn::BackboneKind::kGcn,
                             SmallModelOptions(ds, 1));
  nn::StateDict dict = model->StateDict();
  dict.back().first = "no.such.parameter";
  const Status s = model->LoadStateDict(dict);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("no.such.parameter"), std::string::npos);
}

TEST(StateDictTest, LoadRejectsShapeMismatchWithoutPartialWrite) {
  const data::Dataset ds = SmallDataset();
  auto model = nn::MakeModel(nn::BackboneKind::kGcn,
                             SmallModelOptions(ds, 1));
  const tensor::Tensor before = EvalLogits(*model, ds, ds.graph);
  nn::StateDict dict = model->StateDict();
  // Corrupt the *last* entry's shape; earlier entries must not be applied.
  for (auto& [name, value] : dict) value.Fill(123.0f);
  dict.back().second = tensor::Tensor(1, 1);
  EXPECT_FALSE(model->LoadStateDict(dict).ok());
  ExpectBitwiseEqual(before, EvalLogits(*model, ds, ds.graph));
}

TEST(StateDictTest, LoadIsOrderInsensitive) {
  const data::Dataset ds = SmallDataset();
  auto a = nn::MakeModel(nn::BackboneKind::kSage, SmallModelOptions(ds, 1));
  auto b = nn::MakeModel(nn::BackboneKind::kSage, SmallModelOptions(ds, 7));
  nn::StateDict dict = a->StateDict();
  std::reverse(dict.begin(), dict.end());
  ASSERT_TRUE(b->LoadStateDict(dict).ok());
  ExpectBitwiseEqual(EvalLogits(*a, ds, ds.graph),
                     EvalLogits(*b, ds, ds.graph));
}

// ---- Artifact save/load ---------------------------------------------------

serve::ModelArtifact MakeArtifact(const data::Dataset& ds,
                                  nn::BackboneKind kind, uint64_t seed) {
  const nn::ModelOptions mo = SmallModelOptions(ds, seed);
  auto model = nn::MakeModel(kind, mo);
  auto artifact_or =
      core::PackageArtifact(*model, kind, mo, seed, ds.graph, ds);
  GR_CHECK(artifact_or.ok()) << artifact_or.status().ToString();
  return std::move(artifact_or).value();
}

TEST(ArtifactTest, SaveLoadRoundTripIsBitwiseAllBackbones) {
  const data::Dataset ds = SmallDataset();
  for (const nn::BackboneKind kind : kAllBackbones) {
    SCOPED_TRACE(nn::BackboneName(kind));
    const serve::ModelArtifact original = MakeArtifact(ds, kind, 11);
    const std::string path = TempPath("roundtrip.grare");
    ASSERT_TRUE(original.Save(path).ok());
    auto loaded_or = serve::ModelArtifact::Load(path);
    ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
    const serve::ModelArtifact& loaded = *loaded_or;

    EXPECT_EQ(loaded.backbone, kind);
    EXPECT_EQ(loaded.dataset_name, ds.name);
    EXPECT_EQ(loaded.seed, 11u);
    EXPECT_EQ(loaded.labels, ds.labels);
    EXPECT_EQ(loaded.graph.edges(), ds.graph.edges());
    ASSERT_EQ(loaded.weights.size(), original.weights.size());
    for (size_t i = 0; i < loaded.weights.size(); ++i) {
      EXPECT_EQ(loaded.weights[i].first, original.weights[i].first);
      ExpectBitwiseEqual(loaded.weights[i].second,
                         original.weights[i].second);
    }
    EXPECT_EQ(loaded.features->row_ptr(), ds.FeaturesCsr()->row_ptr());
    EXPECT_EQ(loaded.features->col_idx(), ds.FeaturesCsr()->col_idx());
    EXPECT_EQ(loaded.features->values(), ds.FeaturesCsr()->values());

    // The reloaded model must produce identical logits on every node.
    auto original_model = original.MakeModel();
    auto loaded_model = loaded.MakeModel();
    ASSERT_TRUE(loaded_model.ok()) << loaded_model.status().ToString();
    ExpectBitwiseEqual(EvalLogits(**original_model, ds, ds.graph),
                       EvalLogits(**loaded_model, ds, loaded.graph));
    std::remove(path.c_str());
  }
}

TEST(ArtifactTest, LoadMissingFileIsNotFound) {
  auto r = serve::ModelArtifact::Load(TempPath("no-such.grare"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ArtifactTest, LoadRejectsBadMagic) {
  const std::string path = TempPath("badmagic.grare");
  std::ofstream(path, std::ios::binary) << "definitely not an artifact";
  auto r = serve::ModelArtifact::Load(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ArtifactTest, LoadRejectsTruncatedFile) {
  const data::Dataset ds = SmallDataset();
  const serve::ModelArtifact artifact =
      MakeArtifact(ds, nn::BackboneKind::kGcn, 5);
  const std::string path = TempPath("truncated.grare");
  ASSERT_TRUE(artifact.Save(path).ok());
  // Drop the trailing 25% of the file (cuts into weights + end marker).
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() * 3 / 4);
  auto r = serve::ModelArtifact::Load(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ArtifactTest, LoadRejectsWrongSchemaVersion) {
  const data::Dataset ds = SmallDataset();
  const serve::ModelArtifact artifact =
      MakeArtifact(ds, nn::BackboneKind::kGcn, 5);
  const std::string path = TempPath("badversion.grare");
  ASSERT_TRUE(artifact.Save(path).ok());
  // The u32 version sits right after the 8-byte magic.
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8);
  const uint32_t bogus = serve::kArtifactSchemaVersion + 40;
  f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  f.close();
  auto r = serve::ModelArtifact::Load(path);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("schema"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ArtifactTest, LoadRejectsHugeHeaderCountsWithoutAllocating) {
  // A tiny file whose header claims an enormous graph must fail with a
  // Status (counts are bounded by the file's own size before any
  // allocation), not OOM or overflow.
  const std::string path = TempPath("huge.grare");
  std::string bytes;
  auto put = [&bytes](const void* p, size_t n) {
    bytes.append(static_cast<const char*>(p), n);
  };
  auto put_u32 = [&](uint32_t v) { put(&v, sizeof(v)); };
  auto put_u64 = [&](uint64_t v) { put(&v, sizeof(v)); };
  auto put_i64 = [&](int64_t v) { put(&v, sizeof(v)); };
  auto put_f32 = [&](float v) { put(&v, sizeof(v)); };
  bytes.append("GRAREART", 8);
  put_u32(serve::kArtifactSchemaVersion);
  put_u32(0);                      // backbone kind
  put_i64(1), put_i64(1), put_i64(2);  // in_features, hidden, classes
  put_u32(1), put_f32(0.0f), put_u32(1);  // layers, dropout, gat_heads
  put_f32(0.1f), put_u32(1), put_u64(1);  // appnp alpha/iters, model seed
  put_u64(1);                      // run seed
  put_u64(0);                      // empty dataset name
  put_u32(Crc32::Update(0, bytes.data(), bytes.size()));  // valid meta checksum
  put_i64(1LL << 60);              // num_nodes: absurd
  put_i64(1LL << 60);              // num_edges: absurd
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  auto r = serve::ModelArtifact::Load(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("implausible"), std::string::npos)
      << r.status().ToString();
  std::remove(path.c_str());
}

TEST(ArtifactTest, LoadRejectsNonMonotonicFeatureRowPtr) {
  // A shuffled row_ptr would silently reassign feature entries to the
  // wrong rows; Load must reject it, not serve wrong predictions.
  const data::Dataset ds = SmallDataset();
  const serve::ModelArtifact artifact =
      MakeArtifact(ds, nn::BackboneKind::kGcn, 5);
  const std::string path = TempPath("badcsr.grare");
  ASSERT_TRUE(artifact.Save(path).ok());
  // Locate the features section: it starts right after the graph block
  // (each v2 section carries a trailing u32 CRC) with the i64 pair
  // (frows, fcols) and the u64 row_ptr length.
  const uint64_t header =
      8 + 4 + 4 +                 // magic, version, backbone
      3 * 8 + 4 + 4 + 4 + 4 + 4 + 4 + 8 +  // ModelOptions
      8 +                         // run seed
      8 + artifact.dataset_name.size() +    // name
      4;                          // meta CRC
  const uint64_t graph_block =
      8 + 8 + 16 * static_cast<uint64_t>(artifact.graph.num_edges()) +
      4;                          // graph CRC
  const uint64_t features_start = header + graph_block;
  const uint64_t first_row_ptr_entry = features_start + 8 + 8 + 8;
  const uint64_t frows = static_cast<uint64_t>(artifact.features->rows());
  const uint64_t nnz = artifact.features->col_idx().size();
  const uint64_t features_len = 8 + 8 +                // frows, fcols
                                8 + 8 * (frows + 1) +  // row_ptr
                                8 + 8 * nnz +          // col_idx
                                8 + 4 * nnz;           // values
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // row_ptr[0] = 1 (must be 0) makes the array non-monotonic overall
  // once row_ptr[1] for an empty first row reads 0, and always breaks
  // the front()==0 invariant. Re-stamp the section CRC so the semantic
  // check (not the checksum) is what rejects the file — this guards the
  // buggy-writer case, where the CRC is consistent with the bad bytes.
  const int64_t corrupted = 1;
  std::memcpy(&bytes[first_row_ptr_entry], &corrupted, sizeof(corrupted));
  const uint32_t crc =
      Crc32::Update(0, bytes.data() + features_start, features_len);
  std::memcpy(&bytes[features_start + features_len], &crc, sizeof(crc));
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  auto r = serve::ModelArtifact::Load(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ArtifactTest, ValidateCatchesInconsistentShapes) {
  const data::Dataset ds = SmallDataset();
  serve::ModelArtifact artifact =
      MakeArtifact(ds, nn::BackboneKind::kGcn, 5);
  artifact.graph = graph::Graph::FromEdgeListOrDie(3, {{0, 1}});
  EXPECT_FALSE(artifact.Validate().ok());  // features rows != nodes
}

// ---- InferenceEngine ------------------------------------------------------

TEST(InferenceEngineTest, FullGraphPredictMatchesDirectForward) {
  const data::Dataset ds = SmallDataset();
  const serve::ModelArtifact artifact =
      MakeArtifact(ds, nn::BackboneKind::kGcn, 5);
  auto model = artifact.MakeModel();
  const tensor::Tensor reference = EvalLogits(**model, ds, ds.graph);

  auto engine_or = serve::InferenceEngine::FromArtifact(artifact);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  const serve::InferenceEngine& engine = *engine_or;
  ExpectBitwiseEqual(engine.FullLogits(), reference);

  auto preds = engine.Predict({0, 1, 2, 1});
  ASSERT_TRUE(preds.ok());
  ASSERT_EQ(preds->size(), 4u);
  for (const serve::Prediction& p : *preds) {
    EXPECT_EQ(p.predicted_class, reference.ArgMaxRow(p.node));
    ASSERT_EQ(static_cast<int64_t>(p.probabilities.size()),
              engine.num_classes());
    float sum = 0.0f;
    for (const float prob : p.probabilities) sum += prob;
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  // Duplicate query ids answer identically.
  EXPECT_EQ((*preds)[1].probabilities, (*preds)[3].probabilities);
}

TEST(InferenceEngineTest, RejectsOutOfRangeAndEmptyQueries) {
  const data::Dataset ds = SmallDataset();
  auto engine_or = serve::InferenceEngine::FromArtifact(
      MakeArtifact(ds, nn::BackboneKind::kGcn, 5));
  ASSERT_TRUE(engine_or.ok());
  EXPECT_EQ(engine_or->Predict({ds.num_nodes()}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine_or->Predict({-1}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_FALSE(engine_or->Predict({}).ok());
}

TEST(InferenceEngineTest, TopKIsSortedAndClamped) {
  const data::Dataset ds = SmallDataset();
  auto engine_or = serve::InferenceEngine::FromArtifact(
      MakeArtifact(ds, nn::BackboneKind::kGcn, 5));
  ASSERT_TRUE(engine_or.ok());
  auto preds = engine_or->Predict({0});
  ASSERT_TRUE(preds.ok());
  const auto topk = serve::TopKOf((*preds)[0], 1000);  // clamped
  ASSERT_EQ(static_cast<int64_t>(topk.size()), engine_or->num_classes());
  for (size_t i = 1; i < topk.size(); ++i) {
    EXPECT_GE(topk[i - 1].second, topk[i].second);
  }
  EXPECT_EQ(topk[0].first, (*preds)[0].predicted_class);
  EXPECT_EQ(serve::TopKOf((*preds)[0], 2).size(), 2u);
}

TEST(InferenceEngineTest, UnlimitedFanoutSamplingMatchesFullGraph) {
  const data::Dataset ds = SmallDataset();
  // SAGE with L fanout entries: row-normalised aggregation over the full
  // neighborhood makes the sampled block forward exact (see
  // tests/minibatch_test.cc for the training-side equivalent).
  const serve::ModelArtifact artifact =
      MakeArtifact(ds, nn::BackboneKind::kSage, 5);
  auto full_or = serve::InferenceEngine::FromArtifact(artifact);
  ASSERT_TRUE(full_or.ok());

  serve::EngineOptions sampled_opts;
  sampled_opts.fanouts = {-1, -1};
  auto sampled_or =
      serve::InferenceEngine::FromArtifact(artifact, sampled_opts);
  ASSERT_TRUE(sampled_or.ok());

  const std::vector<int64_t> query = {0, 3, 9, 25};
  auto full = full_or->Predict(query);
  auto sampled = sampled_or->Predict(query);
  ASSERT_TRUE(full.ok() && sampled.ok());
  for (size_t i = 0; i < query.size(); ++i) {
    EXPECT_EQ((*full)[i].predicted_class, (*sampled)[i].predicted_class);
    EXPECT_EQ((*full)[i].probabilities, (*sampled)[i].probabilities);
  }
}

TEST(InferenceEngineTest, SampledInferenceAccuracyWithinTolerance) {
  const data::Dataset ds = SmallDataset();
  // Train the backbone briefly so predictions carry real signal.
  nn::ModelOptions mo = SmallModelOptions(ds, 5);
  auto model = nn::MakeModel(nn::BackboneKind::kSage, mo);
  auto splits = data::MakeSplits(ds.labels, ds.num_classes);
  nn::ClassifierTrainer trainer(
      model.get(), nn::LayerInput::Sparse(ds.FeaturesCsr()), &ds.labels,
      {});
  trainer.Fit(ds.graph, splits[0].train, splits[0].val, 40, 40);
  auto artifact_or = core::PackageArtifact(
      *model, nn::BackboneKind::kSage, mo, 5, ds.graph, ds);
  ASSERT_TRUE(artifact_or.ok());

  auto full_or = serve::InferenceEngine::FromArtifact(*artifact_or);
  serve::EngineOptions sampled_opts;
  sampled_opts.fanouts = {10, 10};
  auto sampled_or =
      serve::InferenceEngine::FromArtifact(*artifact_or, sampled_opts);
  ASSERT_TRUE(full_or.ok() && sampled_or.ok());

  std::vector<int64_t> all_nodes(static_cast<size_t>(ds.num_nodes()));
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    all_nodes[static_cast<size_t>(v)] = v;
  }
  auto full = full_or->Predict(all_nodes);
  auto sampled = sampled_or->Predict(all_nodes);
  ASSERT_TRUE(full.ok() && sampled.ok());
  int64_t full_hits = 0, sampled_hits = 0;
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    const size_t i = static_cast<size_t>(v);
    full_hits += (*full)[i].predicted_class == ds.labels[i];
    sampled_hits += (*sampled)[i].predicted_class == ds.labels[i];
  }
  const double full_acc =
      static_cast<double>(full_hits) / static_cast<double>(ds.num_nodes());
  const double sampled_acc = static_cast<double>(sampled_hits) /
                             static_cast<double>(ds.num_nodes());
  EXPECT_NEAR(sampled_acc, full_acc, 0.15)
      << "sampled " << sampled_acc << " vs full " << full_acc;
}

TEST(InferenceEngineTest, ConcurrentPredictBatchIsDeterministic) {
  const data::Dataset ds = SmallDataset();
  const serve::ModelArtifact artifact =
      MakeArtifact(ds, nn::BackboneKind::kSage, 5);
  serve::EngineOptions opts;
  opts.fanouts = {5, 5};  // finite fanout: sampling streams matter
  auto engine_or = serve::InferenceEngine::FromArtifact(artifact, opts);
  ASSERT_TRUE(engine_or.ok());
  const serve::InferenceEngine& engine = *engine_or;

  std::vector<std::vector<int64_t>> requests;
  for (int64_t r = 0; r < 32; ++r) {
    requests.push_back({r % ds.num_nodes(), (7 * r + 3) % ds.num_nodes()});
  }
  std::vector<uint64_t> seeds(requests.size());
  for (size_t r = 0; r < seeds.size(); ++r) seeds[r] = r;
  // The batch (OpenMP-parallel when compiled in) must agree with itself
  // across runs — scheduling must not leak into the sampling streams.
  auto first = engine.PredictBatchWithSeeds(requests, seeds);
  auto second = engine.PredictBatchWithSeeds(requests, seeds);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->size(), requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    ASSERT_EQ((*first)[r].size(), requests[r].size());
    for (size_t i = 0; i < requests[r].size(); ++i) {
      EXPECT_EQ((*first)[r][i].predicted_class,
                (*second)[r][i].predicted_class);
      EXPECT_EQ((*first)[r][i].probabilities,
                (*second)[r][i].probabilities);
    }
  }
  // A batch error (one bad request) surfaces without answering.
  requests[5] = {ds.num_nodes() + 10};
  EXPECT_FALSE(engine.PredictBatchWithSeeds(requests, seeds).ok());
}

// ---- End-to-end: train -> artifact -> fresh engine ------------------------

TEST(ServingPipelineTest, RunExportsArtifactThatServesBitwise) {
  const data::Dataset ds = SmallDataset();
  auto splits = data::MakeSplits(ds.labels, ds.num_classes);
  core::GraphRareOptions opts;
  opts.backbone = nn::BackboneKind::kGcn;
  opts.iterations = 3;
  opts.pretrain_epochs = 12;
  opts.finetune_epochs = 2;
  opts.seed = 4;
  core::GraphRareTrainer trainer(&ds, opts);
  const core::GraphRareResult result = trainer.Run(splits[0]);
  ASSERT_NE(result.model, nullptr);
  EXPECT_EQ(result.backbone, nn::BackboneKind::kGcn);
  EXPECT_EQ(result.seed, opts.seed);

  // Training-time logits of the selected (model, graph) pair.
  const tensor::Tensor reference =
      EvalLogits(*result.model, ds, result.best_graph);

  auto artifact_or = result.ExportArtifact(ds);
  ASSERT_TRUE(artifact_or.ok()) << artifact_or.status().ToString();
  const std::string path = TempPath("run.grare");
  ASSERT_TRUE(artifact_or->Save(path).ok());

  auto engine_or = serve::InferenceEngine::LoadFrom(path);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  ExpectBitwiseEqual(engine_or->FullLogits(), reference);

  // Test-set predictions served exactly as evaluated during training.
  auto preds = engine_or->Predict(splits[0].test);
  ASSERT_TRUE(preds.ok());
  for (size_t i = 0; i < splits[0].test.size(); ++i) {
    EXPECT_EQ((*preds)[i].predicted_class,
              reference.ArgMaxRow(splits[0].test[i]));
  }
  std::remove(path.c_str());
}

TEST(ServingPipelineTest, BlockCoTrainingExportsArtifactThatServesBitwise) {
  const data::Dataset ds = SmallDataset();
  auto splits = data::MakeSplits(ds.labels, ds.num_classes);
  core::GraphRareOptions opts;
  opts.backbone = nn::BackboneKind::kGcn;
  opts.iterations = 2;
  opts.pretrain_epochs = 6;
  opts.seed = 4;
  core::BlockRolloutOptions rollout;
  rollout.blocks_per_round = 2;
  rollout.seeds_per_block = 16;
  rollout.steps_per_episode = 2;
  const core::GraphRareResult result =
      core::RunBlockCoTraining(ds, splits[0], opts, rollout);
  ASSERT_NE(result.model, nullptr);

  const tensor::Tensor reference =
      EvalLogits(*result.model, ds, result.best_graph);
  auto artifact_or = result.ExportArtifact(ds);
  ASSERT_TRUE(artifact_or.ok()) << artifact_or.status().ToString();
  const std::string path = TempPath("blocks.grare");
  ASSERT_TRUE(artifact_or->Save(path).ok());
  auto engine_or = serve::InferenceEngine::LoadFrom(path);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  ExpectBitwiseEqual(engine_or->FullLogits(), reference);
  std::remove(path.c_str());
}

TEST(ServingPipelineTest, RunGraphRareBlocksRetainsServableModel) {
  const data::Dataset ds = SmallDataset();
  data::SplitOptions so;
  so.num_splits = 1;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);
  core::GraphRareOptions opts;
  opts.backbone = nn::BackboneKind::kSage;
  opts.iterations = 2;
  opts.pretrain_epochs = 4;
  opts.seed = 9;
  core::BlockRolloutOptions rollout;
  rollout.blocks_per_round = 2;
  rollout.seeds_per_block = 16;
  rollout.steps_per_episode = 2;
  const core::GraphRareAggregate agg =
      core::RunGraphRareBlocks(ds, splits, opts, rollout);
  ASSERT_NE(agg.last_run.model, nullptr);
  EXPECT_EQ(agg.last_run.backbone, nn::BackboneKind::kSage);

  const tensor::Tensor reference =
      EvalLogits(*agg.last_run.model, ds, agg.last_run.best_graph);
  auto artifact_or = agg.last_run.ExportArtifact(ds);
  ASSERT_TRUE(artifact_or.ok()) << artifact_or.status().ToString();
  const std::string path = TempPath("agg.grare");
  ASSERT_TRUE(artifact_or->Save(path).ok());
  auto engine_or = serve::InferenceEngine::LoadFrom(path);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  ExpectBitwiseEqual(engine_or->FullLogits(), reference);
  std::remove(path.c_str());
}

TEST(ServingPipelineTest, ExportWithoutModelFails) {
  const data::Dataset ds = SmallDataset();
  const core::GraphRareResult empty;
  EXPECT_EQ(empty.ExportArtifact(ds).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace graphrare
