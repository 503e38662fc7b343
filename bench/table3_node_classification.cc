// Regenerates Table III: node-classification accuracy (mean ± std over
// random splits) for the baseline family and the four GraphRARE-enhanced
// models, plus the per-backbone improvement rows.
//
// Shape expectations vs the paper: every X-RARE model beats its backbone X
// on the heterophilic datasets; gains shrink but stay non-negative on
// homophilic Cora/Pubmed; the RARE family is competitive with the rewiring
// SOTA (UGCN*, SimP-GCN*).

#include <map>

#include "bench/bench_util.h"

namespace graphrare {
namespace bench {
namespace {

const char* kDatasets[] = {"chameleon", "squirrel", "cornell", "texas",
                           "wisconsin", "cora", "pubmed"};

struct Row {
  std::string name;
  std::map<std::string, core::RunStats> cells;
  double average = 0.0;
};

Row MakeRow(const std::string& name) {
  Row r;
  r.name = name;
  return r;
}

void FinishRow(Row* row) {
  double sum = 0.0;
  for (const char* ds : kDatasets) sum += row->cells[ds].mean;
  row->average = sum / 7.0;
}

void PrintTable(const std::vector<Row>& rows) {
  std::vector<std::string> header = {"Method"};
  PrintRow("Method",
           {"Chameleon", "Squirrel", "Cornell", "Texas", "Wisconsin", "Cora",
            "Pubmed", "Average"},
           22, 13);
  std::printf("%s\n", std::string(22 + 8 * 13, '-').c_str());
  for (const auto& row : rows) {
    std::vector<std::string> cells;
    for (const char* ds : kDatasets) {
      cells.push_back(AccCell(row.cells.at(ds)));
    }
    cells.push_back(StrFormat("%5.2f", 100.0 * row.average));
    PrintRow(row.name, cells, 22, 13);
  }
}

void Run() {
  PrintBanner("Table III: node classification accuracy",
              "Sec. V-D, Table III");

  const nn::BackboneKind baseline_kinds[] = {
      nn::BackboneKind::kMlp,    nn::BackboneKind::kGcn,
      nn::BackboneKind::kSage,   nn::BackboneKind::kGat,
      nn::BackboneKind::kMixHop, nn::BackboneKind::kH2Gcn};
  const char* baseline_names[] = {"MLP",    "GCN", "GraphSAGE",
                                  "GAT",    "MixHop", "H2GCN"};
  const nn::BackboneKind rare_kinds[] = {
      nn::BackboneKind::kGcn, nn::BackboneKind::kSage, nn::BackboneKind::kGat,
      nn::BackboneKind::kH2Gcn};
  const char* rare_names[] = {"GCN-RARE", "GraphSAGE-RARE", "GAT-RARE",
                              "H2GCN-RARE"};

  std::vector<Row> rows;
  for (const char* n : baseline_names) rows.push_back(MakeRow(n));
  rows.push_back(MakeRow("UGCN*"));
  rows.push_back(MakeRow("SimP-GCN*"));
  for (const char* n : rare_names) rows.push_back(MakeRow(n));

  std::map<std::string, std::map<std::string, double>> backbone_means;

  for (const char* ds_name : kDatasets) {
    std::fprintf(stderr, "[table3] dataset %s...\n", ds_name);
    const data::Dataset ds = LoadBenchDataset(ds_name);
    const auto splits = BenchSplits(ds);
    const core::ExperimentOptions exp_opts = BenchBaselineOptions();

    // Backbone baselines.
    for (size_t i = 0; i < 6; ++i) {
      const auto agg = core::RunBackbone(ds, splits, baseline_kinds[i],
                                         exp_opts);
      rows[i].cells[ds_name] = agg.accuracy;
      backbone_means[baseline_names[i]][ds_name] = agg.accuracy.mean;
    }

    // UGCN*: GCN on the feature-kNN union graph.
    core::KnnGraphOptions knn_opts;
    knn_opts.k = 5;
    const graph::Graph ugcn_graph = core::BuildUgcnStarGraph(ds, knn_opts);
    rows[6].cells[ds_name] =
        core::RunBackbone(ds, splits, nn::BackboneKind::kGcn, exp_opts,
                          &ugcn_graph)
            .accuracy;

    // SimP-GCN*: learned blend of adjacency and kNN operator.
    const graph::Graph knn_graph = core::BuildKnnGraph(ds.features, knn_opts);
    auto knn_op = knn_graph.NormalizedAdjacency();
    rows[7].cells[ds_name] =
        core::RunCustomModel(
            ds, splits,
            [&](uint64_t seed) {
              nn::ModelOptions mo;
              mo.in_features = ds.num_features();
              mo.hidden = exp_opts.hidden;
              mo.num_classes = ds.num_classes;
              mo.seed = seed;
              return std::make_unique<core::SimpGcnStarModel>(mo, knn_op);
            },
            exp_opts)
            .accuracy;

    // GraphRARE-enhanced models.
    for (size_t i = 0; i < 4; ++i) {
      core::GraphRareOptions rare = BenchRareOptions(rare_kinds[i]);
      const auto agg = core::RunGraphRare(ds, splits, rare);
      rows[8 + i].cells[ds_name] = agg.accuracy;
    }
  }
  for (auto& row : rows) FinishRow(&row);
  PrintTable(rows);

  // Improvement rows (paper's up-arrows).
  std::printf("\nImprovement of X-RARE over backbone X (percentage points):\n");
  const char* backbone_of_rare[] = {"GCN", "GraphSAGE", "GAT", "H2GCN"};
  for (size_t i = 0; i < 4; ++i) {
    std::vector<std::string> cells;
    for (const char* ds : kDatasets) {
      const double delta = 100.0 * (rows[8 + i].cells[ds].mean -
                                    backbone_means[backbone_of_rare[i]][ds]);
      cells.push_back(StrFormat("%+5.2f", delta));
    }
    PrintRow(rows[8 + i].name, cells, 22, 13);
  }
}

}  // namespace
}  // namespace bench
}  // namespace graphrare

int main() {
  graphrare::SetLogLevel(graphrare::LogLevel::kWarning);
  graphrare::bench::Run();
  return 0;
}
