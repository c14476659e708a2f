#ifndef XSDF_EVAL_EXPERIMENT_H_
#define XSDF_EVAL_EXPERIMENT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/disambiguator.h"
#include "datasets/generator.h"
#include "eval/gold.h"
#include "eval/metrics.h"
#include "wordnet/semantic_network.h"
#include "xml/labeled_tree.h"

namespace xsdf::eval {

/// One corpus document ready for experiments: generated XML, its
/// labeled tree (built through the full linguistic pipeline), and its
/// resolved gold standard.
struct CorpusDocument {
  datasets::DatasetInfo dataset;
  datasets::GeneratedDocument generated;
  xml::LabeledTree tree;
  GoldMap gold;
  /// The 12-13 sampled target nodes evaluated for this document
  /// (paper protocol: 1000 manually annotated nodes overall), shared
  /// across all compared systems.
  std::vector<xml::NodeId> target_sample;
};

/// Generates the complete 10-family evaluation corpus of Table 3 and
/// prepares every document (tree + resolved gold). The trees intern
/// their labels through `label_space`, which every Disambiguator that
/// reads them must share (ComputeFigure8/9 take it for that).
/// Deterministic.
Result<std::vector<CorpusDocument>> BuildCorpus(
    const wordnet::SemanticNetwork& network, core::LabelSpace* label_space,
    uint64_t seed = 20150323);

/// Per-group features of Table 1: average Amb_Deg and Struct_Deg.
struct GroupFeatureRow {
  int group = 0;
  double avg_ambiguity = 0.0;
  double avg_structure = 0.0;
  int documents = 0;
};
/// `label_space` is the space the corpus was built through (as for
/// Table 2 and Table 3 below).
std::vector<GroupFeatureRow> ComputeTable1(
    const std::vector<CorpusDocument>& corpus, core::LabelSpace* label_space);

/// One Table 2 row: per-dataset Pearson correlation between the
/// simulated rater panel and Amb_Deg under the four weight configs.
struct CorrelationRow {
  int dataset_id = 0;
  int group = 0;
  double all_factors = 0.0;  ///< Test #1: w_P = w_Dep = w_Den = 1
  double polysemy = 0.0;     ///< Test #2: w_P = 1, others 0
  double depth = 0.0;        ///< Test #3: w_Dep = 1, w_P = 0.2, w_Den = 0
  double density = 0.0;      ///< Test #4: w_Den = 1, w_P = 0.2, w_Dep = 0
  int rated_nodes = 0;
};
std::vector<CorrelationRow> ComputeTable2(
    const std::vector<CorpusDocument>& corpus, core::LabelSpace* label_space,
    uint64_t seed = 4242);

/// One Table 3 row: dataset shape characteristics.
struct DatasetStatsRow {
  datasets::DatasetInfo info;
  double avg_nodes = 0.0;
  double avg_polysemy = 0.0;
  int max_polysemy = 0;
  double avg_depth = 0.0;
  int max_depth = 0;
  double avg_fan_out = 0.0;
  int max_fan_out = 0;
  double avg_density = 0.0;
  int max_density = 0;
};
std::vector<DatasetStatsRow> ComputeTable3(
    const std::vector<CorpusDocument>& corpus, core::LabelSpace* label_space);

/// The name Figure 8's tables give `process`: "concept", "context" or
/// "combined".
const char* ProcessName(core::DisambiguationProcess process);

/// One Figure 8 cell: F-value of a configuration on a group.
struct ConfigCell {
  int group = 0;
  int radius = 0;
  core::DisambiguationProcess process =
      core::DisambiguationProcess::kConceptBased;
  PrfScores scores;
};
std::vector<ConfigCell> ComputeFigure8(
    const std::vector<CorpusDocument>& corpus,
    const wordnet::SemanticNetwork& network, core::LabelSpace* label_space,
    const std::vector<int>& radii = {1, 2, 3, 4});

/// XSDF's Figure 9 sphere radius for `group`, read off a Figure 8
/// sweep as the paper picks its optimal configuration: the radius of
/// the group's concept-based cell with the highest F-value. A tie goes
/// to the smaller radius, the smallest sphere that reaches that F.
/// 0 when `figure8` has no concept-based cell for the group.
int Figure9Radius(const std::vector<ConfigCell>& figure8, int group);

/// One Figure 9 cell: P/R/F of one system (XSDF at its optimal
/// configuration, RPD, or VSD) on a group, from one run per document
/// scored two ways.
struct ComparisonCell {
  int group = 0;
  std::string system;  ///< "XSDF", "RPD", "VSD"
  int radius = 0;      ///< XSDF's sphere radius; 0 for RPD and VSD
  /// On each document's target sample (structure and content nodes).
  PrfScores scores;
  /// On the sample's element and attribute nodes only: the baselines
  /// never disambiguate content tokens (paper Table 4).
  PrfScores structure_scores;
};
/// Runs XSDF (concept-based, at Figure9Radius(figure8, group)), RPD and
/// VSD on every group; each system reads the corpus through
/// `label_space`. `figure8` is ComputeFigure8()'s sweep of the same
/// corpus, so an XSDF cell's `scores` equal the Figure 8 cell at its
/// radius.
std::vector<ComparisonCell> ComputeFigure9(
    const std::vector<CorpusDocument>& corpus,
    const wordnet::SemanticNetwork& network, core::LabelSpace* label_space,
    const std::vector<ConfigCell>& figure8);

/// The per-group context clarity used by the rater panel (Group 1
/// generic/deep ... Group 4 flat/domain-specific).
double GroupContextClarity(int group);

}  // namespace xsdf::eval

#endif  // XSDF_EVAL_EXPERIMENT_H_
