#ifndef XSDF_SIM_MEASURE_H_
#define XSDF_SIM_MEASURE_H_

#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "wordnet/semantic_network.h"

namespace xsdf::sim {

/// Interface of a concept-to-concept semantic similarity measure over a
/// (weighted) semantic network. Implementations must return values in
/// [0, 1], with Similarity(c, c) == 1 for any concept related to the
/// taxonomy, and be symmetric.
class SimilarityMeasure {
 public:
  virtual ~SimilarityMeasure() = default;

  /// Similarity of concepts `a` and `b` in [0, 1]. Precondition:
  /// `network` is finalized (SemanticNetwork::finalized()); the
  /// built-in measures read its precomputed kernel tables and check
  /// this with XSDF_DCHECK. Every production loader finalizes —
  /// BuildMiniWordNet, the WNDB parser and the snapshot loader.
  virtual double Similarity(const wordnet::SemanticNetwork& network,
                            wordnet::ConceptId a,
                            wordnet::ConceptId b) const = 0;

  /// Stable identifier ("wu-palmer", "lin", "gloss-overlap", ...).
  virtual std::string name() const = 0;
};

/// Registry of similarity measures, allowing users to plug in their own
/// measures and to select/compose measures by name (the paper's
/// requirement that the set of measures be extensible, §3.5.1).
///
/// Thread-safe: Register takes an exclusive lock, Create/Names take a
/// shared lock, so plugins may register concurrently with serve-side
/// measure construction (hot lexicon swap builds per-worker measures
/// while Register may run). Factories themselves must be callable
/// concurrently (the built-ins are stateless lambdas).
class MeasureRegistry {
 public:
  using Factory = std::function<std::unique_ptr<SimilarityMeasure>()>;

  /// The process-wide registry, pre-populated with the built-in
  /// measures (wu-palmer, lin, gloss-overlap, resnik,
  /// conceptual-density).
  static MeasureRegistry& Global();

  /// Registers `factory` under `name`; overwrite semantics.
  void Register(const std::string& name, Factory factory);

  /// Instantiates the measure registered under `name`.
  Result<std::unique_ptr<SimilarityMeasure>> Create(
      const std::string& name) const;

  /// Names of all registered measures, sorted.
  std::vector<std::string> Names() const;

 private:
  mutable std::shared_mutex mu_;
  std::vector<std::pair<std::string, Factory>> factories_;
};

}  // namespace xsdf::sim

#endif  // XSDF_SIM_MEASURE_H_
