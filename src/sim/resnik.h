#ifndef XSDF_SIM_RESNIK_H_
#define XSDF_SIM_RESNIK_H_

#include "sim/measure.h"

namespace xsdf::sim {

/// The information-content measure of Resnik (1995), normalized:
///
///   sim(c1, c2) = IC(mics) / IC_max
///
/// where mics is the most informative common subsumer, IC(c) =
/// -log p(c) over the weighted network's cumulative frequencies, and
/// IC_max = -log(1/N) (the IC of a singleton leaf) bounds the measure
/// into [0, 1]. Registered as "resnik" in the measure registry — an
/// additional node-based alternative to Lin, demonstrating the
/// registry's extensibility (paper footnote 8: "any other semantic
/// similarity measure can be used, or combined").
/// The subsumer search merges the finalized network's precomputed
/// ancestor arrays and reads its IC table.
class ResnikMeasure : public SimilarityMeasure {
 public:
  double Similarity(const wordnet::SemanticNetwork& network,
                    wordnet::ConceptId a,
                    wordnet::ConceptId b) const override;
  std::string name() const override { return "resnik"; }
};

}  // namespace xsdf::sim

#endif  // XSDF_SIM_RESNIK_H_
