#ifndef XSDF_TESTS_INTERNED_TREE_H_
#define XSDF_TESTS_INTERNED_TREE_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/token_interner.h"
#include "core/label_space.h"
#include "xml/labeled_tree.h"

namespace xsdf::testutil {

/// A hand-built LabeledTree for tests. Add() interns each label the
/// way the production builders do, so the tree meets LabeledTree's id
/// contract: through `space` when one is given (the tree records it as
/// its label_source(), so a Disambiguator on that space reads it),
/// else through a private TokenInterner (for trees no Disambiguator
/// reads).
class InternedTree : public xml::LabeledTree {
 public:
  InternedTree() = default;
  explicit InternedTree(core::LabelSpace* space) : space_(space) {
    set_label_source(space->serial());
  }

  /// AddNode() with `label`'s id filled in.
  xml::NodeId Add(xml::NodeId parent, const std::string& label,
                  xml::TreeNodeKind kind, std::string raw = {}) {
    const uint32_t id = space_ != nullptr ? space_->Resolve(label)
                                          : interner_.Intern(label);
    return AddNode(parent, label, id, kind, std::move(raw));
  }

 private:
  core::LabelSpace* space_ = nullptr;
  TokenInterner interner_;
};

}  // namespace xsdf::testutil

#endif  // XSDF_TESTS_INTERNED_TREE_H_
