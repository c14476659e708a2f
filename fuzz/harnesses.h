#ifndef XSDF_FUZZ_HARNESSES_H_
#define XSDF_FUZZ_HARNESSES_H_

#include <cstddef>
#include <cstdint>

/// The fuzzing oracles, one per target. Each consumes one flat input
/// buffer and either returns normally or aborts the process on an
/// oracle violation (a crash under libFuzzer, a test failure under the
/// standalone driver and fuzz_regression_test). They live in a plain
/// library, separate from the LLVMFuzzerTestOneInput wrappers, so the
/// exact same code runs under libFuzzer, under the gcc standalone
/// replay driver, and inside plain ctest replaying the checked-in
/// regression corpus.
namespace xsdf::fuzz {

/// oracles::ParseDom (xml::StreamParse events materialized into the
/// test-only DOM) under fuzz limits; accepted documents must
/// round-trip (serialize -> reparse -> structurally equal,
/// serialization a fixed point) and core::BuildTreeStreaming must build them a LabeledTree
/// that passes Validate().
void DriveXmlParser(const uint8_t* data, size_t size);

/// wordnet::ParseWndb over a "%%file" container (see
/// propgen::UnpackWndbContainer); accepted networks must re-serialize,
/// and the rewrite must be a parse/write fixed point.
void DriveWndbParser(const uint8_t* data, size_t size);

/// LabeledTree construction and query surface: first byte selects
/// options, the rest is XML. For every input oracles::ParseDom accepts,
/// core::BuildTreeStreaming must build a tree that passes Validate()
/// and matches, column for column, a direct DOM walk labelled by the
/// unmemoized pre-processing (label ids included), and every query
/// (LCA, distance, rings, paths) must terminate.
void DriveLabeledTree(const uint8_t* data, size_t size);

/// Streaming front end against its DOM reference: first byte selects
/// options, the rest is XML. core::BuildTreeStreaming and the
/// test-only DOM path (oracles::ParseDom, then oracles::BuildTreeViaDom),
/// each interning through a fresh LabelSpace, must agree on accepting
/// the input, and accepted trees must match node for node (label, raw,
/// kind, parent, depth, label id — so the interning order too) and pass
/// Validate().
void DriveStreamParser(const uint8_t* data, size_t size);

/// snapshot::LoadNetworkSnapshotFromBuffer over an 8-aligned copy of
/// the input: every rejection must carry a message, and an accepted
/// network must survive its full read surface (ancestors, glosses,
/// senses, taxonomy queries) and re-snapshot into bytes the loader
/// accepts again.
void DriveSnapshotLoader(const uint8_t* data, size_t size);

}  // namespace xsdf::fuzz

#endif  // XSDF_FUZZ_HARNESSES_H_
