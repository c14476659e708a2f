#include "sim/measure_config.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/measure.h"

namespace xsdf::sim {

namespace {

/// SplitMix64 finalizer — the same mix the similarity cache uses for
/// pair keys; bijective and well distributed.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// FNV-1a over the name bytes; length is folded separately by the
/// caller so "ab"+"c" and "a"+"bc" cannot collide across entries.
uint64_t HashName(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Shortest decimal string that strtod parses back to exactly `w`.
std::string FormatWeight(double w) {
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, w);
    if (std::strtod(buf, nullptr) == w) break;
  }
  return buf;
}

}  // namespace

MeasureConfig MeasureConfig::PaperHybrid(double edge, double node,
                                         double gloss) {
  MeasureConfig config;
  config.entries = {{"wu-palmer", edge},
                    {"lin", node},
                    {"gloss-overlap", gloss}};
  return config;
}

Status MeasureConfig::Validate() const {
  if (entries.empty()) {
    return Status::InvalidArgument(
        "measure config is empty; expected name:weight,...");
  }
  double total = 0.0;
  for (size_t i = 0; i < entries.size(); ++i) {
    const auto& [name, weight] = entries[i];
    if (name.empty()) {
      return Status::InvalidArgument("measure config has an empty name");
    }
    if (!(weight >= 0.0)) {  // also rejects NaN
      return Status::InvalidArgument("negative weight for measure " + name);
    }
    for (size_t j = 0; j < i; ++j) {
      if (entries[j].first == name) {
        return Status::InvalidArgument("duplicate measure: " + name);
      }
    }
    auto measure = MeasureRegistry::Global().Create(name);
    if (!measure.ok()) return measure.status();
    total += weight;
  }
  if (std::fabs(total - 1.0) > 1e-4) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "measure weights must sum to 1, got %.9g", total);
    return Status::InvalidArgument(buf);
  }
  return Status::Ok();
}

Result<MeasureConfig> MeasureConfig::Parse(std::string_view spec) {
  MeasureConfig config;
  if (spec.empty()) {
    return Status::InvalidArgument(
        "--measures is empty; expected name:weight,...");
  }
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    std::string_view item = spec.substr(
        start, comma == std::string_view::npos ? std::string_view::npos
                                               : comma - start);
    size_t colon = item.rfind(':');
    if (item.empty() || colon == std::string_view::npos || colon == 0 ||
        colon + 1 == item.size()) {
      return Status::InvalidArgument(
          "bad --measures item '" + std::string(item) +
          "'; expected name:weight");
    }
    std::string name(item.substr(0, colon));
    std::string weight_text(item.substr(colon + 1));
    char* end = nullptr;
    double weight = std::strtod(weight_text.c_str(), &end);
    if (end == weight_text.c_str() || *end != '\0') {
      return Status::InvalidArgument("bad weight '" + weight_text +
                                     "' for measure " + name);
    }
    config.entries.emplace_back(std::move(name), weight);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  Status status = config.Validate();
  if (!status.ok()) return status;
  // Rescale so the sum is 1 to double rounding: near-miss inputs like
  // three 0.333333 pass Validate()'s 1e-4 tolerance and should mean
  // "thirds of what was written", not drift the combined score by the
  // shortfall.
  double total = 0.0;
  for (const auto& [name, weight] : config.entries) total += weight;
  for (auto& [name, weight] : config.entries) weight /= total;
  return config;
}

std::string MeasureConfig::ToSpec() const {
  std::string spec;
  for (const auto& [name, weight] : entries) {
    if (!spec.empty()) spec.push_back(',');
    spec += name;
    spec.push_back(':');
    spec += FormatWeight(weight);
  }
  return spec;
}

uint64_t MeasureConfig::Fingerprint() const {
  uint64_t fp = Mix64(0x584d4c4d45415355ULL ^ entries.size());
  for (const auto& [name, weight] : entries) {
    fp = Mix64(fp ^ HashName(name));
    fp = Mix64(fp ^ name.size());
    fp = Mix64(fp ^ DoubleBits(weight));
  }
  return fp;
}

}  // namespace xsdf::sim
