// Minimal ordered JSON writer for the machine-readable bench snapshots
// (BENCH_cpm_almost.json, BENCH_cliques.json — schema in docs/FORMATS.md).
//
// Deliberately tiny: the bench binaries need objects, arrays, strings and
// numbers with insertion order preserved, nothing else. Values are
// formatted on insertion, so a Json node is just an ordered list of
// (key, rendered-value) pairs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/report.h"

namespace kcc::bench {

class Json {
 public:
  Json& add(const std::string& key, const std::string& value) {
    return raw(key, quote(value));
  }
  Json& add(const std::string& key, const char* value) {
    return raw(key, quote(value));
  }
  Json& add(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  Json& add(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  Json& add(const std::string& key, std::int64_t value) {
    return raw(key, std::to_string(value));
  }
  Json& add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    return raw(key, buf);
  }
  Json& add(const std::string& key, const Json& object) {
    return raw(key, object.str());
  }
  Json& add_array(const std::string& key, const std::vector<Json>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ",";
      out += items[i].str();
    }
    out += "]";
    return raw(key, out);
  }

  /// The rendered object, e.g. {"a":1,"b":"x"}.
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += quote(fields_[i].first) + ":" + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  Json& raw(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
    return *this;
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\"";
    return out;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The run manifest (obs/report.h) as a Json node, so every BENCH_*.json
/// snapshot records which build + host produced it:
///   doc.add("manifest", manifest_json(obs::collect_manifest("perf_cpm")));
inline Json manifest_json(const obs::RunManifest& m) {
  Json out;
  out.add("git_sha", m.git_sha + (m.git_dirty ? "+dirty" : ""));
  out.add("build_type", m.build_type);
  out.add("compiler", m.compiler);
  out.add("sanitize", m.sanitize);
  out.add("cpu_model", m.cpu_model);
  out.add("cpu_logical_cores", static_cast<std::uint64_t>(m.cpu_logical_cores));
  out.add("hostname", m.hostname);
  return out;
}

}  // namespace kcc::bench
