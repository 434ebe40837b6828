#include "common/cli.h"

#include <algorithm>
#include <cstdlib>

#include "common/error.h"

namespace kcc {

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::vector<std::string> known_flags) {
  auto is_known = [&](const std::string& name) {
    return known_flags.empty() ||
           std::find(known_flags.begin(), known_flags.end(), name) !=
               known_flags.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::string name;
    std::string value;
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else {
      // Bare boolean flag. (--name value is NOT supported: it is ambiguous
      // with positional arguments.)
      name = body;
      value = "true";
    }
    require(is_known(name), "CliArgs: unknown flag --", name);
    values_[name] = value;
  }
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const std::int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  require(end != it->second.c_str() && *end == '\0',
          "CliArgs: flag --", name, " expects an integer, got '", it->second,
          "'");
  return v;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  require(end != it->second.c_str() && *end == '\0',
          "CliArgs: flag --", name, " expects a number, got '", it->second,
          "'");
  return v;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw Error("CliArgs: flag --" + name + " expects a boolean, got '" + v +
              "'");
}

}  // namespace kcc
