#include "obs/report.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>
#include <thread>

#include "common/error.h"
#include "common/timer.h"
#include "obs/build_info.h"
#include "obs/metrics.h"

#if defined(__linux__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace kcc::obs {
namespace {

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string cpu_model_name() {
#if defined(__linux__)
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) break;
      std::size_t begin = colon + 1;
      while (begin < line.size() && std::isspace(
                 static_cast<unsigned char>(line[begin]))) {
        ++begin;
      }
      return line.substr(begin);
    }
  }
#endif
  return "";
}

std::string host_name() {
#if defined(__linux__) || defined(__APPLE__)
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) == 0) return buf;
#endif
  return "";
}

}  // namespace

RunManifest collect_manifest(const std::string& tool) {
  RunManifest m;
  m.tool = tool;
  m.git_sha = KCC_BUILD_GIT_SHA;
  m.git_dirty = KCC_BUILD_GIT_DIRTY != 0;
  m.build_type = KCC_BUILD_TYPE;
  m.compiler = KCC_BUILD_COMPILER;
  m.cxx_flags = KCC_BUILD_CXX_FLAGS;
  m.sanitize = KCC_BUILD_SANITIZE;
  m.cpu_model = cpu_model_name();
  m.cpu_logical_cores = std::thread::hardware_concurrency();
  m.hostname = host_name();
  return m;
}

void write_manifest_json(std::ostream& out, const RunManifest& manifest) {
  out << "{\"tool\":";
  write_json_string(out, manifest.tool);
  out << ",\"git_sha\":";
  write_json_string(out, manifest.git_sha);
  out << ",\"git_dirty\":" << (manifest.git_dirty ? "true" : "false");
  out << ",\"build_type\":";
  write_json_string(out, manifest.build_type);
  out << ",\"compiler\":";
  write_json_string(out, manifest.compiler);
  out << ",\"cxx_flags\":";
  write_json_string(out, manifest.cxx_flags);
  out << ",\"sanitize\":";
  write_json_string(out, manifest.sanitize);
  out << ",\"cpu_model\":";
  write_json_string(out, manifest.cpu_model);
  out << ",\"cpu_logical_cores\":" << manifest.cpu_logical_cores;
  out << ",\"hostname\":";
  write_json_string(out, manifest.hostname);
  out << "}";
}

RunRecorder& RunRecorder::instance() {
  // Leaked like the Tracer: stage scopes on detached workers may fire after
  // main() returns.
  static RunRecorder* recorder = new RunRecorder();
  return *recorder;
}

void RunRecorder::record(StageSample sample) {
  std::lock_guard lock(mutex_);
  stages_.push_back(std::move(sample));
}

std::vector<StageSample> RunRecorder::stages() const {
  std::lock_guard lock(mutex_);
  return stages_;
}

void RunRecorder::annotate(const std::string& key, std::string value) {
  std::lock_guard lock(mutex_);
  annotations_[key] = std::move(value);
}

std::map<std::string, std::string> RunRecorder::annotations() const {
  std::lock_guard lock(mutex_);
  return annotations_;
}

void RunRecorder::clear() {
  std::lock_guard lock(mutex_);
  stages_.clear();
  annotations_.clear();
}

void annotate_run(const std::string& key, std::string value) {
  RunRecorder& recorder = RunRecorder::instance();
  if (!recorder.enabled()) return;
  recorder.annotate(key, std::move(value));
}

namespace {

// Seconds on a process-lifetime monotonic clock, for stage wall times.
double monotonic_seconds() {
  static const Timer* epoch = new Timer();
  return epoch->seconds();
}

}  // namespace

StageScope::StageScope(const char* name)
    : name_(name), recording_(RunRecorder::instance().enabled()) {
  if (!recording_) return;
  start_seconds_ = monotonic_seconds();
  start_cpu_seconds_ = process_cpu_seconds();
}

StageScope::~StageScope() {
  if (!recording_) return;
  StageSample sample;
  sample.name = name_;
  sample.wall_seconds = monotonic_seconds() - start_seconds_;
  sample.cpu_seconds = process_cpu_seconds() - start_cpu_seconds_;
  sample.rss_after_bytes = current_rss_bytes();
  RunRecorder::instance().record(std::move(sample));
}

void write_run_report(std::ostream& out, const RunManifest& manifest) {
  out << "{\"kcc_run_report_version\":" << kRunReportVersion;
  out << ",\"manifest\":";
  write_manifest_json(out, manifest);
  out << ",\"stages\":[";
  const std::vector<StageSample> stages = RunRecorder::instance().stages();
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"name\":";
    write_json_string(out, stages[i].name);
    out << ",\"wall_seconds\":" << format_double(stages[i].wall_seconds)
        << ",\"cpu_seconds\":" << format_double(stages[i].cpu_seconds)
        << ",\"rss_after_bytes\":" << stages[i].rss_after_bytes << "}";
  }
  out << "],\"annotations\":{";
  const std::map<std::string, std::string> annotations =
      RunRecorder::instance().annotations();
  bool first_annotation = true;
  for (const auto& [key, value] : annotations) {
    if (!first_annotation) out << ",";
    first_annotation = false;
    write_json_string(out, key);
    out << ":";
    write_json_string(out, value);
  }
  out << "},\"rss\":{\"current_bytes\":" << current_rss_bytes()
      << ",\"peak_bytes\":" << peak_rss_bytes() << "}";
  out << ",\"metrics\":";
  metrics().write_json(out);
  out << "}";
}

void write_run_report_file(const std::string& path,
                           const RunManifest& manifest) {
  if (path == "-") {
    write_run_report(std::cout, manifest);
    std::cout << "\n";
    require(std::cout.good(), "obs: failed writing run report to stdout");
    return;
  }
  std::ofstream out(path);
  require(out.good(), "obs: cannot write run report ", path);
  write_run_report(out, manifest);
  out << "\n";
  require(out.good(), "obs: failed writing run report ", path);
}

double FlatJson::number(const std::string& path, double fallback) const {
  const auto it = numbers.find(path);
  return it == numbers.end() ? fallback : it->second;
}

std::string FlatJson::string(const std::string& path,
                             const std::string& fallback) const {
  const auto it = strings.find(path);
  return it == strings.end() ? fallback : it->second;
}

namespace {

// Recursive-descent reader for the JSON this library writes. Not a general
// validator: it accepts exactly the constructs our writers emit (objects,
// arrays, strings with simple escapes, numbers, true/false/null) and throws
// on anything else.
class FlatParser {
 public:
  explicit FlatParser(const std::string& text) : text_(text) {}

  FlatJson parse() {
    skip_ws();
    value("");
    skip_ws();
    require(pos_ == text_.size(), "trailing content");
    return std::move(out_);
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("parse_json_flat: " + what + " at offset " +
                std::to_string(pos_));
  }
  void require(bool ok, const char* what) const {
    if (!ok) fail(what);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char take() {
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_++];
  }
  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  static std::string join(const std::string& prefix, const std::string& key) {
    return prefix.empty() ? key : prefix + "." + key;
  }

  void value(const std::string& path) {
    switch (peek()) {
      case '{':
        object(path);
        return;
      case '[':
        array(path);
        return;
      case '"':
        out_.strings[path] = string_literal();
        return;
      case 't':
        keyword("true");
        out_.numbers[path] = 1.0;
        return;
      case 'f':
        keyword("false");
        out_.numbers[path] = 0.0;
        return;
      case 'n':
        keyword("null");
        return;
      default:
        out_.numbers[path] = number_literal();
        return;
    }
  }

  void object(const std::string& path) {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      const std::string key = string_literal();
      skip_ws();
      expect(':');
      skip_ws();
      value(join(path, key));
      skip_ws();
      const char c = take();
      if (c == '}') return;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  void array(const std::string& path) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    std::size_t index = 0;
    while (true) {
      skip_ws();
      value(join(path, std::to_string(index++)));
      skip_ws();
      const char c = take();
      if (c == ']') return;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string string_literal() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // Our writers only escape control characters; anything else is
          // preserved as '?' rather than implementing full UTF-16 here.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  double number_literal() {
    const std::size_t begin = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    require(pos_ > begin, "expected a number");
    try {
      return std::stod(text_.substr(begin, pos_ - begin));
    } catch (const std::exception&) {
      fail("bad number");
    }
  }

  void keyword(const char* word) {
    for (const char* c = word; *c != '\0'; ++c) {
      if (take() != *c) fail(std::string("expected '") + word + "'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  FlatJson out_;
};

}  // namespace

FlatJson parse_json_flat(const std::string& text) {
  return FlatParser(text).parse();
}

FlatJson read_json_flat_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "obs: cannot read JSON file ", path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_json_flat(buffer.str());
}

}  // namespace kcc::obs
