// kcc_doccheck — the mechanical docs-consistency gate (docs/TESTING.md).
//
// Checks 1, 2 and 4 run over README.md plus every docs/*.md file, check 3
// over the C++ sources under src/ and tools/, check 5 over the headers
// under src/, check 6 over the sources under src/:
//
//   1. Flags: every double-dash flag token mentioned anywhere in the docs
//      must appear in the --help output of kcc, kcc_bench or kcc_fuzz, or
//      in the annotated allowlist below of flags owned by other programs
//      (cmake/ctest, the bench harnesses). A flag that a CLI change
//      renamed or removed therefore fails tier-1 at the line that still
//      documents it.
//   2. Links: every relative markdown link must resolve to an existing
//      file or directory (fragments stripped), so renames cannot leave
//      dead links behind.
//   3. Eager check messages: every require(...) call must pass its message
//      as parts, never build it with std::to_string(, std::string( or a
//      + next to a string literal. require is free when it passes only
//      because the parts are concatenated on failure; an eagerly built
//      message would allocate on every call, hot loops included.
//   4. Identifiers: every `ns::Name` in an inline code span must have its
//      last component appear as a word in some .h/.cpp under src/, tools/,
//      bench/, tests/ or kccbench/, so deleting or renaming a function or
//      class cannot leave the docs naming it.
//   5. Reachability: every src/<dir>/<name>.h must be #included by some
//      file under src/ other than its own .cpp, or under tools/, bench/,
//      examples/ or kccbench/. A module that only its own test includes
//      is dead code that the tests keep compiling.
//   6. Metric names: every metric name passed as a whole string literal to
//      .counter(, .gauge( or .histogram( in a source under src/ must
//      appear as a word in docs/OBSERVABILITY.md, so an instrument cannot
//      ship without its catalog entry. Names built at run time (the
//      per-k gauges, the hw_* counters) are the catalog's own business.
//      The reverse also holds: every table row of docs/OBSERVABILITY.md
//      whose name is a plain identifier must be a whole string literal in
//      some source under src/ or tools/ (kcc_fuzz registers one), so a
//      deleted instrument cannot leave its catalog row behind.
//   7. Span and stage names: every whole string literal passed to
//      KCC_SPAN( or to a StageScope in a source under src/ or tools/ must
//      appear as an inline code span (`name`) in docs/OBSERVABILITY.md.
//
// Findings print as file:line: message, one per line; exit is non-zero if
// anything failed. Run by the `docs_consistency` ctest with the built
// binaries' paths:
//
//   kcc_doccheck --root=SOURCE_DIR --kcc=PATH --kcc-bench=PATH
//                --kcc-fuzz=PATH
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/error.h"

namespace {

using namespace kcc;
namespace fs = std::filesystem;

// Flags documented for programs other than the three checked CLIs. Each
// entry names its owner; a flag added here without an owner comment is a
// review smell.
const std::set<std::string>& allowlisted_flags() {
  static const std::set<std::string> allowed{
      "--preset",             // cmake / ctest
      "--build",              // cmake --build
      "--test-dir",           // ctest
      "--output-on-failure",  // ctest
      "--verify-sweep",       // bench/perf_cpm
      "--verify-almost",      // bench/perf_cpm
      "--json",               // bench/perf_cpm, bench/perf_serve
      "--bench-json",         // bench/perf_cliques
      "--scaling",            // bench/perf_cliques
      "--scaling-nodes",      // bench/perf_cliques
      "--scaling-threads",    // bench/perf_cliques
      "--scaling-rounds",     // bench/perf_cliques
      "--scaling-eco",        // bench/perf_cliques
      "--min-qps",            // bench/perf_serve
      "--clients",            // bench/perf_serve
      "--depth",              // bench/perf_serve
      "--requests",           // bench/perf_serve
      "--latency-samples",    // bench/perf_serve
      "--min-speedup",        // bench/perf_incr
      "--churn",              // bench/perf_incr
      "--core-churn",         // bench/perf_incr
  };
  return allowed;
}

/// All --flag tokens in `text`, '='/value suffixes cut off.
std::vector<std::string> extract_flags(const std::string& text) {
  std::vector<std::string> flags;
  for (std::size_t i = 0; i + 2 < text.size(); ++i) {
    if (text[i] != '-' || text[i + 1] != '-') continue;
    if (i > 0 && text[i - 1] == '-') continue;  // inside ---- rules
    if (std::isalpha(static_cast<unsigned char>(text[i + 2])) == 0) continue;
    std::size_t end = i + 2;
    while (end < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[end])) != 0 ||
            text[end] == '-' || text[end] == '_')) {
      ++end;
    }
    flags.push_back(text.substr(i, end - i));
    i = end - 1;
  }
  return flags;
}

/// --help output of one binary, captured via popen. A binary that cannot
/// be run or answers nothing is itself a finding (the check would
/// otherwise silently pass with an empty known set).
std::string help_text(const std::string& binary) {
  const std::string command = binary + " --help 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  require(pipe != nullptr, "kcc_doccheck: cannot run ", command);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) text.append(buf, n);
  const int rc = ::pclose(pipe);
  require(rc == 0, "kcc_doccheck: '", command, "' exited with status ", rc);
  require(!text.empty(), "kcc_doccheck: '", command, "' printed nothing");
  return text;
}

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string message;
};

/// Relative link targets of one markdown line: [text](target), external
/// schemes and pure fragments skipped, #fragment suffixes cut off.
std::vector<std::string> extract_links(const std::string& text) {
  std::vector<std::string> targets;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != ']' || i + 1 >= text.size() || text[i + 1] != '(') continue;
    // Empty bracket text is a C++ lambda in a code sample, not a link.
    if (i > 0 && text[i - 1] == '[') continue;
    const std::size_t close = text.find(')', i + 2);
    if (close == std::string::npos) continue;
    std::string target = text.substr(i + 2, close - i - 2);
    // Markdown targets cannot contain raw whitespace; code can.
    if (target.find(' ') != std::string::npos ||
        target.find('\t') != std::string::npos) {
      continue;
    }
    if (const std::size_t hash = target.find('#'); hash != std::string::npos) {
      target.erase(hash);
    }
    if (target.empty() || target.rfind("http://", 0) == 0 ||
        target.rfind("https://", 0) == 0 || target.rfind("mailto:", 0) == 0) {
      continue;
    }
    targets.push_back(std::move(target));
  }
  return targets;
}

/// Every `ns::Name` (two or more ::-joined identifiers) inside the inline
/// code spans of one markdown line.
std::vector<std::string> extract_qualified_names(const std::string& text) {
  static const std::regex qualified(
      "[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+");
  std::vector<std::string> names;
  for (std::size_t open = text.find('`'); open != std::string::npos;) {
    const std::size_t close = text.find('`', open + 1);
    if (close == std::string::npos) break;
    const std::string span = text.substr(open + 1, close - open - 1);
    for (std::sregex_iterator it(span.begin(), span.end(), qualified), end;
         it != end; ++it) {
      names.push_back(it->str());
    }
    open = text.find('`', close + 1);
  }
  return names;
}

/// The whole of one file.
std::string read_file(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  require(in.good(), "kcc_doccheck: cannot read ", file.native());
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Adds every identifier-shaped word of `text` to `words`.
void add_words(const std::string& text, std::set<std::string>& words) {
  const auto is_word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  for (std::size_t i = 0; i < text.size();) {
    if (!is_word(text[i])) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && is_word(text[end])) ++end;
    words.insert(text.substr(i, end - i));
    i = end;
  }
}

/// Every identifier-shaped word of every .h/.cpp under the source trees.
std::set<std::string> source_words(const std::vector<fs::path>& sources) {
  std::set<std::string> words;
  for (const fs::path& file : sources) add_words(read_file(file), words);
  return words;
}

/// The .h/.cpp files under each of `dirs` that exists below `root`, sorted.
std::vector<fs::path> sources_under(const fs::path& root,
                                    std::initializer_list<const char*> dirs) {
  std::vector<fs::path> sources;
  for (const char* dir : dirs) {
    if (!fs::is_directory(root / dir)) continue;
    for (const fs::directory_entry& entry :
         fs::recursive_directory_iterator(root / dir)) {
      const fs::path ext = entry.path().extension();
      if (entry.is_regular_file() && (ext == ".cpp" || ext == ".h")) {
        sources.push_back(entry.path());
      }
    }
  }
  std::sort(sources.begin(), sources.end());
  return sources;
}

void check_file(const fs::path& doc, const std::set<std::string>& known,
                const std::set<std::string>& words,
                std::vector<Finding>& findings) {
  std::ifstream in(doc);
  require(in.good(), "kcc_doccheck: cannot read ", doc.native());
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    for (const std::string& flag : extract_flags(line)) {
      if (known.count(flag) == 0 && allowlisted_flags().count(flag) == 0) {
        findings.push_back(
            {doc.string(), line_number,
             "flag " + flag +
                 " is not in any checked binary's --help output (stale "
                 "docs, or a new flag missing from help?)"});
      }
    }
    for (const std::string& name : extract_qualified_names(line)) {
      const std::string last = name.substr(name.rfind("::") + 2);
      if (words.count(last) == 0) {
        findings.push_back(
            {doc.string(), line_number,
             "`" + name + "`: no .h/.cpp under src/, tools/, bench/, tests/ "
             "or kccbench/ mentions " + last + " (deleted or renamed?)"});
      }
    }
    for (const std::string& target : extract_links(line)) {
      const fs::path resolved = doc.parent_path() / target;
      if (!fs::exists(resolved)) {
        findings.push_back({doc.string(), line_number,
                            "dead link: " + target + " (resolved to " +
                                resolved.lexically_normal().string() + ")"});
      }
    }
  }
}


/// `source` with comments blanked and string/char literal bodies blanked
/// (delimiters kept), newlines preserved, so a scan of the result sees only
/// code and still counts lines. A ' after an alphanumeric is a digit
/// separator (2'000'000), not a character literal.
std::string mask_comments_and_literals(const std::string& source) {
  std::string out = source;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'' &&
                   (i == 0 ||
                    std::isalnum(static_cast<unsigned char>(source[i - 1])) ==
                        0)) {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\' && i + 1 < out.size()) {
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == (state == State::kString ? '"' : '\'')) {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

/// True when the message arguments of one require call (masked text after
/// the condition) build a std::string before the check runs. In masked
/// text a quote is always a literal's delimiter, so a + next to a quote is
/// a concatenation with a string literal.
bool builds_message_eagerly(const std::string& args) {
  static const std::regex eager(
      "std::to_string\\(|std::string\\(|\"\\s*\\+|\\+\\s*\"");
  return std::regex_search(args, eager);
}

/// Check 3 over one C++ source file: every require(...) whose message
/// arguments build a string eagerly is a finding at the call's line.
void lint_source(const fs::path& file, std::vector<Finding>& findings) {
  const std::string source = read_file(file);
  const std::string code = mask_comments_and_literals(source);
  const std::string call = "require(";
  for (std::size_t at = code.find(call); at != std::string::npos;
       at = code.find(call, at + 1)) {
    const char before = at > 0 ? code[at - 1] : ' ';
    if (std::isalnum(static_cast<unsigned char>(before)) != 0 ||
        before == '_') {
      continue;
    }
    // The call's arguments up to its closing paren; the message starts
    // after the first top-level comma.
    std::size_t depth = 1;
    std::size_t message_start = std::string::npos;
    std::size_t end = at + call.size();
    for (; end < code.size() && depth > 0; ++end) {
      const char c = code[end];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') --depth;
      if (c == ',' && depth == 1 && message_start == std::string::npos) {
        message_start = end + 1;
      }
    }
    if (message_start == std::string::npos || message_start >= end) continue;
    if (builds_message_eagerly(
            code.substr(message_start, end - 1 - message_start))) {
      const auto line = 1 + std::count(code.begin(), code.begin() + at, '\n');
      findings.push_back(
          {file.string(), static_cast<std::size_t>(line),
           "require() builds its message eagerly; pass the parts instead "
           "(require(ok, \"text \", value)) so a passing check allocates "
           "nothing"});
    }
  }
}

/// The "quoted" #include targets of one source file.
std::vector<std::string> quoted_includes(const fs::path& file) {
  static const std::regex include_line(
      "^\\s*#\\s*include\\s*\"([^\"]+)\"");
  std::ifstream in(file);
  require(in.good(), "kcc_doccheck: cannot read ", file.native());
  std::vector<std::string> targets;
  std::string line;
  std::smatch match;
  while (std::getline(in, line)) {
    if (std::regex_search(line, match, include_line)) {
      targets.push_back(match[1].str());
    }
  }
  return targets;
}

/// Check 5: each src/<dir>/<name>.h that nothing outside tests/ and its
/// own .cpp includes is a finding at the header's first line.
void check_reachability(const fs::path& root,
                        std::vector<Finding>& findings) {
  std::set<std::string> included;  // include targets, e.g. "cpm/engine.h"
  for (const fs::path& file : sources_under(
           root, {"src", "tools", "bench", "examples", "kccbench"})) {
    const fs::path relative = file.lexically_relative(root);
    for (const std::string& target : quoted_includes(file)) {
      fs::path own_cpp = fs::path("src") / target;
      own_cpp.replace_extension(".cpp");
      if (relative != own_cpp) included.insert(target);
    }
  }
  for (const fs::path& header : sources_under(root, {"src"})) {
    const fs::path relative = header.lexically_relative(root / "src");
    if (header.extension() != ".h" ||
        std::distance(relative.begin(), relative.end()) != 2) {
      continue;
    }
    const std::string name = relative.generic_string();
    if (included.count(name) == 0) {
      findings.push_back(
          {header.string(), 1,
           "`" + name + "` is #included only by its own .cpp or by tests/ "
           "(dead module? delete it, or use it from src/, tools/, bench/, "
           "examples/ or kccbench/)"});
    }
  }
}

/// Check 6: each literal metric name under src/ that is not a word of
/// docs/OBSERVABILITY.md is a finding at the line of its call.
void check_metric_names(const fs::path& root,
                        std::vector<Finding>& findings) {
  static const std::regex call(
      "\\.(counter|gauge|histogram)\\(\\s*\"([A-Za-z0-9_]+)\"\\s*[,)]");
  const fs::path catalog = root / "docs" / "OBSERVABILITY.md";
  std::set<std::string> documented;
  if (fs::exists(catalog)) add_words(read_file(catalog), documented);
  for (const fs::path& file : sources_under(root, {"src"})) {
    const std::string text = read_file(file);
    for (std::sregex_iterator it(text.begin(), text.end(), call), end;
         it != end; ++it) {
      const std::string name = (*it)[2].str();
      if (documented.count(name) != 0) continue;
      const auto line =
          1 + std::count(text.begin(), text.begin() + it->position(2), '\n');
      findings.push_back(
          {file.string(), static_cast<std::size_t>(line),
           "metric `" + name + "` is not in docs/OBSERVABILITY.md (add it "
           "to the metric catalog)"});
    }
  }
}

/// Check 6, reverse: each plain-identifier table row of
/// docs/OBSERVABILITY.md whose name no source under src/ or tools/ spells
/// as a whole string literal is a finding at the row's line.
void check_catalog_rows(const fs::path& root,
                        std::vector<Finding>& findings) {
  static const std::regex row("^\\|\\s*`([A-Za-z0-9_]+)`\\s*\\|");
  static const std::regex literal("\"([A-Za-z0-9_]+)\"");
  const fs::path catalog = root / "docs" / "OBSERVABILITY.md";
  if (!fs::exists(catalog)) return;
  std::set<std::string> literals;
  for (const fs::path& file : sources_under(root, {"src", "tools"})) {
    const std::string text = read_file(file);
    for (std::sregex_iterator it(text.begin(), text.end(), literal), end;
         it != end; ++it) {
      literals.insert((*it)[1].str());
    }
  }
  std::ifstream in(catalog);
  std::string line;
  std::smatch match;
  for (std::size_t number = 1; std::getline(in, line); ++number) {
    if (!std::regex_search(line, match, row)) continue;
    const std::string name = match[1].str();
    if (literals.count(name) != 0) continue;
    findings.push_back(
        {catalog.string(), number,
         "catalog row `" + name + "` names a metric that no source under "
         "src/ or tools/ registers (delete the row, or register it)"});
  }
}

/// Check 7: each literal span or stage name under src/ or tools/ that is
/// not a code span of docs/OBSERVABILITY.md is a finding at its line.
/// Mentions inside // comments are not instruments.
void check_span_names(const fs::path& root, std::vector<Finding>& findings) {
  static const std::regex call(
      "(KCC_SPAN|StageScope\\s+\\w+)\\(\\s*\"([^\"]+)\"\\s*\\)");
  const fs::path catalog = root / "docs" / "OBSERVABILITY.md";
  const std::string documented = fs::exists(catalog) ? read_file(catalog) : "";
  for (const fs::path& file : sources_under(root, {"src", "tools"})) {
    const std::string text = read_file(file);
    for (std::sregex_iterator it(text.begin(), text.end(), call), end;
         it != end; ++it) {
      const auto at = static_cast<std::size_t>(it->position(0));
      const std::size_t line_start = text.rfind('\n', at) + 1;  // npos + 1 = 0
      if (text.substr(line_start, at - line_start).find("//") !=
          std::string::npos) {
        continue;
      }
      const std::string name = (*it)[2].str();
      if (documented.find("`" + name + "`") != std::string::npos) continue;
      const auto line = 1 + std::count(text.begin(), text.begin() + at, '\n');
      findings.push_back(
          {file.string(), static_cast<std::size_t>(line),
           "span or stage `" + name + "` is not in docs/OBSERVABILITY.md "
           "(add it to the span catalog or the stage list)"});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv,
                       {"root", "kcc", "kcc-bench", "kcc-fuzz", "help"});
    if (args.get_bool("help", false)) {
      std::cout << "usage: kcc_doccheck --root=SOURCE_DIR --kcc=PATH"
                   " --kcc-bench=PATH --kcc-fuzz=PATH [--help]\n";
      return 0;
    }
    const fs::path root = args.get_string("root", ".");
    require(fs::exists(root / "README.md"),
            "kcc_doccheck: --root does not look like the repo root (no "
            "README.md under '",
            root.native(), "')");

    std::set<std::string> known;
    for (const char* flag : {"kcc", "kcc-bench", "kcc-fuzz"}) {
      const std::string binary = args.get_string(flag, "");
      require(!binary.empty(),
              "kcc_doccheck: --", flag, " is required");
      for (const std::string& token : extract_flags(help_text(binary))) {
        known.insert(token);
      }
    }

    std::vector<fs::path> docs{root / "README.md"};
    for (const fs::directory_entry& entry :
         fs::directory_iterator(root / "docs")) {
      if (entry.path().extension() == ".md") docs.push_back(entry.path());
    }
    std::sort(docs.begin(), docs.end());

    const std::set<std::string> words = source_words(
        sources_under(root, {"src", "tools", "bench", "tests", "kccbench"}));
    std::vector<Finding> findings;
    for (const fs::path& doc : docs) check_file(doc, known, words, findings);

    const std::vector<fs::path> sources = sources_under(root, {"src", "tools"});
    for (const fs::path& source : sources) lint_source(source, findings);
    check_reachability(root, findings);
    check_metric_names(root, findings);
    check_catalog_rows(root, findings);
    check_span_names(root, findings);

    for (const Finding& f : findings) {
      std::cerr << f.file << ":" << f.line << ": " << f.message << "\n";
    }
    if (!findings.empty()) {
      std::cerr << "kcc_doccheck: " << findings.size() << " finding(s) in "
                << docs.size() << " docs and " << sources.size()
                << " sources\n";
      return 1;
    }
    std::cout << "kcc_doccheck: " << docs.size() << " docs consistent ("
              << known.size() << " known flags, " << words.size()
              << " source words), " << sources.size()
              << " sources pass the require lint, every src/ header is "
                 "reachable, every metric name is catalogued and every "
                 "catalog row registered\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "kcc_doccheck: error: " << e.what() << "\n";
    return 2;
  }
}
