// DESIGN.md and README.md name only things that exist: every backticked
// repo path resolves to a file or directory, and every backticked
// `Suite.Name` test id matches a TEST/TEST_F/TEST_P declaration under
// tests/. A doc line that outlives the code it describes fails here.
//
// Path rules: a backticked token whose first component is a top-level
// directory (src, tests, bench, ...) or a src/ module (detect, phy, ...,
// read relative to src/) is a path. It resolves when it exists, when
// adding .cpp or .hpp makes it exist (a bench/tool/example binary, or a
// module stem such as `detect/monitor`), or — for `name.*` — when a file
// of that stem exists. Test-id rules: an uppercase suite and an uppercase
// test name (`Golden.Fig6`); `Suite.*` and `Suite.Prefix*` need at least
// one matching declaration. Dotted tokens with a lowercase member
// (`MonitorStats.first_flag_time`) are field references, not test ids.
//
// The scanner is plain string code: g++ 12's <regex> trips
// -Wmaybe-uninitialized in the sanitizer build, whose warning gate fails
// on it.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

namespace fs = std::filesystem;

using TestIds = std::set<std::pair<std::string, std::string>>;

const fs::path kRoot = MANET_SOURCE_DIR;

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool is_word(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }
bool is_upper(char c) { return std::isupper(static_cast<unsigned char>(c)) != 0; }

/// The inline code spans of a markdown text, fenced blocks skipped. A
/// span may wrap a line; the line break and the indentation around it
/// are dropped, so an identifier split across lines reads whole.
std::vector<std::string> code_spans(const std::string& markdown) {
  std::string prose;
  std::istringstream lines(markdown);
  bool fenced = false;
  for (std::string line; std::getline(lines, line);) {
    const auto first = line.find_first_not_of(' ');
    if (first != std::string::npos && line.compare(first, 3, "```") == 0) {
      fenced = !fenced;
      continue;
    }
    if (!fenced) prose += line + '\n';
  }
  std::vector<std::string> out;
  for (auto open = prose.find('`'); open != std::string::npos;) {
    const auto close = prose.find('`', open + 1);
    if (close == std::string::npos) break;
    std::string span;
    for (auto i = open + 1; i < close; ++i) {
      if (prose[i] != '\n') {
        span += prose[i];
        continue;
      }
      while (!span.empty() && span.back() == ' ') span.pop_back();
      while (i + 1 < close && prose[i + 1] == ' ') ++i;
    }
    out.push_back(span);
    open = prose.find('`', close + 1);
  }
  return out;
}

bool is_path(const std::string& token) {
  static const std::set<std::string> roots = {
      "src",    "tests",  "bench", "tools", "examples", "scripts", "benchmark",
      "crypto", "detect", "exp",   "geom",  "mac",      "net",     "phy",
      "sim",    "util"};
  for (char c : token) {
    if (!is_word(c) && c != '/' && c != '.' && c != '*' && c != '-') return false;
  }
  const auto slash = token.find('/');
  return slash != std::string::npos && roots.count(token.substr(0, slash));
}

bool path_resolves(const std::string& token) {
  static const std::set<std::string> top = {"src",      "tests",   "bench",    "tools",
                                            "examples", "scripts", "benchmark"};
  const std::string first = token.substr(0, token.find('/'));
  const fs::path path = top.count(first) ? kRoot / token : kRoot / "src" / token;
  const std::string name = path.filename().string();
  if (name.size() > 2 && name.compare(name.size() - 2, 2, ".*") == 0) {
    const std::string prefix = name.substr(0, name.size() - 1);
    if (!fs::is_directory(path.parent_path())) return false;
    for (const auto& entry : fs::directory_iterator(path.parent_path())) {
      if (entry.path().filename().string().rfind(prefix, 0) == 0) return true;
    }
    return false;
  }
  const std::string text = path.string();
  return fs::exists(text) || fs::exists(text + ".cpp") || fs::exists(text + ".hpp");
}

/// Every (suite, name) a TEST, TEST_F or TEST_P under tests/ declares.
TestIds declared_tests() {
  TestIds out;
  for (const auto& entry : fs::directory_iterator(kRoot / "tests")) {
    if (entry.path().extension() != ".cpp") continue;
    const std::string text = read_file(entry.path());
    std::size_t i = 0;
    const auto skip_space = [&] {
      while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    };
    const auto word = [&] {
      const std::size_t start = i;
      while (i < text.size() && is_word(text[i])) ++i;
      return text.substr(start, i - start);
    };
    for (auto at = text.find("TEST"); at != std::string::npos;
         at = text.find("TEST", at + 1)) {
      if (at > 0 && is_word(text[at - 1])) continue;
      i = at + 4;
      if (text.compare(i, 2, "_F") == 0 || text.compare(i, 2, "_P") == 0) i += 2;
      if (i >= text.size() || text[i] != '(') continue;
      ++i;
      skip_space();
      const std::string suite = word();
      skip_space();
      if (suite.empty() || i >= text.size() || text[i] != ',') continue;
      ++i;
      skip_space();
      const std::string name = word();
      skip_space();
      if (!name.empty() && i < text.size() && text[i] == ')') out.emplace(suite, name);
    }
  }
  return out;
}

/// `Suite.Name`, `Suite.*` or `Suite.Prefix*`, both parts uppercase.
bool is_test_id(const std::string& token) {
  const auto dot = token.find('.');
  if (dot == std::string::npos || dot == 0 || !is_upper(token[0])) return false;
  for (std::size_t i = 0; i < dot; ++i) {
    if (!std::isalnum(static_cast<unsigned char>(token[i]))) return false;
  }
  std::string name = token.substr(dot + 1);
  if (name == "*") return true;
  if (!name.empty() && name.back() == '*') name.pop_back();
  if (name.empty() || !is_upper(name[0])) return false;
  for (char c : name) {
    if (!is_word(c)) return false;
  }
  return true;
}

bool test_id_exists(const std::string& token, const TestIds& tests) {
  const auto dot = token.find('.');
  const std::string suite = token.substr(0, dot);
  std::string name = token.substr(dot + 1);
  const bool prefix = name.back() == '*';
  if (prefix) name.pop_back();
  for (const auto& [s, n] : tests) {
    if (s == suite && (prefix ? n.rfind(name, 0) == 0 : n == name)) return true;
  }
  return false;
}

/// The names in `markdown` that do not exist, in order of appearance.
std::vector<std::string> stale_names(const std::string& markdown, const TestIds& tests) {
  std::vector<std::string> stale;
  for (const std::string& token : code_spans(markdown)) {
    if (is_test_id(token) ? !test_id_exists(token, tests)
                          : is_path(token) && !path_resolves(token)) {
      stale.push_back(token);
    }
  }
  return stale;
}

TEST(DocReferences, DesignAndReadmeNameOnlyWhatExists) {
  const TestIds tests = declared_tests();
  ASSERT_FALSE(tests.empty());
  for (const char* doc : {"DESIGN.md", "README.md"}) {
    const std::string text = read_file(kRoot / doc);
    ASSERT_FALSE(text.empty()) << doc;
    EXPECT_EQ(stale_names(text, tests), std::vector<std::string>{}) << doc;
  }
}

TEST(DocReferences, FlagsPlantedStaleNames) {
  const std::string planted =
      "Real: `src/detect/monitor.hpp`, `detect/trace.*`, "
      "`bench/fig5_detection_static`, `tests/`, `Golden.Fig6`,\n"
      "`Golden.*`, `SpatialIndex.Incremental*`, `MonitorStats.first_flag_time`,\n"
      "`--threads=1/4`, `p_less = less_eq / C(n, ny)`.\n"
      "Stale: `tools/sweep_merge`, `src/detect/gone.*`, `Golden.NoSuch\n"
      "  Case`, `NoSuchSuite.*`.\n"
      "```\ntools/fenced_blocks_are_not_read `tools/nor_here`\n```\n";
  EXPECT_EQ(stale_names(planted, declared_tests()),
            (std::vector<std::string>{"tools/sweep_merge", "src/detect/gone.*",
                                      "Golden.NoSuchCase", "NoSuchSuite.*"}));
}

}  // namespace
