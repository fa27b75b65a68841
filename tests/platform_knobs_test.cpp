// Keeps docs/PLATFORM_KNOBS.md exhaustive and current: every member of
// every config struct reachable from PlatformSpec (plus the substrate
// configs the multi-process harnesses take directly) must appear as a
// backticked knob inside that struct's own `## StructName` section of the
// doc, and every backticked knob row of that section must name a member or
// nested type the struct declares. Adding a knob without documenting it,
// documenting it under the wrong struct, or removing a knob but not its row
// fails this test. The structs are parsed from the headers at run time, so
// the check can never go stale against the code.
#include <gtest/gtest.h>

#include <fstream>
#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) ADD_FAILURE() << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Extracts the body of `struct <name> { ... };` from header text.
std::string struct_body(const std::string& header_text, const std::string& name) {
  const std::string key = "struct " + name + " {";
  const auto begin = header_text.find(key);
  if (begin == std::string::npos) return {};
  const auto end = header_text.find("\n};", begin);
  if (end == std::string::npos) return {};
  return header_text.substr(begin + key.size(), end - begin - key.size());
}

bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool is_word(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
}
bool is_word_start(char c) { return is_word(c) && !(c >= '0' && c <= '9'); }

/// Member names of an aggregate config struct: one declaration per line,
/// `type name = default;` / `type name{...};` / `type name;`. A line
/// declares a member when, after leading blanks, a type (word characters,
/// `:<>,*&` and blanks) is followed by the name, and the name by blanks and
/// one of `=`, `{`, `;`.
std::vector<std::string> member_names(const std::string& body) {
  const auto in_type = [](char c) {
    return is_word(c) || is_space(c) || c == ':' || c == '<' || c == '>' || c == ',' ||
           c == '*' || c == '&';
  };
  std::vector<std::string> out;
  std::istringstream lines(body);
  std::string text;
  while (std::getline(lines, text)) {
    std::string_view line(text);
    line = line.substr(0, line.find("//"));
    std::size_t type = 0;
    while (type < line.size() && is_space(line[type])) ++type;
    if (type == line.size() || !is_word_start(line[type])) continue;
    std::size_t stop = type + 1;  // the first character outside type and name
    while (stop < line.size() && in_type(line[stop])) ++stop;
    if (stop == line.size() || (line[stop] != '=' && line[stop] != '{' && line[stop] != ';'))
      continue;
    std::size_t name_end = stop;
    while (name_end > type && is_space(line[name_end - 1])) --name_end;
    std::size_t name = name_end;
    while (name > type && is_word(line[name - 1])) --name;
    // The name starts with a non-digit and follows the type, after a blank,
    // `*` or `&`.
    if (name == name_end || !is_word_start(line[name]) || name < type + 2) continue;
    const char sep = line[name - 1];
    if (!is_space(sep) && sep != '*' && sep != '&') continue;
    out.emplace_back(line.substr(name, name_end - name));
  }
  return out;
}

/// The identifier that follows `at` after one or more blanks; empty when
/// there is none.
std::string_view name_after(std::string_view text, std::size_t at) {
  std::size_t name = at;
  while (name < text.size() && is_space(text[name])) ++name;
  if (name == at || name == text.size() || !is_word_start(text[name])) return {};
  std::size_t end = name;
  while (end < text.size() && is_word(text[end])) ++end;
  return text.substr(name, end - name);
}

/// Names of the types a struct body declares (`enum class Kind`, ...): the
/// identifier after the word `enum class`, `enum`, `struct`, `class` or
/// `using`.
std::vector<std::string> nested_type_names(const std::string& body) {
  std::vector<std::string> out;
  const std::string_view text(body);
  const auto end_of = [&text](std::string_view word) {
    return static_cast<std::size_t>(word.data() - text.data()) + word.size();
  };
  std::size_t i = 0;
  while (i < text.size()) {
    if (!is_word(text[i])) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && is_word(text[end])) ++end;
    const std::string_view word = text.substr(i, end - i);
    std::string_view name;
    if (word == "enum" || word == "struct" || word == "class" || word == "using")
      name = name_after(text, end);
    if (word == "enum" && name == "class") {
      const std::string_view scoped = name_after(text, end_of(name));
      if (!scoped.empty()) name = scoped;
    }
    i = name.empty() ? end : end_of(name);
    if (!name.empty()) out.emplace_back(name);
  }
  return out;
}

/// The knobs a doc section's table rows name: `| `knob` | ...`.
std::vector<std::string> knob_rows(const std::string& section) {
  std::vector<std::string> out;
  std::istringstream lines(section);
  std::string text;
  while (std::getline(lines, text)) {
    const std::string_view line(text);
    if (line.substr(0, 3) != "| `") continue;
    const std::size_t close = line.find('`', 3);
    if (close == std::string_view::npos || close == 3 || line.substr(close, 3) != "` |") continue;
    out.emplace_back(line.substr(3, close - 3));
  }
  return out;
}

/// The doc section for one struct: from its `## Name` heading to the next
/// `## ` heading (or EOF).
std::string doc_section(const std::string& doc, const std::string& name) {
  const std::string heading = "## " + name;
  const auto begin = doc.find(heading);
  if (begin == std::string::npos) return {};
  const auto end = doc.find("\n## ", begin + heading.size());
  return doc.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
}

}  // namespace

TEST(PlatformKnobs, EveryConfigStructMemberIsDocumentedAndEveryRowIsAMember) {
  const std::string src = VMSLS_SOURCE_DIR;
  const std::string doc = slurp(src + "/docs/PLATFORM_KNOBS.md");
  ASSERT_FALSE(doc.empty());

  // (header, struct) — every config aggregate a user can set, reachable
  // from PlatformSpec or taken directly by the harnesses (FramePoolConfig,
  // EngineConfig).
  const std::vector<std::pair<std::string, std::string>> structs = {
      {"src/sls/platform.hpp", "PlatformSpec"},
      {"src/sls/resources.hpp", "ResourceBudget"},
      {"src/mem/dram.hpp", "DramConfig"},
      {"src/mem/bus.hpp", "BusConfig"},
      {"src/mem/pagetable.hpp", "PageTableConfig"},
      {"src/mem/walker.hpp", "WalkerConfig"},
      {"src/mem/tlb.hpp", "TlbConfig"},
      {"src/mem/mmu.hpp", "MmuConfig"},
      {"src/mem/cache.hpp", "CacheConfig"},
      {"src/mem/cache.hpp", "CacheHierarchyConfig"},
      {"src/hwt/hw_port.hpp", "HwPortConfig"},
      {"src/hwt/engine.hpp", "CostModel"},
      {"src/hwt/engine.hpp", "EngineConfig"},
      {"src/rt/os.hpp", "OsConfig"},
      {"src/cpu/cpu.hpp", "CpuConfig"},
      {"src/mem/paging/pager.hpp", "PagerConfig"},
      {"src/mem/paging/swap_scheduler.hpp", "SwapConfig"},
      {"src/mem/paging/buffer_cache.hpp", "BufferCacheConfig"},
      {"src/mem/paging/frame_pool.hpp", "FramePoolConfig"},
      {"src/dma/dma_engine.hpp", "DmaConfig"},
      {"src/dma/offload.hpp", "OffloadConfig"},
      {"src/sim/telemetry.hpp", "TelemetryConfig"},
      {"src/sim/arrival.hpp", "ArrivalConfig"},
      {"src/sls/platform.hpp", "TrafficConfig"},
  };

  for (const auto& [header, name] : structs) {
    const std::string body = struct_body(slurp(src + "/" + header), name);
    ASSERT_FALSE(body.empty()) << "struct " << name << " not found in " << header
                               << " (update this test's table)";
    const auto members = member_names(body);
    EXPECT_FALSE(members.empty()) << name << ": member parser matched nothing";
    const std::string section = doc_section(doc, name);
    EXPECT_FALSE(section.empty())
        << "docs/PLATFORM_KNOBS.md has no `## " << name << "` section";
    for (const auto& member : members)
      EXPECT_NE(section.find("`" + member + "`"), std::string::npos)
          << "knob `" << member << "` of " << name
          << " is undocumented in its PLATFORM_KNOBS.md section";
    const auto types = nested_type_names(body);
    for (const auto& row : knob_rows(section)) {
      const bool declared = std::find(members.begin(), members.end(), row) != members.end() ||
                            std::find(types.begin(), types.end(), row) != types.end();
      EXPECT_TRUE(declared) << "PLATFORM_KNOBS.md documents `" << row << "` under " << name
                            << ", which declares no such member (a stale row?)";
    }
  }
}
