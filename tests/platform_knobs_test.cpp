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
#include <regex>
#include <sstream>
#include <string>
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

/// Member names of an aggregate config struct: one declaration per line,
/// `type name = default;` / `type name{...};` / `type name;`.
std::vector<std::string> member_names(const std::string& body) {
  static const std::regex member_re(
      R"(^\s*[A-Za-z_][\w:<>,\s\*&]*[\s&\*]([A-Za-z_]\w*)\s*(?:=|\{|;))");
  std::vector<std::string> out;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    const auto comment = line.find("//");
    if (comment != std::string::npos) line = line.substr(0, comment);
    std::smatch m;
    if (std::regex_search(line, m, member_re)) out.push_back(m[1].str());
  }
  return out;
}

/// Names of the types a struct body declares (`enum class Kind`, ...).
std::vector<std::string> nested_type_names(const std::string& body) {
  static const std::regex type_re(R"(\b(?:enum\s+class|enum|struct|class|using)\s+([A-Za-z_]\w*))");
  std::vector<std::string> out;
  for (std::sregex_iterator it(body.begin(), body.end(), type_re), end; it != end; ++it)
    out.push_back((*it)[1].str());
  return out;
}

/// The knobs a doc section's table rows name: `| `knob` | ...`.
std::vector<std::string> knob_rows(const std::string& section) {
  static const std::regex row_re(R"(^\| `([^`]+)` \|)");
  std::vector<std::string> out;
  std::istringstream lines(section);
  std::string line;
  while (std::getline(lines, line)) {
    std::smatch m;
    if (std::regex_search(line, m, row_re)) out.push_back(m[1].str());
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
