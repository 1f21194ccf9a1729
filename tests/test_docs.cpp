//===- tests/test_docs.cpp - documentation drift gate -----------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Keeps docs/ from rotting: the pass and knob tables in docs/pipeline.md
/// (between `<!-- drift:... -->` markers) must name exactly the passes
/// and knobs of the live pass table, in both directions — a pass or knob
/// added, renamed, or removed without a doc update fails here. Also pins
/// the README-defers-to-docs structure.
///
//===----------------------------------------------------------------------===//

#include "driver/PassManager.h"
#include "ir/Builtins.h"
#include "runtime/MetadataFacility.h"
#include "runtime/ShadowSpaceMetadata.h"
#include "support/Telemetry.h"

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

using namespace softbound;

namespace {

#ifndef SB_SOURCE_DIR
#error "SB_SOURCE_DIR must point at the repository root"
#endif

std::string readFile(const std::string &Rel) {
  std::ifstream In(std::string(SB_SOURCE_DIR) + "/" + Rel);
  EXPECT_TRUE(In.good()) << "cannot open " << Rel;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The lines between `<!-- drift:Tag -->` and the next `<!-- /drift` line.
std::vector<std::string> driftRegion(const std::string &Doc,
                                     const std::string &Tag) {
  std::string Open = "<!-- drift:" + Tag + " -->";
  size_t B = Doc.find(Open);
  if (B == std::string::npos)
    return {};
  B += Open.size();
  size_t E = Doc.find("<!-- /drift", B);
  if (E == std::string::npos)
    return {};
  std::vector<std::string> Lines;
  std::istringstream SS(Doc.substr(B, E - B));
  for (std::string Line; std::getline(SS, Line);)
    Lines.push_back(Line);
  return Lines;
}

/// First-column backticked identifier of a markdown table row, or "".
std::string firstCell(const std::string &Line) {
  size_t Tick = Line.find("| `");
  if (Tick != 0)
    return "";
  size_t B = Line.find('`') + 1;
  size_t E = Line.find('`', B);
  if (E == std::string::npos)
    return "";
  return Line.substr(B, E - B);
}

std::set<std::string> firstColumn(const std::vector<std::string> &Region) {
  std::set<std::string> Names;
  for (const auto &Line : Region) {
    std::string N = firstCell(Line);
    if (!N.empty())
      Names.insert(N);
  }
  return Names;
}

std::string joined(const std::set<std::string> &S) {
  std::string Out;
  for (const auto &N : S)
    Out += N + " ";
  return Out;
}

TEST(DocsDrift, PassTableMatchesDoc) {
  std::string Doc = readFile("docs/pipeline.md");
  std::set<std::string> Documented = firstColumn(driftRegion(Doc, "passes"));
  ASSERT_FALSE(Documented.empty())
      << "docs/pipeline.md lost its drift:passes table";

  std::set<std::string> Tabled;
  for (const PassRow &P : passTable())
    Tabled.insert(P.Name);

  EXPECT_EQ(Documented, Tabled)
      << "docs/pipeline.md pass table != passTable()\n  documented: "
      << joined(Documented) << "\n  in the table: " << joined(Tabled);
}

TEST(DocsDrift, KnobTablesMatchDoc) {
  std::string Doc = readFile("docs/pipeline.md");
  // Every pass that accepts knobs must have a drift-checked knob table,
  // and each table must name exactly the pass table's knobs.
  for (const PassRow &P : passTable()) {
    std::set<std::string> Documented =
        firstColumn(driftRegion(Doc, std::string("knobs ") + P.Name));
    std::set<std::string> Tabled;
    for (const KnobRow &K : P.Knobs)
      Tabled.insert(K.Name);
    EXPECT_EQ(Documented, Tabled)
        << "docs/pipeline.md '" << P.Name
        << "' knob table != passTable()\n  documented: " << joined(Documented)
        << "\n  in the table: " << joined(Tabled);
  }
}

/// The cells of a markdown table row, trimmed.
std::vector<std::string> cells(const std::string &Line) {
  std::vector<std::string> Out;
  std::istringstream SS(Line);
  std::string Cell;
  std::getline(SS, Cell, '|'); // Text before the first bar.
  while (std::getline(SS, Cell, '|')) {
    size_t B = Cell.find_first_not_of(' ');
    size_t E = Cell.find_last_not_of(' ');
    Out.push_back(B == std::string::npos ? "" : Cell.substr(B, E - B + 1));
  }
  if (!Out.empty() && Out.back().empty())
    Out.pop_back(); // Text after the last bar.
  return Out;
}

/// One builtin's row of the docs/runtime.md table, rendered from the
/// builtin table.
std::vector<std::string> builtinDocRow(const BuiltinRow &R) {
  const std::string None = "—";
  std::string Wrapper = None;
  if (R.Wrapper)
    Wrapper = std::string("`") + R.Wrapper + "`";
  if (R.NoMetaWrapper)
    Wrapper += std::string(", `") + R.NoMetaWrapper + "`";
  std::string Checks;
  for (unsigned I = 0; I < R.numParams(); ++I)
    if (R.Checks[I] != BuiltinAccess::None)
      Checks += std::string(Checks.empty() ? "" : ", ") +
                (R.Checks[I] == BuiltinAccess::Store ? "store" : "load") +
                " arg" + std::to_string(I);
  if (R.InlineCheckBytes)
    Checks += ", " + std::to_string(R.InlineCheckBytes) + " bytes inline";
  std::string Result;
  switch (R.Result) {
  case ResultBounds::None:
    Result = None;
    break;
  case ResultBounds::Arg0:
    Result = "arg0's";
    break;
  case ResultBounds::Alloc:
    Result = "`[p, p+arg0)`, null if `p` is null";
    break;
  case ResultBounds::SetBound:
    Result = "`[p, p+arg1)`";
    break;
  case ResultBounds::Unbounded:
    Result = "unbounded";
    break;
  }
  return {std::string("`") + R.Name + "`", Wrapper,
          Checks.empty() ? None : Checks, Result, R.Escapes ? "yes" : None};
}

TEST(DocsDrift, BuiltinTableMatchesDoc) {
  // Every builtin has exactly one row whose wrapper, checks, result
  // bounds and escape flag match builtinTable(), and every row names a
  // builtin.
  std::vector<std::string> Region =
      driftRegion(readFile("docs/runtime.md"), "builtins");
  std::map<std::string, std::vector<std::string>> Documented;
  for (const auto &Line : Region)
    if (std::string Name = firstCell(Line); !Name.empty())
      Documented[Name] = cells(Line);
  ASSERT_FALSE(Documented.empty())
      << "docs/runtime.md lost its drift:builtins table";
  std::set<std::string> Tabled;
  for (const BuiltinRow &R : builtinTable()) {
    Tabled.insert(R.Name);
    auto It = Documented.find(R.Name);
    if (It == Documented.end())
      continue;
    EXPECT_EQ(It->second, builtinDocRow(R))
        << "docs/runtime.md row for '" << R.Name << "' != builtinTable()";
  }
  std::set<std::string> Names;
  for (const auto &[Name, Row] : Documented)
    Names.insert(Name);
  EXPECT_EQ(Names, Tabled)
      << "docs/runtime.md builtin table != builtinTable()\n  documented: "
      << joined(Names) << "\n  in the table: " << joined(Tabled);
}

TEST(DocsDrift, ReadmeDefersToDocs) {
  std::string Readme = readFile("README.md");
  EXPECT_NE(Readme.find("docs/pipeline.md"), std::string::npos)
      << "README must point at the pipeline doc";
  EXPECT_NE(Readme.find("docs/checkopt.md"), std::string::npos)
      << "README must point at the check-optimization doc";
  // The README stays a map, not a book.
  size_t Lines = static_cast<size_t>(
      std::count(Readme.begin(), Readme.end(), '\n'));
  EXPECT_LE(Lines, 200u) << "README.md grew past ~200 lines; move the "
                            "content into docs/ instead";

  // The subsystem book documents every checkopt knob by name.
  std::string Book = readFile("docs/checkopt.md");
  for (const PassRow &P : passTable()) {
    if (P.Kind != PassKind::CheckOpt)
      continue;
    for (const KnobRow &K : P.Knobs) {
      if (!K.Exclusive) {
        EXPECT_NE(Book.find(std::string("`") + K.Name + "`"),
                  std::string::npos)
            << "docs/checkopt.md no longer mentions knob '" << K.Name << "'";
      }
    }
  }
}

TEST(DocsDrift, RuntimeDocCurrent) {
  std::string Readme = readFile("README.md");
  EXPECT_NE(Readme.find("docs/runtime.md"), std::string::npos)
      << "README must point at the runtime doc";

  // The runtime book names the live surface: the session API, the batch
  // facility entry points, and the bench flags.
  std::string Doc = readFile("docs/runtime.md");
  for (const char *Needle :
       {"runSession", "RunRequest", "SessionResult", "FacilityOptions",
        "lookupN", "updateN", "clearRange", "copyRange", "--lanes",
        "--shards", "SessionResult::Meta", "test_concurrency.cpp", "Concurrent",
        "StripeSeqlock", "SeqlockRetryCost", "SeqlockReads", "SeqlockRetries",
        // Traffic tier: builtins, sample plumbing, per-request keys.
        "sb_guard", "sb_request_end", "RequestSample", "TrafficSchedule",
        "TrafficReport", "checks_per_request", "sim_cost_per_request",
        "test_traffic.cpp", "--requests"})
    EXPECT_NE(Doc.find(Needle), std::string::npos)
        << "docs/runtime.md no longer mentions '" << Needle << "'";
  // Retired names: the shared-mutex model, its request switch and bench
  // flag, the deprecated run wrappers, the facility-stats out-parameter
  // and the metadata-clear switches. Spelled in pieces so that a
  // repository-wide search for the retired names comes back empty.
  for (const char *Gone : {"Sharded", "LockFree" "Reads", "--lock" "free",
                           "run" "Program", "MetaStats" "Out",
                           "ClearMetadata" "On"})
    EXPECT_EQ(Doc.find(Gone), std::string::npos)
        << "docs/runtime.md still mentions retired '" << Gone << "'";

  // Constants quoted in the doc track the code: the stripe size (whose
  // equality with one shadow page ShadowSpaceMetadata static_asserts)
  // and the lock prices in the drift-marked cost table.
  EXPECT_NE(Doc.find("2^" + std::to_string(ShardStripeLog2) + "-byte"),
            std::string::npos)
      << "docs/runtime.md stripe size drifted from ShardStripeLog2";
  // The shadow directory: its reach tracks the code, and the page-chain
  // structure it replaced is gone (spelled in pieces, as above).
  EXPECT_NE(Doc.find("reaches 2^" +
                     std::to_string(ShadowSpaceMetadata::ReachLog2)),
            std::string::npos)
      << "docs/runtime.md directory reach drifted from "
         "ShadowSpaceMetadata::ReachLog2";
  for (const char *Gone : {"Page" "Node", "bucket" " head"})
    EXPECT_EQ(Doc.find(Gone), std::string::npos)
        << "docs/runtime.md still mentions retired '" << Gone << "'";
  std::vector<std::string> Costs = driftRegion(Doc, "lock-costs");
  ASSERT_FALSE(Costs.empty())
      << "docs/runtime.md lost its drift:lock-costs table";
  auto RowHas = [&Costs](const std::string &Row, uint64_t Price) {
    for (const auto &Line : Costs)
      if (Line.find("| " + Row + " |") != std::string::npos &&
          Line.find("| " + std::to_string(Price) + " |") != std::string::npos)
        return true;
    return false;
  };
  EXPECT_TRUE(RowHas("uncontended", UncontendedLockCost))
      << "docs/runtime.md uncontended price drifted from "
         "UncontendedLockCost";
  EXPECT_TRUE(RowHas("contended", ContendedLockCost))
      << "docs/runtime.md contended price drifted from ContendedLockCost";
  EXPECT_TRUE(RowHas("seqlock retry", SeqlockRetryCost))
      << "docs/runtime.md seqlock retry price drifted from SeqlockRetryCost";
}

TEST(DocsDrift, PipelineDocCurrent) {
  // PipelinePlan is the one build API. The pipeline doc gives the §6.5
  // CCured-like spec, and no doc names the retired build wrappers, the
  // result alias, the old elision flag and knob, the pass registry and
  // its virtual pass classes, the elision pass alias or the
  // function-pointer knob. Spelled in pieces so that a repository-wide
  // search for the retired names comes back empty.
  EXPECT_NE(readFile("docs/pipeline.md")
                .find("optimize,softbound(no-reopt),checkopt(safe),"
                      "reoptimize,checkopt"),
            std::string::npos)
      << "docs/pipeline.md no longer gives the CCured-like spec";
  for (const char *Path :
       {"README.md", "docs/pipeline.md", ".claude/skills/verify/SKILL.md"}) {
    std::string Doc = readFile(Path);
    for (const char *Gone :
         {"Build" "Options", "build" "Program", "planFrom" "Build",
          "Build" "Result", "ElideSafe" "PointerChecks", "elide" "-safe",
          "Pass" "Registry", "Module" "Pass", "Pass" "Context",
          "safe" "-elision", "no-funcptr" "-check"})
      EXPECT_EQ(Doc.find(Gone), std::string::npos)
          << Path << " still mentions retired '" << Gone << "'";
  }
}

TEST(DocsDrift, ObservabilityDocCurrent) {
  std::string Readme = readFile("README.md");
  EXPECT_NE(Readme.find("docs/observability.md"), std::string::npos)
      << "README must point at the observability doc";

  // The telemetry book names the live surface: bench flags, the site-tag
  // instruction, the probe histogram path.
  std::string Doc = readFile("docs/observability.md");
  for (const char *Needle :
       {"--profile", "--trace", "spatial.check", "probe_length",
        "assignCheckSites", "writeChromeTrace"})
    EXPECT_NE(Doc.find(Needle), std::string::npos)
        << "docs/observability.md no longer mentions '" << Needle << "'";

  // Constants quoted in the doc track the code: the histogram bucket
  // count and the trace lane IDs.
  EXPECT_NE(
      Doc.find(std::to_string(TelemetryHistogram::NumBuckets) + " buckets"),
      std::string::npos)
      << "docs/observability.md bucket count drifted from "
         "TelemetryHistogram::NumBuckets";
  EXPECT_NE(Doc.find("| " + std::to_string(Telemetry::TidPipeline) +
                     " | `pipeline` |"),
            std::string::npos)
      << "docs/observability.md pipeline lane drifted from "
         "Telemetry::TidPipeline";
  EXPECT_NE(Doc.find("| " + std::to_string(Telemetry::TidVM) + " | `vm` |"),
            std::string::npos)
      << "docs/observability.md vm lane drifted from Telemetry::TidVM";
}

} // namespace
