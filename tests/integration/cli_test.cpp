//===- tests/integration/cli_test.cpp - perc exit-status contract --------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the perc CLI's process-level contract, on both VM tiers (the
/// default peephole tier and --no-peephole): clean runs exit 0; trapped
/// runs (injected OOM, fuel exhaustion, runtime errors) exit non-zero —
/// including parallel runs where only workers trap; and unknown flags
/// and flag values are rejected before any execution. The VM is the
/// only engine: `--engine` is an unknown flag, and a request naming an
/// engine other than "vm" is a bad-request.
/// Programs wider than the runtime encodings, nested deeper than the
/// parser's depth budget, or whose matches expand past the resolver's
/// body budget, are compile errors.
/// Scripts and CI gate on these codes, so they are part of the API.
///
//===----------------------------------------------------------------------===//

#include "../lang/DeepPrograms.h"
#include "ir/Program.h"
#include "support/JsonWriter.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifdef _WIN32
#error "this test drives the CLI through POSIX wait status macros"
#endif
#include <sys/wait.h>

namespace {

/// Runs perc with \p ArgsLine, output discarded; returns the exit code.
int runPerc(const std::string &ArgsLine) {
  std::string Cmd =
      std::string(PERCEUS_PERC_PATH) + " " + ArgsLine + " >/dev/null 2>&1";
  int Status = std::system(Cmd.c_str());
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::string prog(const char *Name) {
  return std::string(PERCEUS_EXAMPLE_PROGRAMS_DIR) + "/" + Name;
}

/// The two VM tiers as perc flags.
const char *const Tiers[] = {"", " --no-peephole"};

TEST(PercCli, CleanRunsExitZeroOnBothTiers) {
  for (const std::string E : Tiers) {
    EXPECT_EQ(runPerc(prog("nqueens.perc") + E + " 6"), 0) << E;
    EXPECT_EQ(runPerc(prog("hello.perc") + E + " 5"), 0) << E;
  }
}

TEST(PercCli, TrappedRunsExitNonZeroOnBothTiers) {
  for (const std::string E : Tiers) {
    // Injected allocation failure -> OutOfMemory trap.
    EXPECT_EQ(runPerc(prog("nqueens.perc") + E + " --fail-alloc=5 6"), 1)
        << E;
    // Fuel exhaustion -> OutOfFuel trap.
    EXPECT_EQ(runPerc(prog("nqueens.perc") + E + " --fuel=100 6"), 1) << E;
    // Entry arity mismatch -> RuntimeError trap (main wants an argument).
    EXPECT_EQ(runPerc(prog("nqueens.perc") + E), 1) << E;
  }
}

TEST(PercCli, ParallelWorkerTrapsExitNonZero) {
  for (const std::string E : Tiers) {
    std::string Shared = prog("shared_tree.perc") + E +
                         " --workers=2 --entry=bench_shared_sum"
                         " --shared-input=build_tree --shared-arg=4";
    EXPECT_EQ(runPerc(Shared + " 5"), 0) << E;
    // Every worker runs out of fuel mid-traversal; the builder succeeded,
    // so only worker traps decide the exit code.
    EXPECT_EQ(runPerc(Shared + " --fuel=500 100000"), 1) << E;
  }
}

TEST(PercCli, OverflowBoundaryTrapsExitNonZero) {
  // IntMin / -1, IntMin % -1 and -IntMin overflow the VM's 63-bit
  // integers; the pinned contract is a structured trap — exit 1, not a
  // crash and not a wrapped value — on both VM tiers.
  std::string Div = testing::TempDir() + "/overflow_div.perc";
  std::ofstream(Div) << "fun main(a, b) { a / b }\n";
  std::string Mod = testing::TempDir() + "/overflow_mod.perc";
  std::ofstream(Mod) << "fun main(a, b) { a % b }\n";
  std::string Neg = testing::TempDir() + "/overflow_neg.perc";
  std::ofstream(Neg) << "fun main(n) { -n }\n";
  const std::string IntMin = "-4611686018427387904";
  for (const std::string E : Tiers) {
    EXPECT_EQ(runPerc(Div + " " + E + " " + IntMin + " -1"), 1) << E;
    EXPECT_EQ(runPerc(Mod + " " + E + " " + IntMin + " -1"), 1) << E;
    EXPECT_EQ(runPerc(Neg + " " + E + " " + IntMin), 1) << E;
    // The boundary operands themselves stay computable: only the
    // overflowing results trap.
    EXPECT_EQ(runPerc(Div + " " + E + " " + IntMin + " 2"), 0) << E;
    EXPECT_EQ(runPerc(Neg + " " + E + " 7"), 0) << E;
  }
}

/// Runs perc with \p ArgsLine; returns its stdout and stderr together and
/// stores the exit code in \p ExitCode.
std::string runPercCapture(const std::string &ArgsLine, int &ExitCode) {
  std::string OutPath = testing::TempDir() + "/perc_capture.txt";
  std::string Cmd = std::string(PERCEUS_PERC_PATH) + " " + ArgsLine + " > " +
                    OutPath + " 2>&1";
  int Status = std::system(Cmd.c_str());
  ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  std::stringstream Out;
  Out << std::ifstream(OutPath).rdbuf();
  return Out.str();
}

TEST(PercCli, OverWideProgramsAreCompileErrorsOnBothTiers) {
  // Cell headers store a constructor's arity in one byte and call
  // instructions their argument count: a 300-field constructor or a
  // 300-argument call is a compile error, never a truncated run.
  std::string Fields, Args;
  for (int I = 0; I != 300; ++I) {
    Fields += (I ? ", f" : "f") + std::to_string(I);
    Args += I ? ", n" : "n";
  }
  std::string Ctor = testing::TempDir() + "/wide_ctor.perc";
  std::ofstream(Ctor) << "type big { Big(" << Fields << ") }\n"
                      << "fun main(n) { val b = Big(" << Args << "); n }\n";
  std::string Call = testing::TempDir() + "/wide_call.perc";
  std::ofstream(Call) << "fun main(n) { val f = fn(x) x; f(" << Args
                      << ") }\n";
  for (const std::string E : Tiers) {
    int Exit = -1;
    std::string Out = runPercCapture(Ctor + E + " 4", Exit);
    EXPECT_EQ(Exit, 1) << E;
    EXPECT_NE(Out.find("constructor 'Big' has 300 fields"), std::string::npos)
        << E << ": " << Out;
    Out = runPercCapture(Call + E + " 4", Exit);
    EXPECT_EQ(Exit, 1) << E;
    EXPECT_NE(Out.find("call has 300 arguments"), std::string::npos)
        << E << ": " << Out;
  }
}

TEST(PercCli, AddSubMulOverflowTrapsWithItsMessage) {
  // + - * whose exact result leaves the 63-bit range trap instead of
  // wrapping, on both VM tiers; the constant forms run fused on the
  // peephole VM.
  struct Case {
    const char *Name;
    const char *Source;
    std::string Args;
    const char *Msg;
  };
  const std::string Max = "4611686018427387903";
  const std::string Min = "-4611686018427387904";
  std::vector<Case> Cases = {
      {"add", "fun main(a, b) { a + b }", Max + " 1", "in addition"},
      {"sub", "fun main(a, b) { a - b }", Min + " 1", "in subtraction"},
      {"mul", "fun main(a, b) { a * b }", Max + " 2", "in multiplication"},
      {"inc", "fun main(n) { n + 1 }", Max, "in addition"},
      {"dec", "fun main(n) { n - 1 }", Min, "in subtraction"},
      {"dbl", "fun main(n) { 2 * n }", Max, "in multiplication"},
  };
  for (const Case &C : Cases) {
    std::string File = testing::TempDir() + "/overflow_" + C.Name + ".perc";
    std::ofstream(File) << C.Source << "\n";
    for (const std::string E : Tiers) {
      int Exit = -1;
      std::string Out = runPercCapture(File + " " + E + " " + C.Args, Exit);
      EXPECT_EQ(Exit, 1) << C.Name << " " << E;
      EXPECT_NE(Out.find(std::string("integer overflow ") + C.Msg),
                std::string::npos)
          << C.Name << " " << E << ": " << Out;
    }
  }
}

TEST(PercCli, BadFlagValuesAreRejected) {
  EXPECT_EQ(runPerc(prog("nqueens.perc") + " --config=bogus 6"), 1);
  EXPECT_NE(runPerc("/no/such/file.perc"), 0);
  // Integers on the command line are range-checked: neither an argument
  // nor a count is clamped, wrapped or read as zero.
  for (const char *Args :
       {" abc", " 99999999999999999999", " -9223372036854775809",
        " 4611686018427387904", " -4611686018427387905",
        " --fuel=99999999999999999999 3", " --fuel=-1 3",
        " --max-depth=abc 3"})
    EXPECT_EQ(runPerc(prog("hello.perc") + Args), 1) << Args;
  EXPECT_EQ(runPerc(prog("hello.perc") + " --fuel=18446744073709551615 3"),
            0);
}

TEST(PercCli, PassStatsListsEachStageAndThePeepholeTotal) {
  // `--pass-stats` prints one row per pipeline stage that ran, in order,
  // then the peephole table, which ends in its total row.
  const std::vector<std::pair<const char *, std::vector<std::string>>>
      Stages = {
          {"gc", {"input"}},
          {"scoped-rc", {"input", "scoped rc insertion (2.2)"}},
          {"perceus-noopt", {"input", "perceus insertion (2.2)"}},
          {"perceus",
           {"input", "perceus insertion (2.2)", "reuse analysis (2.4)",
            "drop specialization (2.3)", "dup push-down + fusion (2.3)"}},
          {"perceus-borrow",
           {"input", "perceus insertion + borrow (6)", "reuse analysis (2.4)",
            "drop specialization (2.3)", "dup push-down + fusion (2.3)"}},
      };
  for (const auto &[Config, Expected] : Stages) {
    int Exit = -1;
    std::string Out = runPercCapture(
        prog("msort.perc") + " --pass-stats --config=" + Config, Exit);
    EXPECT_EQ(Exit, 0) << Config << ": " << Out;
    std::vector<std::string> Lines;
    std::istringstream In(Out);
    for (std::string L; std::getline(In, L);)
      Lines.push_back(L);
    ASSERT_GE(Lines.size(), 2u) << Config << ": " << Out;
    EXPECT_EQ(Lines[0], std::string("config: ") + Config);
    // Stage rows follow the header up to the blank line; the stage name
    // fills the first 34 columns.
    std::vector<std::string> Rows;
    size_t I = 2;
    for (; I < Lines.size() && !Lines[I].empty(); ++I) {
      std::string Name = Lines[I].substr(0, 34);
      Rows.push_back(Name.substr(0, Name.find_last_not_of(' ') + 1));
    }
    EXPECT_EQ(Rows, Expected) << Config << ": " << Out;
    ASSERT_LT(I + 1, Lines.size()) << Config << ": " << Out;
    EXPECT_EQ(Lines[I + 1].rfind("peephole", 0), 0u) << Config << ": " << Out;
    EXPECT_EQ(Lines.back().rfind("total ", 0), 0u) << Config << ": " << Out;
  }
}

TEST(PercCli, EngineFlagIsAnUnknownFlag) {
  // One engine, no selector: every spelling of --engine is a usage error
  // (exit 1, like any unknown flag), and the program never runs.
  for (const char *E : {"--engine=vm", "--engine=cek", "--engine=jit"}) {
    int Exit = -1;
    std::string Out =
        runPercCapture(prog("nqueens.perc") + " " + E + " 6", Exit);
    EXPECT_EQ(Exit, 1) << E;
    EXPECT_NE(Out.find("usage: perc"), std::string::npos) << E << ": " << Out;
  }
}

/// Runs `perc <ArgsLine>` with \p StdinText on stdin; returns stdout
/// lines and stores the exit code in \p ExitCode.
std::vector<std::string> runPercServe(const std::string &ArgsLine,
                                      const std::string &StdinText,
                                      int &ExitCode) {
  std::string InPath = testing::TempDir() + "/perc_serve_in.txt";
  std::string OutPath = testing::TempDir() + "/perc_serve_out.txt";
  std::ofstream(InPath) << StdinText;
  std::string Cmd = std::string(PERCEUS_PERC_PATH) + " " + ArgsLine + " < " +
                    InPath + " > " + OutPath + " 2>/dev/null";
  int Status = std::system(Cmd.c_str());
  ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  std::vector<std::string> Lines;
  std::ifstream Out(OutPath);
  for (std::string Line; std::getline(Out, Line);)
    Lines.push_back(Line);
  return Lines;
}

TEST(PercCli, ServeModeMalformedLinesGetStructuredBadRequestJson) {
  // One response line per request line: a valid positional request, a
  // JSON request with an unknown key, a bogus option, and a valid JSON
  // request. Malformed lines must come back as structured "bad-request"
  // responses naming the offending line — never a crash, never a silent
  // skip, and never a nonzero exit for the whole serve. (Bad lines are
  // answered immediately while valid ones are in flight, so assertions
  // scan the output rather than assuming submission order.)
  // Lines 5-8 carry integers past their range, positionally and in JSON,
  // as arguments and as counts.
  int Exit = -1;
  std::vector<std::string> Lines =
      runPercServe(prog("hello.perc") + " --serve",
                   "main 5\n"
                   "{\"entry\":\"main\",\"bogus\":1}\n"
                   "--frobnicate=3 5\n"
                   "{\"entry\":\"main\",\"args\":[5]}\n"
                   "main 99999999999999999999\n"
                   "main 5 --fuel=99999999999999999999\n"
                   "{\"entry\":\"main\",\"args\":[99999999999999999999]}\n"
                   "{\"entry\":\"main\",\"args\":[5],"
                   "\"fuel\":99999999999999999999}\n",
                   Exit);
  EXPECT_EQ(Exit, 0);
  ASSERT_EQ(Lines.size(), 8u);
  unsigned Ok = 0, Bad = 0, OutOfRange = 0;
  bool SawUnknownKey = false, SawUnknownOption = false;
  for (const std::string &L : Lines) {
    if (L.find("\"status\":\"ok\"") != std::string::npos)
      ++Ok;
    if (L.find("\"status\":\"bad-request\"") != std::string::npos)
      ++Bad;
    if (L.find("line 2") != std::string::npos &&
        L.find("unknown key") != std::string::npos)
      SawUnknownKey = true;
    if (L.find("line 3") != std::string::npos &&
        L.find("unknown request option") != std::string::npos)
      SawUnknownOption = true;
    for (const char *Line : {"line 5", "line 6", "line 7", "line 8"})
      if (L.find(Line) != std::string::npos &&
          L.find("out of range") != std::string::npos)
        ++OutOfRange;
  }
  EXPECT_EQ(Ok, 2u);
  EXPECT_EQ(Bad, 6u);
  EXPECT_TRUE(SawUnknownKey);
  EXPECT_TRUE(SawUnknownOption);
  EXPECT_EQ(OutOfRange, 4u);
}

TEST(PercCli, ServeModeSpeaksTheVersionedWireSchema) {
  // stdin serve is a transport over the same dispatcher as --listen:
  // every response line is a perceus-wire-v1 document whose seq is the
  // input line number and whose shard is stamped by the router.
  int Exit = -1;
  std::vector<std::string> Lines =
      runPercServe(prog("hello.perc") + " --serve --shards=2",
                   "{\"entry\":\"main\",\"args\":[5]}\n"
                   "{\"schema\":\"perceus-wire-v1\",\"entry\":\"main\","
                   "\"args\":[6]}\n"
                   "{\"schema\":\"perceus-wire-v0\",\"entry\":\"main\"}\n",
                   Exit);
  EXPECT_EQ(Exit, 0);
  ASSERT_EQ(Lines.size(), 3u);
  // Bad lines are answered immediately while valid ones drain later, so
  // scan rather than assume order.
  bool SawSeq1Ok = false, SawSeq2Ok = false, SawSchemaReject = false;
  for (const std::string &L : Lines) {
    EXPECT_NE(L.find("\"schema\":\"perceus-wire-v1\""), std::string::npos)
        << L;
    EXPECT_NE(L.find("\"shard\":"), std::string::npos) << L;
    if (L.find("\"seq\":1") != std::string::npos &&
        L.find("\"status\":\"ok\"") != std::string::npos)
      SawSeq1Ok = true;
    if (L.find("\"seq\":2") != std::string::npos &&
        L.find("\"status\":\"ok\"") != std::string::npos)
      SawSeq2Ok = true;
    // A request naming a future schema version is a structured reject.
    if (L.find("\"seq\":3") != std::string::npos &&
        L.find("\"status\":\"bad-request\"") != std::string::npos &&
        L.find("unsupported schema") != std::string::npos)
      SawSchemaReject = true;
  }
  EXPECT_TRUE(SawSeq1Ok);
  EXPECT_TRUE(SawSeq2Ok);
  EXPECT_TRUE(SawSchemaReject);
}

TEST(PercCli, ServeModeThreadsTenantThroughResponses) {
  int Exit = -1;
  std::vector<std::string> Lines =
      runPercServe(prog("hello.perc") + " --serve --tenant=acme",
                   "main 5\n"
                   "{\"entry\":\"main\",\"args\":[5],\"tenant\":\"other\"}\n",
                   Exit);
  EXPECT_EQ(Exit, 0);
  ASSERT_EQ(Lines.size(), 2u);
  // The default tenant comes from the flag; a per-line tenant overrides.
  EXPECT_NE(Lines[0].find("\"tenant\":\"acme\""), std::string::npos)
      << Lines[0];
  EXPECT_NE(Lines[1].find("\"tenant\":\"other\""), std::string::npos)
      << Lines[1];
}

/// The line of \p Lines whose service object carries "seq":\p Seq, or
/// an empty string.
std::string lineWithSeq(const std::vector<std::string> &Lines, int Seq) {
  std::string Key = "\"seq\":" + std::to_string(Seq) + ",";
  for (const std::string &L : Lines)
    if (L.find(Key) != std::string::npos)
      return L;
  return "";
}

TEST(PercCli, ServeModeCarriesTheTrapMessageAndTheAnswer) {
  // A trapped request names its trap in service.error; a clean one
  // carries the program's value in run.result (an integer, a boolean,
  // or null when the value is not an immediate). Both VM tiers.
  std::string Div = testing::TempDir() + "/serve_div.perc";
  std::ofstream(Div) << "fun main(a, b) { a / b }\n";
  std::string Cmp = testing::TempDir() + "/serve_cmp.perc";
  std::ofstream(Cmp) << "fun main(n) { n > 3 }\n";
  for (const std::string E : Tiers) {
    int Exit = -1;
    std::vector<std::string> Lines = runPercServe(
        Div + " --serve" + E,
        "{\"entry\":\"main\",\"args\":[-4611686018427387904,-1]}\n"
        "{\"entry\":\"main\",\"args\":[-4611686018427387904,2]}\n"
        "{\"entry\":\"main\",\"args\":[10,0]}\n",
        Exit);
    EXPECT_EQ(Exit, 0) << E;
    ASSERT_EQ(Lines.size(), 3u) << E;
    std::string Overflow = lineWithSeq(Lines, 1);
    EXPECT_NE(Overflow.find("\"error\":\"integer overflow in division\""),
              std::string::npos)
        << E << ": " << Overflow;
    EXPECT_NE(Overflow.find("\"result\":null"), std::string::npos)
        << E << ": " << Overflow;
    std::string Clean = lineWithSeq(Lines, 2);
    EXPECT_NE(Clean.find("\"result\":-2305843009213693952,"),
              std::string::npos)
        << E << ": " << Clean;
    EXPECT_NE(Clean.find("\"error\":\"\""), std::string::npos)
        << E << ": " << Clean;
    std::string DivZero = lineWithSeq(Lines, 3);
    EXPECT_NE(DivZero.find("\"error\":\"division by zero\""),
              std::string::npos)
        << E << ": " << DivZero;

    Lines = runPercServe(Cmp + " --serve" + E, "main 5\nmain 2\n", Exit);
    EXPECT_EQ(Exit, 0) << E;
    ASSERT_EQ(Lines.size(), 2u) << E;
    EXPECT_NE(lineWithSeq(Lines, 1).find("\"result\":true,"),
              std::string::npos)
        << E << ": " << Lines[0];
    EXPECT_NE(lineWithSeq(Lines, 2).find("\"result\":false,"),
              std::string::npos)
        << E << ": " << Lines[1];
  }
}

TEST(PercCli, ServeRunsEveryRequestOnTheVm) {
  // A request that omits "engine" and one that names "vm" run the same
  // VM: msort 24 under perceus takes 2823 peephole-VM instructions.
  int Exit = -1;
  std::vector<std::string> Lines =
      runPercServe(prog("msort.perc") + " --serve",
                   "{\"entry\":\"main\",\"args\":[24]}\n"
                   "{\"entry\":\"main\",\"args\":[24],\"engine\":\"vm\"}\n",
                   Exit);
  EXPECT_EQ(Exit, 0);
  ASSERT_EQ(Lines.size(), 2u);
  for (int Seq : {1, 2}) {
    std::string L = lineWithSeq(Lines, Seq);
    EXPECT_NE(L.find("\"status\":\"ok\""), std::string::npos) << L;
    EXPECT_NE(L.find("\"steps\":2823,"), std::string::npos) << L;
  }
}

TEST(PercCli, ServeRejectsTheRetiredEngineAndLivesOn) {
  // "engine":"cek" is a structured bad-request naming the engine, not an
  // alias (CEK fuel counted expression nodes, VM fuel counts
  // instructions), and the next request on the stream is answered.
  int Exit = -1;
  std::vector<std::string> Lines =
      runPercServe(prog("hello.perc") + " --serve",
                   "{\"entry\":\"main\",\"args\":[5],\"engine\":\"cek\"}\n"
                   "{\"entry\":\"main\",\"args\":[5]}\n",
                   Exit);
  EXPECT_EQ(Exit, 0);
  ASSERT_EQ(Lines.size(), 2u);
  std::string Bad = lineWithSeq(Lines, 1);
  EXPECT_NE(Bad.find("\"status\":\"bad-request\""), std::string::npos) << Bad;
  EXPECT_NE(Bad.find("unknown engine \\\"cek\\\""), std::string::npos) << Bad;
  std::string Next = lineWithSeq(Lines, 2);
  EXPECT_NE(Next.find("\"status\":\"ok\""), std::string::npos) << Next;
  EXPECT_NE(Next.find("\"executed\":true"), std::string::npos) << Next;
}

TEST(PercCli, SameTagMatchOfAnotherTypeNeverCrashes) {
  // A constructor arm binds only its own type's values: a same-tag value
  // of another type reaches the default arm (exit 0) or the
  // non-exhaustive-match trap (exit 1), never a read of fields it lacks.
  const char *Enums = "type a { A0  A1 }\ntype b { B0  B1(x) }\n";
  const char *Cells = "type a { A0  A1(x, y) }\ntype b { B0  B1(x, y, z) }\n";
  struct Case {
    const char *Name;
    std::string Source;
    int Exit;
  };
  std::vector<Case> Cases = {
      {"enum_default",
       std::string(Enums) + "fun main(n) { match A1 { B1(x) -> x  _ -> 0 } }",
       0},
      {"enum_no_default",
       std::string(Enums) + "fun main(n) { match A1 { B1(x) -> x  B0 -> 1 } }",
       1},
      {"cell_default",
       std::string(Cells) +
           "fun main(n) { match A1(n, n) { B1(x, y, z) -> x + y + z  "
           "_ -> 0 } }",
       0},
      {"cell_no_default",
       std::string(Cells) +
           "fun main(n) { match A1(n, n) { B1(x, y, z) -> x + y + z  "
           "B0 -> 1 } }",
       1},
  };
  for (const Case &C : Cases) {
    std::string File = testing::TempDir() + "/match_" + C.Name + ".perc";
    std::ofstream(File) << C.Source << "\n";
    for (const std::string E : Tiers) {
      EXPECT_EQ(runPerc(File + " " + E + " 5"), C.Exit) << C.Name << " " << E;
    }
    // A serving process answers the request and lives on.
    int Exit = -1;
    std::vector<std::string> Lines =
        runPercServe(File + " --serve", "main 5\n", Exit);
    EXPECT_EQ(Exit, 0) << C.Name;
    ASSERT_EQ(Lines.size(), 1u) << C.Name;
    EXPECT_NE(Lines[0].find("\"status\":\"ok\""), std::string::npos)
        << Lines[0];
    EXPECT_EQ(Lines[0].find("\"trap\":\"runtime-error\"") != std::string::npos,
              C.Exit == 1)
        << Lines[0];
    // The default arm answers 0; the trap names the failed match.
    EXPECT_NE(Lines[0].find(C.Exit == 1 ? "\"error\":\"non-exhaustive match\""
                                        : "\"result\":0,"),
              std::string::npos)
        << Lines[0];
  }
}

TEST(PercCli, EveryShapeAtTheDepthBudgetCompilesAndRunsOnBothTiers) {
  std::vector<perceus::DeepProgram> Shapes =
      perceus::deepPrograms(perceus::MaxExprDepth);
  for (size_t I = 0; I != Shapes.size(); ++I) {
    std::string File =
        testing::TempDir() + "/deep_ok_" + std::to_string(I) + ".perc";
    std::ofstream(File) << Shapes[I].Source;
    for (const std::string E : Tiers)
      EXPECT_EQ(runPerc(File + E + " 3"), 0) << Shapes[I].Shape << " " << E;
    // Served on a worker thread, whose stack is the one that must hold.
    int Exit = -1;
    std::vector<std::string> Lines =
        runPercServe(File + " --serve", "main 3\nmain 3\n", Exit);
    EXPECT_EQ(Exit, 0) << Shapes[I].Shape;
    ASSERT_EQ(Lines.size(), 2u) << Shapes[I].Shape;
    for (const std::string &L : Lines) {
      EXPECT_NE(L.find("\"status\":\"ok\""), std::string::npos)
          << Shapes[I].Shape << ": " << L;
      EXPECT_NE(L.find("\"trap\":\"ok\""), std::string::npos)
          << Shapes[I].Shape << ": " << L;
    }
  }
}

TEST(PercCli, OverDeepProgramsAreCompileErrorsOnBothTiers) {
  // One level past the budget and far past it: exit 1 with the budget
  // diagnostic, never a signal. A serving process answers each request
  // with a structured compile-error (negatively cached after the first)
  // and lives on.
  const std::string Budget = "at most " +
                             std::to_string(perceus::MaxExprDepth) +
                             " are supported";
  for (uint32_t Levels : {perceus::MaxExprDepth + 1, uint32_t(100000)}) {
    std::vector<perceus::DeepProgram> Shapes = perceus::deepPrograms(Levels);
    for (size_t I = 0; I != Shapes.size(); ++I) {
      std::string File =
          testing::TempDir() + "/deep_bad_" + std::to_string(I) + ".perc";
      std::ofstream(File) << Shapes[I].Source;
      for (const std::string E : Tiers) {
        int Exit = -1;
        std::string Out = runPercCapture(File + E + " 3", Exit);
        EXPECT_EQ(Exit, 1) << Shapes[I].Shape << " " << Levels << " " << E;
        EXPECT_NE(Out.find(Budget), std::string::npos)
            << Shapes[I].Shape << " " << Levels << " " << E << ": " << Out;
      }
      int Exit = -1;
      std::vector<std::string> Lines =
          runPercServe(File + " --serve", "main 3\nmain 3\n", Exit);
      EXPECT_EQ(Exit, 1) << Shapes[I].Shape << " " << Levels;
      ASSERT_EQ(Lines.size(), 2u) << Shapes[I].Shape << " " << Levels;
      for (const std::string &L : Lines) {
        EXPECT_NE(L.find("\"status\":\"compile-error\""), std::string::npos)
            << Shapes[I].Shape << " " << Levels << ": " << L;
        EXPECT_NE(L.find(Budget), std::string::npos)
            << Shapes[I].Shape << " " << Levels << ": " << L;
      }
    }
  }
}

/// Over `type p { P(a0, ..., a(N-1)) }` and `type b { T  F }`, the arms
/// `P(T, ..., T) -> 0`, `P(_, T, ..., T) -> 1`, ..., `_ -> 99` expand to
/// 2^N bodies in pattern compilation. `main` takes the second arm: 1.
std::string exponentialMatch(int N) {
  std::string S = "type b { T  F }\ntype p { P(a0";
  for (int I = 1; I != N; ++I)
    S += ", a" + std::to_string(I);
  S += ") }\nfun f(x) { match x {\n";
  for (int Row = 0; Row != N; ++Row) {
    S += "  P(";
    for (int Col = 0; Col != N; ++Col)
      S += std::string(Col ? ", " : "") + (Col < Row ? "_" : "T");
    S += ") -> " + std::to_string(Row) + "\n";
  }
  S += "  _ -> 99\n} }\nfun main(n) { f(P(F";
  for (int I = 1; I != N; ++I)
    S += ", T";
  return S + ")) }\n";
}

TEST(PercCli, ExponentialMatchesAreCompileErrorsOnBothTiers) {
  // 4 rows (16 bodies) fit the budget and run. 64 rows are one
  // diagnostic and exit 1, before the expansion does the work; a serving
  // process answers each request with a structured compile-error and
  // lives on.
  std::string Small = testing::TempDir() + "/match_rows_4.perc";
  std::string Big = testing::TempDir() + "/match_rows_64.perc";
  std::ofstream(Small) << exponentialMatch(4);
  std::ofstream(Big) << exponentialMatch(64);
  const std::string Msg =
      "3:12: error: function 'f' expands its 65 match arms to more than " +
      std::to_string(65 * perceus::MatchBodiesPerArm +
                     perceus::MatchBodiesSlack) +
      " bodies";
  for (const std::string E : Tiers) {
    int Exit = -1;
    EXPECT_EQ(runPercCapture(Small + E + " 3", Exit), "1\n") << E;
    EXPECT_EQ(Exit, 0) << E;
    std::string Out = runPercCapture(Big + E + " 3", Exit);
    EXPECT_EQ(Exit, 1) << E << ": " << Out;
    EXPECT_NE(Out.find(Msg), std::string::npos) << E << ": " << Out;
    EXPECT_EQ(Out.find("error:"), Out.rfind("error:")) << E << ": " << Out;
  }
  int Exit = -1;
  std::vector<std::string> Lines =
      runPercServe(Big + " --serve", "main 3\nmain 3\n", Exit);
  EXPECT_EQ(Exit, 1);
  ASSERT_EQ(Lines.size(), 2u);
  for (const std::string &L : Lines) {
    EXPECT_NE(L.find("\"status\":\"compile-error\""), std::string::npos) << L;
    EXPECT_NE(L.find(Msg), std::string::npos) << L;
  }
}

TEST(PercCli, SixtyFourBitOperandsAreArgumentErrorsNamingTheRange) {
  // An operand past the 63-bit range never reaches the VM: it is an
  // argument error (exit 1) whose message names the range, on both
  // tiers, and a served request line carrying one is a bad-request.
  const std::string Range =
      "is outside the integer range "
      "[-4611686018427387904, 4611686018427387903]";
  std::string File = testing::TempDir() + "/wide_operand.perc";
  std::ofstream(File) << "fun main(a, b) { a + b }\n";
  for (const char *Operand : {"9223372036854775807", "-9223372036854775808",
                              "4611686018427387904"}) {
    for (const std::string E : Tiers) {
      int Exit = -1;
      std::string Out =
          runPercCapture(File + E + " " + Operand + " 0", Exit);
      EXPECT_EQ(Exit, 1) << Operand << E;
      EXPECT_NE(Out.find(Range), std::string::npos)
          << Operand << E << ": " << Out;
    }
  }
  int Exit = -1;
  std::vector<std::string> Lines =
      runPercServe(File + " --serve",
                   "main 4611686018427387904 0\n"
                   "{\"entry\":\"main\",\"args\":[-4611686018427387905,0]}\n",
                   Exit);
  EXPECT_EQ(Exit, 0);
  ASSERT_EQ(Lines.size(), 2u);
  for (const std::string &L : Lines) {
    EXPECT_NE(L.find("\"status\":\"bad-request\""), std::string::npos) << L;
    EXPECT_NE(L.find(Range), std::string::npos) << L;
  }
}

TEST(PercCli, OutOfRangeIntegerLiteralsAreCompileErrors) {
  // A literal past IntMax (2^62 - 1) is one diagnostic at the literal
  // (exit 1), never a wrapped value; a serving process answers each
  // request with a structured compile-error and lives on.
  const std::string Msg =
      "integer literal is out of range (at most 4611686018427387903)";
  for (const char *Literal :
       {"4611686018427387904", "9223372036854775808",
        "99999999999999999999"}) {
    std::string File = testing::TempDir() + "/big_literal.perc";
    std::ofstream(File) << "fun main(n) { " << Literal << " }\n";
    for (const std::string E : Tiers) {
      int Exit = -1;
      std::string Out = runPercCapture(File + E + " 3", Exit);
      EXPECT_EQ(Exit, 1) << Literal << E << ": " << Out;
      EXPECT_NE(Out.find("1:15: error: " + Msg), std::string::npos)
          << Literal << E << ": " << Out;
    }
    int Exit = -1;
    std::vector<std::string> Lines =
        runPercServe(File + " --serve", "main 3\nmain 4\n", Exit);
    EXPECT_EQ(Exit, 1) << Literal;
    ASSERT_EQ(Lines.size(), 2u) << Literal;
    for (const std::string &L : Lines) {
      EXPECT_NE(L.find("\"status\":\"compile-error\""), std::string::npos)
          << Literal << ": " << L;
      EXPECT_NE(L.find(Msg), std::string::npos) << Literal << ": " << L;
    }
  }
  // IntMax itself is in range.
  std::string File = testing::TempDir() + "/max_literal.perc";
  std::ofstream(File) << "fun main(n) { 4611686018427387903 }\n";
  int Exit = -1;
  std::string Out = runPercCapture(File + " 3", Exit);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("4611686018427387903"), std::string::npos) << Out;
}

TEST(PercCli, ServedResponsesStayUtf8WhateverTheSourceHolds) {
  // The lexer quotes the stray 0xE9 in its diagnostic; the response must
  // still be valid UTF-8, which parseJson checks.
  std::string File = testing::TempDir() + "/latin1.perc";
  std::ofstream(File) << "fun main(n) { n \xe9 1 }\n";
  int Exit = -1;
  std::vector<std::string> Lines =
      runPercServe(File + " --serve", "main 5\n", Exit);
  ASSERT_EQ(Lines.size(), 1u);
  std::string Err;
  std::optional<perceus::JsonValue> V = perceus::parseJson(Lines[0], &Err);
  ASSERT_TRUE(V) << Err << ": " << Lines[0];
  EXPECT_NE(Lines[0].find("\"status\":\"compile-error\""), std::string::npos)
      << Lines[0];
  EXPECT_NE(Lines[0].find("\\ufffd"), std::string::npos) << Lines[0];
}

/// A program whose `main` passes g 255 arguments, each a match binding
/// all 255 fields of a B; \p Calls such calls are summed. Every binder is
/// a register of main's frame: one call needs about 65 300 of them, two
/// about 130 300.
std::string wideFrameProgram(int Calls) {
  std::string Fields, Params, Vals, Body;
  for (int I = 0; I != 255; ++I) {
    std::string Sep = I ? ", " : "";
    Fields += Sep + "f" + std::to_string(I);
    Params += Sep + "a" + std::to_string(I);
    Vals += Sep + std::to_string(I);
  }
  for (int C = 0; C != Calls; ++C) {
    Body += C ? " + g(" : "g(";
    for (int J = 0; J != 255; ++J) {
      std::string Pre = "x" + std::to_string(C) + "_" + std::to_string(J) + "_";
      Body += J ? ", match t { B(" : "match t { B(";
      for (int K = 0; K != 255; ++K)
        Body += (K ? ", " : "") + Pre + std::to_string(K);
      Body += ") -> " + Pre + std::to_string(J) + " }";
    }
    Body += ")";
  }
  return "type b { B(" + Fields + ") }\nfun g(" + Params +
         ") { a0 + a254 }\nfun main(n) {\n  val t = B(" + Vals + ")\n  " +
         Body + "\n}\n";
}

TEST(PercCli, FramesWiderThanTheRegisterFieldsAreCompileErrors) {
  // Instructions name registers in 16 bits. A frame past 65535 registers
  // is a compile error naming the function, never a run on truncated
  // register numbers (which read the wrong registers and trapped).
  std::string One = testing::TempDir() + "/wide_frame_1.perc";
  std::ofstream(One) << wideFrameProgram(1);
  std::string Two = testing::TempDir() + "/wide_frame_2.perc";
  std::ofstream(Two) << wideFrameProgram(2);
  const std::string Msg = "registers; at most 65535 are supported";
  for (const std::string E : Tiers) {
    int Exit = -1;
    std::string Out = runPercCapture(One + E + " 1", Exit);
    EXPECT_EQ(Exit, 0) << E << ": " << Out;
    EXPECT_EQ(Out, "254\n") << E;
    Out = runPercCapture(Two + E + " 1", Exit);
    EXPECT_EQ(Exit, 1) << E << ": " << Out;
    EXPECT_NE(Out.find("error: function 'main' has "), std::string::npos)
        << E << ": " << Out;
    EXPECT_NE(Out.find(Msg), std::string::npos) << E << ": " << Out;
  }
  int Exit = -1;
  std::vector<std::string> Lines =
      runPercServe(Two + " --serve", "main 1\nmain 2\n", Exit);
  EXPECT_EQ(Exit, 1);
  ASSERT_EQ(Lines.size(), 2u);
  for (const std::string &L : Lines) {
    EXPECT_NE(L.find("\"status\":\"compile-error\""), std::string::npos) << L;
    EXPECT_NE(L.find(Msg), std::string::npos) << L;
  }
}

TEST(PercCli, ProgramsPastTheFunctionFieldAreCompileErrors) {
  // Static calls name their callee in 16 bits: 65 536 functions compile,
  // one more is a compile error.
  for (int N : {65536, 65537}) {
    std::string File = testing::TempDir() + "/many_functions.perc";
    {
      std::ofstream Out(File);
      for (int I = 0; I != N - 1; ++I)
        Out << "fun f" << I << "() { " << I << " }\n";
      Out << "fun main(n) { f" << N - 2 << "() }\n";
    }
    for (const std::string E : Tiers) {
      int Exit = -1;
      std::string Out = runPercCapture(File + E + " 1", Exit);
      if (N == 65536) {
        EXPECT_EQ(Exit, 0) << E << ": " << Out;
        EXPECT_EQ(Out, "65534\n") << E;
      } else {
        EXPECT_EQ(Exit, 1) << E << ": " << Out;
        EXPECT_NE(Out.find("error: program has 65537 functions; at most "
                           "65536 are supported"),
                  std::string::npos)
            << E << ": " << Out;
      }
    }
  }
}

TEST(PercCli, OneStrayCharacterIsOneDiagnostic) {
  // The trivia after a stray character is not lexed as a second one.
  std::string File = testing::TempDir() + "/stray.perc";
  std::ofstream(File) << "fun main() { 1 $  \n}\n";
  int Exit = -1;
  std::string Out = runPercCapture(File, Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_EQ(Out, "1:16: error: unexpected character '$'\n");
}

} // namespace
