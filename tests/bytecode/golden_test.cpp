//===- tests/bytecode/golden_test.cpp - Whole-program bytecode pins -------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the bytecode every built-in program compiles to: the ten sources
/// of programs/Programs.h and the five examples/programs/*.perc files,
/// under perceus and under perceus without drop specialization. For
/// each, three 64-bit FNV-1a digests are compared against frozen values:
/// every raw chunk, every peephole chunk (all Instr fields, frame sizes
/// and capture slots of each), and the shared pools (constants in
/// decoded form, match tables, register lists, trap messages). A tail
/// call's direct mark is checked against its operand list instead of
/// digested. The peephole report's instruction, fused and elided totals
/// are pinned beside them. A change to the Perceus passes, the immediacy
/// analysis, the compiler or the peephole that moves any of these must
/// explain why. On a mismatch the test prints the row as it should now
/// read.
///
//===----------------------------------------------------------------------===//

#include "eval/Compile.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace perceus;

namespace {

struct Fnv {
  uint64_t H = 0xcbf29ce484222325ull;
  void add(uint64_t V) {
    for (int I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
};

bool isTailCall(const Instr &I) {
  return I.O == Op::TailCall || I.O == Op::TailCallStatic;
}

/// A tail call's B (its direct mark) as its operand list implies it: 1
/// when no entry J names a register below J.
uint16_t directMark(const CompiledProgram &CP, const Instr &I) {
  for (uint32_t J = 0; J != I.A; ++J)
    if (CP.RegLists[I.E + J] < J)
      return 0;
  return 1;
}

/// A tail call's B is left out: it follows from the list (checked on its
/// own by directMark), so the digests pin everything else.
void addChunks(Fnv &D, const std::vector<Chunk> &Chunks) {
  D.add(Chunks.size());
  for (const Chunk &Ch : Chunks) {
    D.add(Ch.Code.size());
    for (const Instr &I : Ch.Code) {
      uint64_t B = isTailCall(I) ? 0 : I.B;
      D.add(static_cast<uint64_t>(I.O) | uint64_t(I.A) << 8 | B << 16 |
            uint64_t(I.C) << 32 | uint64_t(I.D) << 48);
      D.add(I.E);
    }
    D.add(Ch.NumRegs);
    D.add(Ch.NumParams);
    D.add(Ch.FirstTemp);
    for (const std::vector<uint16_t> *Slots : {&Ch.CaptureSrc, &Ch.CaptureDst}) {
      D.add(Slots->size());
      for (uint16_t S : *Slots)
        D.add(S);
    }
  }
}

void addPools(Fnv &D, const CompiledProgram &CP) {
  D.add(CP.Consts.size());
  for (Word W : CP.Consts) { // digested in decoded form
    Value V = Value::decode(W);
    D.add(static_cast<uint64_t>(V.Kind));
    D.add(V.Bits);
  }
  D.add(CP.Matches.size());
  for (const MatchTable &M : CP.Matches) {
    D.add(M.Arms.size());
    for (const MatchArmCode &A : M.Arms) {
      D.add(static_cast<uint64_t>(A.Kind));
      D.add(A.DataId);
      D.add(A.Tag);
      D.add(static_cast<uint64_t>(A.Lit));
      D.add(A.BinderBase);
      D.add(A.NumBinders);
      D.add(A.Target);
    }
  }
  D.add(CP.RegLists.size());
  for (uint16_t R : CP.RegLists)
    D.add(R);
  D.add(CP.Messages.size());
  for (const std::string &M : CP.Messages)
    for (unsigned char C : M)
      D.add(C);
}

std::string readExample(const char *File) {
  std::ifstream In(std::string(PERCEUS_EXAMPLE_PROGRAMS_DIR) + "/" + File);
  EXPECT_TRUE(In.good()) << File;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

struct Golden {
  const char *Program;
  const char *Config;
  uint64_t Raw, Peephole, Pools;
  uint64_t Instrs, Fused, Elided;
};

// Frozen at 8241d00, before insertion dropped its borrowed environment
// and the immediacy analysis its hash containers.
const Golden Goldens[] = {
    {"rbtree", "perceus", 0xd6ecaafc7b82e329ull, 0x578b97b7304ebec7ull, 0x82823cb2dbc8877cull, 244, 51, 52},
    {"rbtree", "perceus-nodropspec", 0xe13345423914aee6ull, 0x7b9b8101cf345493ull, 0x4ab9167ae642dff0ull, 212, 33, 44},
    {"rbtree-ck", "perceus", 0x5eb007cfdfb59cf9ull, 0x5051d84a7624be24ull, 0x9f44e29794b463c6ull, 261, 56, 53},
    {"rbtree-ck", "perceus-nodropspec", 0xbb0f0ef6fe211c6aull, 0xa1a1584e768e2d38ull, 0x27073ffa2454450eull, 223, 38, 45},
    {"deriv", "perceus", 0xe3612111ee07f3e7ull, 0xdd8c1cb68943518aull, 0x840746f1b0c6359full, 160, 51, 27},
    {"deriv", "perceus-nodropspec", 0x24216f2a23483959ull, 0x36c1485b3f3ae71eull, 0x9b61b40e0f5288b3ull, 111, 33, 22},
    {"nqueens", "perceus", 0xccc8fc896b014c58ull, 0xacbb07cd121a9bedull, 0x112f6547880c191bull, 68, 17, 18},
    {"nqueens", "perceus-nodropspec", 0x5683d495419a5e8eull, 0xbede879ce6b6db43ull, 0x37050182caa9173bull, 57, 16, 18},
    {"cfold", "perceus", 0x9bf29ad6a4acab58ull, 0x6c228b6743ec2c48ull, 0x71a4372765d9237eull, 135, 42, 17},
    {"cfold", "perceus-nodropspec", 0x518a31cdff35842aull, 0x2b3dabecf44bb2abull, 0xaf51188981f112c9ull, 111, 21, 17},
    {"tmap", "perceus", 0x391d3bb3b76c70d1ull, 0x89bf192ecb10c8d5ull, 0xb860f6a493312e00ull, 84, 23, 11},
    {"tmap", "perceus-nodropspec", 0xdefdc3317ec3d7c3ull, 0x4af565ad79645f37ull, 0x8bdd856abdfde9acull, 81, 19, 11},
    {"mapsum", "perceus", 0x4f6185d41ba93c88ull, 0x3f0df2c9831d02efull, 0x0b7131a98a82885cull, 29, 9, 4},
    {"mapsum", "perceus-nodropspec", 0xd685b31b3d03f9b0ull, 0xb92e0301af5e2cd4ull, 0x16b2b952be6f07dcull, 26, 8, 4},
    {"msort", "perceus", 0x0d7a468c2b1f6f18ull, 0xaf702e836713fc59ull, 0x61e774003689f4adull, 92, 25, 18},
    {"msort", "perceus-nodropspec", 0x3b0f7746db579509ull, 0xcaa97f2608e6657aull, 0x2fa7c1eb70ec2597ull, 78, 16, 17},
    {"queue", "perceus", 0x6ae651a35cab9544ull, 0x2fd70aaff2ec67fdull, 0xcbe054cb6b0c2bdfull, 87, 23, 13},
    {"queue", "perceus-nodropspec", 0x488cd16ef2512c4aull, 0x6565acc87ae2b483ull, 0x180ecd66e5596496ull, 78, 9, 13},
    {"shared-tree", "perceus", 0xf7926d175b32fd48ull, 0x6affa996cafd409dull, 0x8068742bd4808991ull, 33, 12, 11},
    {"shared-tree", "perceus-nodropspec", 0xd766396aa75ff190ull, 0x6d49c71f1d5292d1ull, 0xefc361ef7388f6f0ull, 30, 12, 11},
    {"hello.perc", "perceus", 0x259fe9d4a84eafe6ull, 0x2545ce96fa38c20full, 0x25f9a9ee7cec0ee2ull, 9, 3, 8},
    {"hello.perc", "perceus-nodropspec", 0x259fe9d4a84eafe6ull, 0x2545ce96fa38c20full, 0x25f9a9ee7cec0ee2ull, 9, 3, 8},
    {"msort.perc", "perceus", 0x0d7a468c2b1f6f18ull, 0xaf702e836713fc59ull, 0x61e774003689f4adull, 92, 25, 18},
    {"msort.perc", "perceus-nodropspec", 0x3b0f7746db579509ull, 0xcaa97f2608e6657aull, 0x2fa7c1eb70ec2597ull, 78, 16, 17},
    {"nqueens.perc", "perceus", 0xccc8fc896b014c58ull, 0xacbb07cd121a9bedull, 0x112f6547880c191bull, 68, 17, 18},
    {"nqueens.perc", "perceus-nodropspec", 0x5683d495419a5e8eull, 0xbede879ce6b6db43ull, 0x37050182caa9173bull, 57, 16, 18},
    {"rbtree.perc", "perceus", 0xd6ecaafc7b82e329ull, 0x578b97b7304ebec7ull, 0x82823cb2dbc8877cull, 244, 51, 52},
    {"rbtree.perc", "perceus-nodropspec", 0xe13345423914aee6ull, 0x7b9b8101cf345493ull, 0x4ab9167ae642dff0ull, 212, 33, 44},
    {"shared_tree.perc", "perceus", 0xada35082e247ea76ull, 0xaf8d9ef1091fc947ull, 0xab96f4fe8f98d5d7ull, 38, 12, 9},
    {"shared_tree.perc", "perceus-nodropspec", 0xe9eccf2ccd46ebe7ull, 0x37ddff8c0d66aa1aull, 0xb8afd2bb13079194ull, 35, 12, 9},
};

const Golden *goldenFor(std::string_view Program, std::string_view Config) {
  for (const Golden &G : Goldens)
    if (Program == G.Program && Config == G.Config)
      return &G;
  return nullptr;
}

TEST(BytecodeGolden, EveryBuiltinProgramCompilesAsFrozen) {
  const std::pair<const char *, std::string> Programs[] = {
      {"rbtree", rbtreeSource()},
      {"rbtree-ck", rbtreeCkSource()},
      {"deriv", derivSource()},
      {"nqueens", nqueensSource()},
      {"cfold", cfoldSource()},
      {"tmap", tmapSource()},
      {"mapsum", mapSumSource()},
      {"msort", msortSource()},
      {"queue", queueSource()},
      {"shared-tree", sharedTreeSource()},
      {"hello.perc", readExample("hello.perc")},
      {"msort.perc", readExample("msort.perc")},
      {"nqueens.perc", readExample("nqueens.perc")},
      {"rbtree.perc", readExample("rbtree.perc")},
      {"shared_tree.perc", readExample("shared_tree.perc")}};
  PassConfig NoDropSpec = PassConfig::perceusFull();
  NoDropSpec.EnableDropSpec = false;
  const std::pair<const char *, PassConfig> Configs[] = {
      {"perceus", PassConfig::perceusFull()},
      {"perceus-nodropspec", NoDropSpec}};

  size_t Checked = 0;
  for (const auto &[Name, Source] : Programs) {
    for (const auto &[ConfigName, Config] : Configs) {
      auto A = compileArtifact(Source, Config);
      ASSERT_TRUE(A->Ok) << Name << ": " << A->Error;
      const CompiledProgram &CP = *A->Code;
      Fnv Raw, Peep, Pools;
      addChunks(Raw, CP.RawFuncs);
      addChunks(Raw, CP.RawLams);
      addChunks(Peep, CP.Funcs);
      addChunks(Peep, CP.Lams);
      addPools(Pools, CP);
      for (const std::vector<Chunk> *Chunks :
           {&CP.RawFuncs, &CP.RawLams, &CP.Funcs, &CP.Lams})
        for (const Chunk &Ch : *Chunks)
          for (const Instr &I : Ch.Code)
            if (isTailCall(I)) {
              EXPECT_EQ(I.B, directMark(CP, I)) << Name << " " << ConfigName;
            }
      uint64_t Instrs = 0;
      for (const PeepholeChunkStats &S : A->Peephole.Chunks)
        Instrs += S.After;
      char Row[256];
      std::snprintf(Row, sizeof Row,
                    "{\"%s\", \"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64
                    "ull, 0x%016" PRIx64 "ull, %" PRIu64 ", %" PRIu64
                    ", %" PRIu64 "},",
                    Name, ConfigName, Raw.H, Peep.H, Pools.H, Instrs,
                    A->Peephole.totalFused(), A->Peephole.totalElided());
      const Golden *G = goldenFor(Name, ConfigName);
      if (!G) {
        ADD_FAILURE() << "no frozen row: " << Row;
        continue;
      }
      EXPECT_EQ(Raw.H, G->Raw) << Row;
      EXPECT_EQ(Peep.H, G->Peephole) << Row;
      EXPECT_EQ(Pools.H, G->Pools) << Row;
      EXPECT_EQ(Instrs, G->Instrs) << Row;
      EXPECT_EQ(A->Peephole.totalFused(), G->Fused) << Row;
      EXPECT_EQ(A->Peephole.totalElided(), G->Elided) << Row;
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, std::size(Goldens));
}

} // namespace
