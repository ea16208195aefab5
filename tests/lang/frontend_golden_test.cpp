//===- tests/lang/frontend_golden_test.cpp - Whole-program front-end pins ----===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the whole-program output of the front end for every built-in
/// program: the ten sources of programs/Programs.h and the five
/// examples/programs/*.perc files. For each, a 64-bit FNV-1a digest of
/// `printProgram` is compared against a frozen value at two points:
/// straight after `resolveModule`, and after `runPipeline` under each of
/// six configurations. The resolver's binder naming, pattern-matrix
/// compilation and capture order all show in the printed IR, so any
/// change to what the parser or resolver produces moves a digest. On a
/// mismatch the test prints the IR text.
///
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"
#include "lang/Parser.h"
#include "lang/Resolver.h"
#include "perceus/Pipeline.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace perceus;

namespace {

uint64_t fnv1a(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string readExample(const char *File) {
  std::ifstream In(std::string(PERCEUS_EXAMPLE_PROGRAMS_DIR) + "/" + File);
  EXPECT_TRUE(In.good()) << File;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

struct Source {
  const char *Name;
  std::string Text;
};

std::vector<Source> builtinPrograms() {
  return {{"rbtree", rbtreeSource()},
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
}

/// The compile points: "resolved" is the resolver's output; the others
/// are the pipeline's output under that configuration.
std::vector<std::pair<const char *, PassConfig>> pipelineConfigs() {
  PassConfig NoDropSpec = PassConfig::perceusFull();
  NoDropSpec.EnableDropSpec = false;
  return {{"perceus", PassConfig::perceusFull()},
          {"perceus-noopt", PassConfig::perceusNoOpt()},
          {"perceus-borrow", PassConfig::perceusBorrow()},
          {"scoped-rc", PassConfig::scoped()},
          {"gc", PassConfig::gc()},
          {"perceus-nodropspec", NoDropSpec}};
}

struct Golden {
  const char *Program;
  const char *Point;
  uint64_t Digest;
};

// FNV-1a of printProgram, frozen when the front end still gave each
// node its own heap allocation; the same in every process (no address
// reaches the printed IR). A change that moves one must explain why.
const Golden Goldens[] = {
    {"rbtree", "resolved", 0x0034f09d2723e129ull},
    {"rbtree", "perceus", 0xe854b54b8802c60bull},
    {"rbtree", "perceus-noopt", 0x29a58bc8a98cbbd5ull},
    {"rbtree", "perceus-borrow", 0x99a7d75ddf6fe117ull},
    {"rbtree", "scoped-rc", 0x12d1a01f50175facull},
    {"rbtree", "gc", 0x0034f09d2723e129ull},
    {"rbtree", "perceus-nodropspec", 0x33010aa10b5162c6ull},
    {"rbtree-ck", "resolved", 0x0706b3809bff5c6bull},
    {"rbtree-ck", "perceus", 0x584cf4502eaa905eull},
    {"rbtree-ck", "perceus-noopt", 0x63ef02c4060feee4ull},
    {"rbtree-ck", "perceus-borrow", 0x124491524f54db6bull},
    {"rbtree-ck", "scoped-rc", 0x2e9c3b1b2c9f2d7dull},
    {"rbtree-ck", "gc", 0x0706b3809bff5c6bull},
    {"rbtree-ck", "perceus-nodropspec", 0x6bd9c588b493baf5ull},
    {"deriv", "resolved", 0xe698ab3bdd19ac6bull},
    {"deriv", "perceus", 0x5349a365bd303de8ull},
    {"deriv", "perceus-noopt", 0x16aa41a95e054179ull},
    {"deriv", "perceus-borrow", 0x2195207e8495ebe8ull},
    {"deriv", "scoped-rc", 0x46781d4b69809105ull},
    {"deriv", "gc", 0xe698ab3bdd19ac6bull},
    {"deriv", "perceus-nodropspec", 0x2ac50f81dc987b39ull},
    {"nqueens", "resolved", 0xb69d7110aa8b74d9ull},
    {"nqueens", "perceus", 0xdfd65cb2eb10a2c3ull},
    {"nqueens", "perceus-noopt", 0x4ff0d0c578e36541ull},
    {"nqueens", "perceus-borrow", 0x862a82ba6c6eacbeull},
    {"nqueens", "scoped-rc", 0x1656b802823aafcaull},
    {"nqueens", "gc", 0xb69d7110aa8b74d9ull},
    {"nqueens", "perceus-nodropspec", 0x4ff0d0c578e36541ull},
    {"cfold", "resolved", 0xf1b0858a79bec6aeull},
    {"cfold", "perceus", 0xcb12f8e7ecff6dcaull},
    {"cfold", "perceus-noopt", 0x89d12d7220fcf236ull},
    {"cfold", "perceus-borrow", 0x535e8b11a8127b5aull},
    {"cfold", "scoped-rc", 0xbdbe8963e7b7b035ull},
    {"cfold", "gc", 0xf1b0858a79bec6aeull},
    {"cfold", "perceus-nodropspec", 0xbcff59bfe87a1804ull},
    {"tmap", "resolved", 0xd61cb1bc2c5daca0ull},
    {"tmap", "perceus", 0xecfc727329e6221dull},
    {"tmap", "perceus-noopt", 0x851f2f5a92620349ull},
    {"tmap", "perceus-borrow", 0x4276382882bc8a24ull},
    {"tmap", "scoped-rc", 0x55edbd1eb37069b7ull},
    {"tmap", "gc", 0xd61cb1bc2c5daca0ull},
    {"tmap", "perceus-nodropspec", 0xf0838c2ef8817bedull},
    {"mapsum", "resolved", 0xc6370675caff34aaull},
    {"mapsum", "perceus", 0xeea8764d990bc3a8ull},
    {"mapsum", "perceus-noopt", 0x10ed7f9d081eb04aull},
    {"mapsum", "perceus-borrow", 0x4dad755e7e37268full},
    {"mapsum", "scoped-rc", 0x41ee024746acfb17ull},
    {"mapsum", "gc", 0xc6370675caff34aaull},
    {"mapsum", "perceus-nodropspec", 0x87f8f4989d0da74cull},
    {"msort", "resolved", 0xd529f4e41b843181ull},
    {"msort", "perceus", 0x11f7577bacfc47b1ull},
    {"msort", "perceus-noopt", 0x830fb3f26d6a0e29ull},
    {"msort", "perceus-borrow", 0xcd29a5e75b0844ddull},
    {"msort", "scoped-rc", 0x8ba1436bf0931269ull},
    {"msort", "gc", 0xd529f4e41b843181ull},
    {"msort", "perceus-nodropspec", 0xd455e2cec6c8f7daull},
    {"queue", "resolved", 0x9cac1a033f47f35aull},
    {"queue", "perceus", 0xc6ca93f15dd54ee1ull},
    {"queue", "perceus-noopt", 0x670966e7a2d6f065ull},
    {"queue", "perceus-borrow", 0xc6ca93f15dd54ee1ull},
    {"queue", "scoped-rc", 0x05e3a54399ebe0f0ull},
    {"queue", "gc", 0x9cac1a033f47f35aull},
    {"queue", "perceus-nodropspec", 0xd4f335620dc43191ull},
    {"shared-tree", "resolved", 0xb4a32f4f4f19d93full},
    {"shared-tree", "perceus", 0xe7bc887b9ba589bfull},
    {"shared-tree", "perceus-noopt", 0xd80d70df360ae2ddull},
    {"shared-tree", "perceus-borrow", 0x0dcd81a581e81eeeull},
    {"shared-tree", "scoped-rc", 0x68464bfeb4b38247ull},
    {"shared-tree", "gc", 0xb4a32f4f4f19d93full},
    {"shared-tree", "perceus-nodropspec", 0xd80d70df360ae2ddull},
    {"hello.perc", "resolved", 0x5716a9a5382ba34dull},
    {"hello.perc", "perceus", 0x17e1228df2203594ull},
    {"hello.perc", "perceus-noopt", 0x17e1228df2203594ull},
    {"hello.perc", "perceus-borrow", 0x17e1228df2203594ull},
    {"hello.perc", "scoped-rc", 0xe47fb845a3a73778ull},
    {"hello.perc", "gc", 0x5716a9a5382ba34dull},
    {"hello.perc", "perceus-nodropspec", 0x17e1228df2203594ull},
    {"msort.perc", "resolved", 0xaea32840352bbec0ull},
    {"msort.perc", "perceus", 0x3190b55adec52a90ull},
    {"msort.perc", "perceus-noopt", 0xb4bfc85dab998f98ull},
    {"msort.perc", "perceus-borrow", 0xe7c1ed76ca893d08ull},
    {"msort.perc", "scoped-rc", 0x91062532f96535bcull},
    {"msort.perc", "gc", 0xaea32840352bbec0ull},
    {"msort.perc", "perceus-nodropspec", 0xfb50ac1b7d46cec9ull},
    {"nqueens.perc", "resolved", 0xe7f9f93224922e5aull},
    {"nqueens.perc", "perceus", 0x1def558556b67702ull},
    {"nqueens.perc", "perceus-noopt", 0x6ce48b13744cd014ull},
    {"nqueens.perc", "perceus-borrow", 0xc15831ddac8c7933ull},
    {"nqueens.perc", "scoped-rc", 0x64ccaaf01960f0bdull},
    {"nqueens.perc", "gc", 0xe7f9f93224922e5aull},
    {"nqueens.perc", "perceus-nodropspec", 0x6ce48b13744cd014ull},
    {"rbtree.perc", "resolved", 0xb03a3e2c16bb0bbbull},
    {"rbtree.perc", "perceus", 0x0caef1b6085dfb2dull},
    {"rbtree.perc", "perceus-noopt", 0x4b4adb207a233597ull},
    {"rbtree.perc", "perceus-borrow", 0xbb38e93412c20b49ull},
    {"rbtree.perc", "scoped-rc", 0x2001ff85aa0e241eull},
    {"rbtree.perc", "gc", 0xb03a3e2c16bb0bbbull},
    {"rbtree.perc", "perceus-nodropspec", 0x649dc1fd3d9fec78ull},
    {"shared_tree.perc", "resolved", 0x19cbcdcad292ac9bull},
    {"shared_tree.perc", "perceus", 0x3f7bd55c70b18f42ull},
    {"shared_tree.perc", "perceus-noopt", 0xd7b00984fbfbbe56ull},
    {"shared_tree.perc", "perceus-borrow", 0x76f0c63dc8df1698ull},
    {"shared_tree.perc", "scoped-rc", 0x0780fe07e061b78aull},
    {"shared_tree.perc", "gc", 0x19cbcdcad292ac9bull},
    {"shared_tree.perc", "perceus-nodropspec", 0xd7b00984fbfbbe56ull},
};

uint64_t goldenFor(std::string_view Program, std::string_view Point) {
  for (const Golden &G : Goldens)
    if (Program == G.Program && Point == G.Point)
      return G.Digest;
  return 0;
}

void expectDigest(const char *Program, const char *Point,
                  const std::string &Ir) {
  uint64_t Want = goldenFor(Program, Point);
  uint64_t Got = fnv1a(Ir);
  char Line[128];
  std::snprintf(Line, sizeof Line, "{\"%s\", \"%s\", 0x%016" PRIx64 "ull},",
                Program, Point, Got);
  EXPECT_EQ(Got, Want) << Line << "\n" << Ir;
}

TEST(FrontendGolden, EveryBuiltinProgramPrintsAsFrozen) {
  std::vector<Source> Programs = builtinPrograms();
  ASSERT_EQ(Programs.size(), 15u);
  size_t Checked = 0;
  for (const Source &S : Programs) {
    {
      Program P;
      DiagnosticEngine D;
      SModule M = parseModule(S.Text, D);
      ASSERT_FALSE(D.hasErrors()) << S.Name << ": " << D.str();
      ASSERT_TRUE(resolveModule(M, P, D)) << S.Name << ": " << D.str();
      expectDigest(S.Name, "resolved", printProgram(P));
      ++Checked;
    }
    for (const auto &[Point, Config] : pipelineConfigs()) {
      Program P;
      DiagnosticEngine D;
      ASSERT_TRUE(compileSource(S.Text, P, D)) << S.Name << ": " << D.str();
      runPipeline(P, Config);
      expectDigest(S.Name, Point, printProgram(P));
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, std::size(Goldens));
}

} // namespace
