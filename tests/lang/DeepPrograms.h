//===- tests/lang/DeepPrograms.h - Programs of a given nesting depth -----===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One program per construct that nests, each nesting exactly `Levels`
/// levels as the parser counts them (lang/Parser.cpp): the function body
/// is level 1, and the shape fills the rest. Every program defines
/// `main(n)`, which runs and returns, so a program at MaxExprDepth must
/// compile and run, and one a level deeper must be a compile error.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_TESTS_LANG_DEEPPROGRAMS_H
#define PERCEUS_TESTS_LANG_DEEPPROGRAMS_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace perceus {

struct DeepProgram {
  std::string Shape;
  std::string Source;
};

inline std::string repeatText(const std::string &S, uint32_t N) {
  std::string Out;
  Out.reserve(S.size() * N);
  for (uint32_t I = 0; I != N; ++I)
    Out += S;
  return Out;
}

/// The programs nesting exactly \p Levels (at least 6) levels. A match
/// and a nested pattern count two levels; a parenthesis pads a shape
/// whose step is two levels to an odd depth.
inline std::vector<DeepProgram> deepPrograms(uint32_t Levels) {
  assert(Levels >= 6 && "every shape needs six levels");
  const uint32_t L = Levels;
  auto paren = [](uint32_t P, const std::string &S) {
    return repeatText("(", P) + S + repeatText(")", P);
  };
  std::string Vals = "val x0 = n; ";
  for (uint32_t I = 1; I + 1 < L; ++I)
    Vals += "val x" + std::to_string(I) + " = x" + std::to_string(I - 1) +
            "; ";
  // The innermost of k nested patterns, or of the patterns of k nested
  // constructor matches, sits at level 4 + 2k (body, second statement,
  // then two per match and per pattern).
  const uint32_t K = (L - 4) / 2, Pad = (L - 4) % 2;
  std::string CtorMatches;
  for (uint32_t I = 0; I != K; ++I)
    CtorMatches += "match x" + std::to_string(I) + " { Box(x" +
                   std::to_string(I + 1) + ") -> ";
  CtorMatches += "n" + repeatText(" }", K);
  const std::string Box = "type box { Box(v) }\n";
  return {
      // A binary chain: the body, then one level per operator.
      {"binary chain",
       "fun main(n) { n" + repeatText(" + n", L - 1) + " }\n"},
      // A block: one level per statement after the first.
      {"val chain",
       "fun main(n) { " + Vals + "x" + std::to_string(L - 2) + " }\n"},
      {"parentheses", "fun main(n) { " + paren(L - 1, "n") + " }\n"},
      {"blocks", "fun main(n) { " + repeatText("{ ", L - 1) + "n" +
                     repeatText(" }", L - 1) + " }\n"},
      // The second statement opens level 2.
      {"ifs", "fun main(n) { val c = n > 0; " +
                  repeatText("if c then ", L - 2) + "n" +
                  repeatText(" else 0", L - 2) + " }\n"},
      {"matches", "fun main(n) { " +
                      repeatText("match n { _ -> ", (L - 1) / 2) +
                      paren((L - 1) % 2, "n") +
                      repeatText(" }", (L - 1) / 2) + " }\n"},
      {"lambdas",
       "fun main(n) { val f = " + repeatText("fn(a) ", L - 1) + "n; n }\n"},
      {"unary operators",
       "fun main(n) { " + repeatText("- ", L - 1) + "n }\n"},
      {"constructor arguments", Box + "fun main(n) { val b = " +
                                    repeatText("Box(", L - 1) + "n" +
                                    repeatText(")", L - 1) + "; n }\n"},
      {"nested patterns",
       Box + "fun main(n) { val b = " + repeatText("Box(", K) + "n" +
           repeatText(")", K) + "; " +
           paren(Pad, "match b { " + repeatText("Box(", K) + "x" +
                          repeatText(")", K) + " -> n; _ -> n }") +
           " }\n"},
      {"constructor matches",
       Box + "fun main(n) { val x0 = " + repeatText("Box(", K) + "n" +
           repeatText(")", K) + "; " + paren(Pad, CtorMatches) + " }\n"},
  };
}

} // namespace perceus

#endif // PERCEUS_TESTS_LANG_DEEPPROGRAMS_H
