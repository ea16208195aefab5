//===- support/ParseInteger.h - Range-checked integer parsing ---*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser for integers that arrive from outside a program: perc's
/// flag values and arguments, serve request lines and wire requests. It
/// reads the whole view or nothing, and a value outside the target type
/// is an error, never a clamp — the rule the lexer applies to source
/// literals.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_SUPPORT_PARSEINTEGER_H
#define PERCEUS_SUPPORT_PARSEINTEGER_H

#include <charconv>
#include <string_view>
#include <system_error>

namespace perceus {

/// Parses all of \p S as a base-10 integer: digits, with a leading '-'
/// for signed \p T only; no '+', no whitespace. Returns std::errc{} and
/// sets \p Out on success, std::errc::invalid_argument when \p S is not
/// such a spelling, and std::errc::result_out_of_range when its value
/// does not fit \p T.
template <typename T> std::errc parseInteger(std::string_view S, T &Out) {
  const char *End = S.data() + S.size();
  T V{};
  auto [Ptr, Ec] = std::from_chars(S.data(), End, V);
  if (Ptr != End)
    return std::errc::invalid_argument;
  if (Ec == std::errc())
    Out = V;
  return Ec;
}

} // namespace perceus

#endif // PERCEUS_SUPPORT_PARSEINTEGER_H
