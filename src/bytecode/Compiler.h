//===- bytecode/Compiler.h - IR-to-bytecode compiler ------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a laid-out program (ir/Expr.h trees annotated by
/// eval/Layout.h) to the flat bytecode of bytecode/Bytecode.h. The
/// compiler keeps the IR's evaluation order and one heap operation per
/// RC instruction — see the contract in Bytecode.h — while resolving
/// everything resolvable at compile time: constructor tags/arities,
/// match binder slots, capture slot lists, direct calls to top-level
/// functions, and syntactic tail positions.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_BYTECODE_COMPILER_H
#define PERCEUS_BYTECODE_COMPILER_H

#include "bytecode/Bytecode.h"
#include "eval/Layout.h"
#include "ir/Program.h"

namespace perceus {

/// Compiles every function (and reachable lambda) of \p P. \p Layout
/// must have been produced from \p P *after* all passes ran.
CompiledProgram compileProgram(const Program &P, const ProgramLayout &Layout);

} // namespace perceus

#endif // PERCEUS_BYTECODE_COMPILER_H
