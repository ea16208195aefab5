//===- eval/Compile.cpp - The one path from source to bytecode ------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/Compile.h"

#include "bytecode/Compiler.h"
#include "eval/Layout.h"
#include "lang/Resolver.h"

using namespace perceus;

namespace {

template <typename T> size_t bytes(const std::vector<T> &V) {
  return V.capacity() * sizeof(T);
}

size_t bytes(const std::vector<Chunk> &Tab) {
  size_t B = Tab.capacity() * sizeof(Chunk);
  for (const Chunk &Ch : Tab)
    B += bytes(Ch.Code) + bytes(Ch.Sites) + bytes(Ch.Sites2) +
         bytes(Ch.Sites3) + bytes(Ch.CaptureSrc) + bytes(Ch.CaptureDst);
  return B;
}

/// An estimate — hash-map nodes and the diagnostics are priced by
/// their text and a flat overhead — but a monotone one: bigger programs
/// always report more, which is all LRU accounting needs.
size_t footprint(const CompiledArtifact &A, size_t SourceBytes) {
  size_t B = sizeof(CompiledArtifact) + SourceBytes + 2 * A.Error.size() +
             A.Prog->arena().bytesAllocated() + bytes(A.Peephole.Chunks) +
             A.Functions.size() * 48;
  for (const PeepholeChunkStats &S : A.Peephole.Chunks)
    B += S.Name.size();
  if (A.Code) {
    const CompiledProgram &C = *A.Code;
    B += bytes(C.Funcs) + bytes(C.Lams) + bytes(C.RawFuncs) +
         bytes(C.RawLams) + bytes(C.Consts) + bytes(C.Matches) +
         bytes(C.RegLists) + bytes(C.Messages);
    for (const MatchTable &M : C.Matches)
      B += bytes(M.Arms);
    for (const std::string &M : C.Messages)
      B += M.size();
  }
  return B;
}

/// Every stage after parsing: resolve (when \p Resolve), the pipeline,
/// layout, bytecode, peephole and the name index. Stops at the first
/// stage that reports an error into A.Diags.
void build(CompiledArtifact &A, std::string_view Source, bool Resolve,
           std::vector<PassStat> *PassStats) {
  Program &P = *A.Prog;
  if (Resolve && !compileSource(Source, P, A.Diags))
    return;
  runPipeline(P, A.Config, PassStats);
  A.Code.emplace(compileProgram(P, layoutProgram(P)));
  if (!A.Code->Error.empty()) {
    A.Diags.error(SourceLoc{}, A.Code->Error);
    A.Code.reset();
    return;
  }
  A.Peephole = runPeephole(*A.Code);
  for (FuncId F = 0; F != P.numFunctions(); ++F)
    A.Functions.emplace(P.symbols().name(P.function(F).Name), F);
  A.Ok = true;
}

std::shared_ptr<const CompiledArtifact>
compile(std::unique_ptr<Program> Prog, std::string_view Source, bool Resolve,
        const PassConfig &Config, std::vector<PassStat> *PassStats) {
  auto A = std::make_shared<CompiledArtifact>();
  A->Config = Config;
  A->Prog = std::move(Prog);
  build(*A, Source, Resolve, PassStats);
  if (!A->Ok)
    A->Error = "program failed to compile:\n" + A->Diags.str();
  A->SizeBytes = footprint(*A, Source.size());
  return A;
}

} // namespace

std::shared_ptr<const CompiledArtifact>
perceus::compileArtifact(std::string_view Source, const PassConfig &Config,
                         std::vector<PassStat> *PassStats) {
  return compile(std::make_unique<Program>(), Source, /*Resolve=*/true,
                 Config, PassStats);
}

std::shared_ptr<const CompiledArtifact>
perceus::compileArtifact(std::unique_ptr<Program> Prog,
                         const PassConfig &Config,
                         std::vector<PassStat> *PassStats) {
  return compile(std::move(Prog), {}, /*Resolve=*/false, Config, PassStats);
}
