//===- bytecode/Peephole.cpp - Post-compile superinstruction tier ---------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Peephole.h"

#include "analysis/ImmediateAnalysis.h"

#include <algorithm>
#include <cassert>

namespace perceus {

namespace {

/// Does this opcode's E field hold a pc target that must be remapped
/// after instructions move? (MatchOp is handled separately: its targets
/// live in the match table, which gets cloned per rewritten chunk.)
bool isBranchOp(Op O) {
  switch (O) {
  case Op::Jump:
  case Op::JumpIfFalse:
  case Op::IsUniqueBr:
  case Op::LtBr:
  case Op::LeBr:
  case Op::EqBr:
  case Op::NeBr:
  case Op::CmpConstBr:
    return true;
  default:
    return false;
  }
}

/// Whether \p Ar is an Add, Sub or Mul reading the constant temp \p K on
/// exactly one side; sets the ArithConst kind byte and the other operand.
/// Add and mul commute, so only sub needs the operand-order split. Div,
/// Mod and Neg stay unfused: their trap repertoire (zero divisors,
/// IntMin overflow) is pinned by dedicated tests and they are cold in
/// every benchmark.
bool constArith(const Instr &Ar, uint16_t K, uint8_t &Kind, uint16_t &X) {
  if (Ar.O != Op::Add && Ar.O != Op::Sub && Ar.O != Op::Mul)
    return false;
  if ((Ar.C == K) == (Ar.D == K))
    return false;
  const bool ConstRhs = Ar.D == K;
  ArithKind AK = Ar.O == Op::Add   ? ArithKind::Add
                 : Ar.O == Op::Mul ? ArithKind::Mul
                 : ConstRhs        ? ArithKind::Sub
                                   : ArithKind::RSub;
  Kind = static_cast<uint8_t>(AK);
  X = ConstRhs ? Ar.C : Ar.D;
  return true;
}

/// The branch-fused form of `Cmp; JumpIfFalse Target`. `a > b` and
/// `a >= b` fuse as LtBr and LeBr on (b, a): the same outcome, and the
/// same trap, since it fires when either operand is not an integer.
Instr cmpBranch(const Instr &Cmp, uint32_t Target) {
  switch (static_cast<CmpKind>(Cmp.A)) {
  case CmpKind::Lt:
    return {Op::LtBr, 0, 0, Cmp.C, Cmp.D, Target};
  case CmpKind::Le:
    return {Op::LeBr, 0, 0, Cmp.C, Cmp.D, Target};
  case CmpKind::Gt:
    return {Op::LtBr, 0, 0, Cmp.D, Cmp.C, Target};
  case CmpKind::Ge:
    return {Op::LeBr, 0, 0, Cmp.D, Cmp.C, Target};
  case CmpKind::Eq:
    return {Op::EqBr, 0, 0, Cmp.C, Cmp.D, Target};
  default:
    return {Op::NeBr, 0, 0, Cmp.C, Cmp.D, Target};
  }
}

/// Whether the VM reads the Sites2/Sites3 columns at opcode \p O: the
/// fused forms whose later components stamp sites of their own.
bool readsLaterSites(Op O) {
  return O == Op::Dup2 || O == Op::Drop2 || O == Op::Dup3 ||
         O == Op::Dup2DecLoadConst;
}

/// Working buffers one peephole run reuses for every chunk, so a rewrite
/// allocates only the exact-size vectors it leaves in the chunk. Sized
/// once for the longest chunk: a rewrite never emits more instructions
/// than it reads.
struct RewriteScratch {
  explicit RewriteScratch(size_t MaxLen) {
    Elide.reserve(MaxLen);
    Leader.reserve(MaxLen + 1);
    OldToNew.reserve(MaxLen + 1);
    Code.reserve(MaxLen);
    Sites.reserve(MaxLen);
    Sites2.reserve(MaxLen);
    Sites3.reserve(MaxLen);
  }

  std::vector<char> Elide, Leader;
  std::vector<uint32_t> OldToNew;
  std::vector<Instr> Code;
  std::vector<const Expr *> Sites, Sites2, Sites3;
};

/// Rewrites one chunk: elide proven-immediate RC ops, fuse adjacent
/// pairs/triples, remap every branch target and clone the chunk's match
/// tables. \p CP is needed for the match-table pool (clones append).
void rewriteChunk(Chunk &Ch, CompiledProgram &CP, RewriteScratch &Buf,
                  PeepholeChunkStats &St) {
  const std::vector<Instr> OldCode = std::move(Ch.Code);
  const std::vector<const Expr *> OldSites = std::move(Ch.Sites);
  const size_t N = OldCode.size();
  St.Before = static_cast<uint32_t>(N);

  // Instructions whose site the immediacy analysis proved elidable.
  std::vector<char> &Elide = Buf.Elide;
  Elide.assign(N, 0);
  for (size_t P = 0; P != N; ++P) {
    Op O = OldCode[P].O;
    if ((O == Op::Dup || O == Op::Drop || O == Op::DecRef) &&
        ImmediateInfo::elidable(OldSites[P]))
      Elide[P] = 1;
  }

  // The next non-elided pc strictly after P, or N.
  auto nextKept = [&](size_t P) {
    ++P;
    while (P < N && Elide[P])
      ++P;
    return P;
  };

  // Leaders: every pc some branch or match arm can land on. A fusion
  // must not span one (jumping into the middle of a superinstruction
  // would re-run or skip components), and neither may the elided gap
  // inside a fused span — the gap's remapped target would otherwise
  // resolve mid-superinstruction.
  std::vector<char> &Leader = Buf.Leader;
  Leader.assign(N + 1, 0);
  for (size_t P = 0; P != N; ++P) {
    const Instr &I = OldCode[P];
    if (I.O == Op::Jump || I.O == Op::JumpIfFalse || I.O == Op::IsUniqueBr)
      Leader[I.E] = 1;
    else if (I.O == Op::MatchOp)
      for (const MatchArmCode &Arm : CP.Matches[I.E].Arms)
        Leader[Arm.Target] = 1;
  }

  // Jump-threading pre-pass: a CmpJmp fusion branches straight to the
  // *successor* of the JumpIfFalse it skips, so that successor becomes a
  // jump target and must be a leader before the greedy scan decides any
  // fusions (otherwise a later fusion at the JumpIfFalse could swallow
  // it and the threaded true-edge would land mid-superinstruction).
  // Over-marking is safe — leaders only restrict fusion.
  for (size_t P = 0; P != N; ++P) {
    if (Elide[P] || OldCode[P].O != Op::Cmp)
      continue;
    const size_t Q = nextKept(P);
    if (Q >= N || OldCode[Q].O != Op::Jump)
      continue;
    const uint32_t L = OldCode[Q].E;
    if (L < N && OldCode[L].O == Op::JumpIfFalse &&
        OldCode[L].B == OldCode[P].B && OldCode[P].B >= Ch.FirstTemp &&
        L + 1 <= 0xffff)
      Leader[L + 1] = 1;
  }

  std::vector<Instr> &Code = Buf.Code;
  std::vector<const Expr *> &Sites = Buf.Sites, &Sites2 = Buf.Sites2,
                            &Sites3 = Buf.Sites3;
  Code.clear();
  Sites.clear();
  Sites2.clear();
  Sites3.clear();
  // OldToNew[p] = new index of the instruction covering old pc p, or of
  // the next emitted instruction when p was elided (an elided RC op is a
  // dynamic no-op, so branching to its successor is equivalent).
  std::vector<uint32_t> &OldToNew = Buf.OldToNew;
  OldToNew.assign(N + 1, 0);

  auto emit = [&](Instr I, const Expr *S1, const Expr *S2, const Expr *S3) {
    Code.push_back(I);
    Sites.push_back(S1);
    Sites2.push_back(S2);
    Sites3.push_back(S3);
  };

  // True when no old pc in (P0, Last] is a leader — the whole candidate
  // span, elided gaps included, is only enterable at its head.
  auto spanFree = [&](size_t P0, size_t Last) {
    for (size_t T = P0 + 1; T <= Last; ++T)
      if (Leader[T])
        return false;
    return true;
  };

  // The constant fusion opening at the LoadConst at old pc P0: sets Out
  // and returns the last old pc it covers, or returns P0 when there is
  // none. Every form reads the pool directly and never writes the
  // constant's temp, which is dead past the instruction consuming it.
  auto constFusion = [&](size_t P0, Instr &Out) -> size_t {
    const Instr &X = OldCode[P0];
    if (X.B < Ch.FirstTemp)
      return P0;
    const size_t Q = nextKept(P0);
    const size_t R = Q < N ? nextKept(Q) : N;
    const Instr *NQ = Q < N ? &OldCode[Q] : nullptr;
    const Instr *NR = R < N ? &OldCode[R] : nullptr;
    const uint16_t K = static_cast<uint16_t>(X.E);
    uint8_t AK = 0;
    uint16_t XReg = 0;
    if (NQ && NR && NQ->O == Op::Cmp && NR->O == Op::JumpIfFalse &&
        NQ->D == X.B && NR->B == NQ->B && NQ->B >= Ch.FirstTemp &&
        NQ->C != X.B && X.E <= 0xffff && spanFree(P0, R)) {
      // The boolean temp is dead outside this expression too.
      Out = {Op::CmpConstBr, NQ->A, 0, NQ->C, K, NR->E};
      return R;
    }
    if (NQ && NQ->O == Op::Ret && NQ->B == X.B && spanFree(P0, Q)) {
      Out = {Op::RetConst, 0, 0, 0, 0, X.E};
      return Q;
    }
    if (NQ && X.E <= 0xffff && constArith(*NQ, X.B, AK, XReg) &&
        spanFree(P0, Q)) {
      if (NR && NR->O == Op::Ret && NR->B == NQ->B && spanFree(P0, R)) {
        // The arith feeds the return directly; the frame dies there,
        // so the dst write is unobservable and elided.
        Out = {Op::ArithConstRet, AK, NQ->B, XReg, K, 0};
        return R;
      }
      Out = {Op::ArithConst, AK, NQ->B, XReg, K, 0};
      return Q;
    }
    return P0;
  };
  // The fusion-priority rule: an RC instruction takes the LoadConst after
  // it only when that LoadConst opens no three-instruction constant
  // fusion (CmpConstBr, ArithConstRet). Taking it saves one dispatch;
  // leaving it saves two.
  auto rcTakesConst = [&](size_t Q) {
    Instr Out{};
    const size_t Last = constFusion(Q, Out);
    return Last == Q ||
           (Out.O != Op::CmpConstBr && Out.O != Op::ArithConstRet);
  };

  size_t P = 0;
  while (P < N) {
    if (Elide[P]) {
      OldToNew[P] = static_cast<uint32_t>(Code.size());
      ++St.Elided;
      ++P;
      continue;
    }
    const Instr &X = OldCode[P];
    const size_t Q = nextKept(P);
    const size_t R2 = Q < N ? nextKept(Q) : N;
    const size_t S3 = R2 < N ? nextKept(R2) : N;
    const Instr *NQ = Q < N ? &OldCode[Q] : nullptr;
    const Instr *NR = R2 < N ? &OldCode[R2] : nullptr;
    const Instr *NS = S3 < N ? &OldCode[S3] : nullptr;
    const uint32_t Idx = static_cast<uint32_t>(Code.size());

    auto fuse = [&](size_t Last, Instr I, const Expr *S1, const Expr *S2,
                    const Expr *S3) {
      for (size_t T = P; T <= Last; ++T)
        OldToNew[T] = Idx;
      emit(I, S1, S2, S3);
      ++St.Fused;
      P = Last + 1;
    };

    bool Fused = false;
    switch (X.O) {
    case Op::Dup:
      if (NQ && NQ->O == Op::Dup && NR && NR->O == Op::DecRef && NS &&
          NS->O == Op::LoadConst && NS->B <= 0xff && rcTakesConst(S3) &&
          spanFree(P, S3)) {
        // The else-block of a unique check: dup the fields that survive,
        // release the shared cell, load the arm's constant.
        fuse(S3,
             {Op::Dup2DecLoadConst, static_cast<uint8_t>(NS->B), NR->C, X.C,
              NQ->C, NS->E},
             OldSites[P], OldSites[Q], OldSites[R2]);
        Fused = true;
      } else if (NQ && NQ->O == Op::Dup && NR && NR->O == Op::Dup &&
                 spanFree(P, R2)) {
        fuse(R2, {Op::Dup3, 0, 0, X.C, NQ->C, NR->C}, OldSites[P],
             OldSites[Q], OldSites[R2]);
        Fused = true;
      } else if (NQ && NQ->O == Op::Dup && spanFree(P, Q)) {
        fuse(Q, {Op::Dup2, 0, 0, X.C, NQ->C, 0}, OldSites[P], OldSites[Q],
             nullptr);
        Fused = true;
      }
      break;
    case Op::Drop:
      if (NQ && NQ->O == Op::Drop && spanFree(P, Q)) {
        fuse(Q, {Op::Drop2, 0, 0, X.C, NQ->C, 0}, OldSites[P], OldSites[Q],
             nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::LoadConst && NR && NR->O == Op::Ret &&
                 NR->B == NQ->B && NQ->B >= Ch.FirstTemp && spanFree(P, R2)) {
        // The tail of almost every arm body: drop the scrutinee, return
        // a constant through a dead temp.
        fuse(R2, {Op::DropRetConst, 0, 0, X.C, 0, NQ->E}, OldSites[P],
             nullptr, nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::LoadConst && rcTakesConst(Q) &&
                 spanFree(P, Q)) {
        fuse(Q, {Op::DropLoadConst, 0, NQ->B, X.C, 0, NQ->E}, OldSites[P],
             nullptr, nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::Move && spanFree(P, Q)) {
        fuse(Q, {Op::DropMove, 0, NQ->B, X.C, NQ->C, 0}, OldSites[P], nullptr,
             nullptr);
        Fused = true;
      }
      break;
    case Op::DecRef:
      if (NQ && NQ->O == Op::LoadConst && rcTakesConst(Q) && spanFree(P, Q)) {
        fuse(Q, {Op::DecLoadConst, 0, NQ->B, X.C, 0, NQ->E}, OldSites[P],
             nullptr, nullptr);
        Fused = true;
      }
      break;
    case Op::IsUniqueBr:
      // The unique path falls through straight into the token
      // materialization; isUnique is false for every non-heap value, so
      // ReuseAddr's non-heap trap was unreachable in this shape.
      if (NQ && NQ->O == Op::ReuseAddr && NQ->C == X.C && NR &&
          NR->O == Op::Jump && NR->E <= 0xffff && spanFree(P, R2)) {
        // The unique path's whole tail: probe, materialize the token,
        // jump to the code that reuses the cell. New pcs only shrink, so the
        // jump target still fits the 16-bit D field after remapping.
        fuse(R2,
             {Op::IsUniqueReuseJmp, 0, NQ->B, X.C,
              static_cast<uint16_t>(NR->E), X.E},
             OldSites[P], nullptr, nullptr);
        Fused = true;
      }
      break;
    case Op::LoadConst: {
      Instr Out{};
      const size_t Last = constFusion(P, Out);
      if (Last != P) {
        fuse(Last, Out, OldSites[P], nullptr, nullptr);
        Fused = true;
      }
      break;
    }
    case Op::Cmp:
      if (NQ && NQ->O == Op::Jump && X.B >= Ch.FirstTemp && NQ->E < N &&
          OldCode[NQ->E].O == Op::JumpIfFalse && OldCode[NQ->E].B == X.B &&
          NQ->E + 1 <= 0xffff && spanFree(P, Q)) {
        // Loop rotation: the condition computed at the bottom jumps to
        // the header's JumpIfFalse on the same dead temp. Thread both
        // edges — B gets the skipped test's successor (marked a leader
        // by the pre-pass and remapped below), E its else target.
        fuse(Q,
             {Op::CmpJmp, X.A, static_cast<uint16_t>(NQ->E + 1), X.C, X.D,
              OldCode[NQ->E].E},
             OldSites[P], nullptr, nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::JumpIfFalse && NQ->B == X.B &&
                 X.B >= Ch.FirstTemp && spanFree(P, Q)) {
        fuse(Q, cmpBranch(X, NQ->E), OldSites[P], nullptr, nullptr);
        Fused = true;
      }
      break;
    case Op::Move:
      if (NQ && NQ->O == Op::Ret && NQ->B == X.B && spanFree(P, Q)) {
        // Not a new opcode: the move's only consumer is the return, and
        // the frame dies there, so Ret reads the source directly.
        fuse(Q, {Op::Ret, 0, X.C, 0, 0, 0}, OldSites[Q], nullptr, nullptr);
        Fused = true;
      }
      break;
    case Op::Con:
      // The constructed cell is the return value; ConRet keeps the dst
      // write (for a clean unwind) and pops the frame in one dispatch.
      if (NQ && NQ->O == Op::Ret && NQ->B == X.B && spanFree(P, Q)) {
        fuse(Q, {Op::ConRet, X.A, X.B, 0, X.D, X.E}, OldSites[P], nullptr,
             nullptr);
        Fused = true;
      }
      break;
    default:
      break;
    }

    if (!Fused) {
      OldToNew[P] = Idx;
      if (X.O == Op::Jump && X.E < N &&
          (OldCode[X.E].O == Op::Ret || OldCode[X.E].O == Op::Jump ||
           OldCode[X.E].O == Op::MatchOp)) {
        // Branch-target replication: the target fully transfers control
        // itself (returns, jumps on, or dispatches a match — MatchOp
        // always assigns the pc or traps), so a copy of it here saves
        // the trampoline dispatch. The replica's own target is remapped
        // by the patch pass below — a replicated MatchOp gets its own
        // per-occurrence table clone, so the shared original is safe.
        emit(OldCode[X.E], OldSites[X.E], nullptr, nullptr);
      } else {
        emit(X, OldSites[P], nullptr, nullptr);
      }
      ++P;
    }
  }
  OldToNew[N] = static_cast<uint32_t>(Code.size());

  // Remap branch targets; clone match tables so the raw chunks keep
  // their originals.
  for (Instr &I : Code) {
    if (I.O == Op::CmpJmp) {
      // Both edges are pc targets: B (true, the skipped test's
      // successor — new indices only shrink, so it still fits 16 bits)
      // and E (false, the skipped test's else target).
      I.B = static_cast<uint16_t>(OldToNew[I.B]);
      I.E = OldToNew[I.E];
    } else if (I.O == Op::IsUniqueReuseJmp) {
      // Two pc targets: D (unique, the fused Jump) and E (else).
      I.D = static_cast<uint16_t>(OldToNew[I.D]);
      I.E = OldToNew[I.E];
    } else if (isBranchOp(I.O)) {
      I.E = OldToNew[I.E];
    } else if (I.O == Op::MatchOp) {
      MatchTable NT = CP.Matches[I.E];
      for (MatchArmCode &Arm : NT.Arms)
        Arm.Target = OldToNew[Arm.Target];
      I.E = static_cast<uint32_t>(CP.Matches.size());
      CP.Matches.push_back(std::move(NT));
    }
  }

  // Exact-size copies; the later site columns only where an
  // instruction reads them.
  Ch.Code = std::vector<Instr>(Code.begin(), Code.end());
  Ch.Sites = std::vector<const Expr *>(Sites.begin(), Sites.end());
  if (std::any_of(Code.begin(), Code.end(),
                  [](const Instr &I) { return readsLaterSites(I.O); })) {
    Ch.Sites2 = std::vector<const Expr *>(Sites2.begin(), Sites2.end());
    Ch.Sites3 = std::vector<const Expr *>(Sites3.begin(), Sites3.end());
  }
  St.After = static_cast<uint32_t>(Ch.Code.size());
}

} // namespace

PeepholeReport runPeephole(CompiledProgram &CP) {
  PeepholeReport Rep;
  if (CP.Peepholed || !CP.Prog)
    return Rep;

  Rep.AnalysisRounds = analyzeImmediates(*CP.Prog).Rounds;

  CP.RawFuncs = CP.Funcs;
  CP.RawLams = CP.Lams;

  size_t MaxLen = 0;
  for (const std::vector<Chunk> *Tab : {&CP.Funcs, &CP.Lams})
    for (const Chunk &Ch : *Tab)
      MaxLen = std::max(MaxLen, Ch.Code.size());
  RewriteScratch Buf(MaxLen);
  for (size_t F = 0; F != CP.Funcs.size(); ++F) {
    PeepholeChunkStats St;
    St.Name = std::string(CP.Prog->symbols().name(CP.Funcs[F].Fn->Name));
    rewriteChunk(CP.Funcs[F], CP, Buf, St);
    Rep.Chunks.push_back(std::move(St));
  }
  for (size_t L = 0; L != CP.Lams.size(); ++L) {
    PeepholeChunkStats St;
    St.Name = "lambda#" + std::to_string(L);
    rewriteChunk(CP.Lams[L], CP, Buf, St);
    Rep.Chunks.push_back(std::move(St));
  }

  CP.Peepholed = true;
  return Rep;
}

} // namespace perceus
