//===- bytecode/Peephole.cpp - Post-compile superinstruction tier ---------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Peephole.h"

#include "analysis/ImmediateAnalysis.h"

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
  case Op::IsNullTokenBr:
  case Op::IsUniqueReuse:
  case Op::LtBr:
  case Op::LeBr:
  case Op::GtBr:
  case Op::GeBr:
  case Op::EqBr:
  case Op::NeBr:
  case Op::CmpConstBr:
  case Op::IsUniqueBrDup2:
  case Op::JfMove:
  case Op::JfDrop:
  case Op::MoveCmpConstBr:
    return true;
  default:
    return false;
  }
}

/// Maps an arithmetic opcode to the kind byte shared by MoveArith /
/// ArithMove (0 add, 1 sub, 2 mul), or returns false. Div/Mod/Neg stay
/// unfused: their trap repertoire (zero divisors, INT64_MIN overflow)
/// is pinned by dedicated tests and they are cold in every benchmark.
bool arithKind(Op O, uint8_t &K) {
  switch (O) {
  case Op::Add:
    K = 0;
    return true;
  case Op::Sub:
    K = 1;
    return true;
  case Op::Mul:
    K = 2;
    return true;
  default:
    return false;
  }
}

/// Maps a compare opcode to its branch-fused twin, or returns false.
bool cmpToBr(Op Cmp, Op &Br, CmpBrKind &K) {
  switch (Cmp) {
  case Op::Lt:
    Br = Op::LtBr;
    K = CmpBrKind::Lt;
    return true;
  case Op::Le:
    Br = Op::LeBr;
    K = CmpBrKind::Le;
    return true;
  case Op::Gt:
    Br = Op::GtBr;
    K = CmpBrKind::Gt;
    return true;
  case Op::Ge:
    Br = Op::GeBr;
    K = CmpBrKind::Ge;
    return true;
  case Op::EqVal:
    Br = Op::EqBr;
    K = CmpBrKind::Eq;
    return true;
  case Op::NeVal:
    Br = Op::NeBr;
    K = CmpBrKind::Ne;
    return true;
  default:
    return false;
  }
}

/// Rewrites one chunk: elide proven-immediate RC ops, fuse adjacent
/// pairs/triples, remap every branch target and clone the chunk's match
/// tables. \p CP is needed for the match-table pool (clones append).
void rewriteChunk(Chunk &Ch, CompiledProgram &CP, const ImmediateInfo &Info,
                  PeepholeChunkStats &St) {
  const std::vector<Instr> OldCode = std::move(Ch.Code);
  const std::vector<const Expr *> OldSites = std::move(Ch.Sites);
  const size_t N = OldCode.size();
  St.Before = static_cast<uint32_t>(N);

  // Instructions whose site the immediacy analysis proved elidable.
  std::vector<char> Elide(N, 0);
  for (size_t P = 0; P != N; ++P) {
    Op O = OldCode[P].O;
    if ((O == Op::Dup || O == Op::Drop || O == Op::DecRef) &&
        Info.ElidableRcOps.count(OldSites[P]))
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
  std::vector<char> Leader(N + 1, 0);
  for (size_t P = 0; P != N; ++P) {
    const Instr &I = OldCode[P];
    if (I.O == Op::Jump || I.O == Op::JumpIfFalse || I.O == Op::IsUniqueBr ||
        I.O == Op::IsNullTokenBr)
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
    Op Br;
    CmpBrKind K;
    if (Elide[P] || !cmpToBr(OldCode[P].O, Br, K))
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

  std::vector<Instr> Code;
  std::vector<const Expr *> Sites, Sites2, Sites3;
  Code.reserve(N);
  Sites.reserve(N);
  Sites2.reserve(N);
  Sites3.reserve(N);
  // OldToNew[p] = new index of the instruction covering old pc p, or of
  // the next emitted instruction when p was elided (an elided RC op is a
  // dynamic no-op, so branching to its successor is equivalent).
  std::vector<uint32_t> OldToNew(N + 1, 0);

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
          NS->O == Op::LoadConst && NS->B <= 0xff && spanFree(P, S3)) {
        // The else-block of a unique check: dup the fields that survive,
        // release the shared cell, load the arm's constant.
        fuse(S3,
             {Op::Dup2DecLoadConst, static_cast<uint8_t>(NS->B), NR->C, X.C,
              NQ->C, NS->E},
             OldSites[P], OldSites[Q], OldSites[R2]);
        Fused = true;
      } else if (NQ && NQ->O == Op::Move && NQ->C == X.C && NR &&
                 NR->O == Op::Dup && NS && NS->O == Op::Move &&
                 NS->C == NR->C && spanFree(P, S3)) {
        // Match-binder materialization: two dup-then-copy pairs where each
        // move reads the slot its dup just retained.
        fuse(S3, {Op::Dup2Move2, 0, NQ->B, X.C, NS->B, NR->C}, OldSites[P],
             OldSites[R2], nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::DecRef && NR && NR->O == Op::LoadConst &&
                 spanFree(P, R2)) {
        fuse(R2, {Op::DupDecLoadConst, 0, NR->B, X.C, NQ->C, NR->E},
             OldSites[P], OldSites[Q], nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::CallStatic && spanFree(P, Q)) {
        fuse(Q,
             {Op::DupCallStatic, NQ->A, NQ->B, NQ->C, X.C, NQ->E},
             OldSites[P], nullptr, nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::Call && spanFree(P, Q)) {
        // Sites holds the call site (applyClosure stamps through it);
        // the dup's own site rides in Sites2.
        fuse(Q, {Op::DupCall, NQ->A, NQ->B, NQ->C, X.C, 0}, OldSites[Q],
             OldSites[P], nullptr);
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
      } else if (NQ && NQ->O == Op::Move && spanFree(P, Q)) {
        fuse(Q, {Op::DupMove, 0, NQ->B, NQ->C, X.C, 0}, OldSites[P], nullptr,
             nullptr);
        Fused = true;
      }
      break;
    case Op::Drop:
      if (NQ && NQ->O == Op::Drop && NR && NR->O == Op::Drop &&
          spanFree(P, R2)) {
        fuse(R2, {Op::Drop3, 0, 0, X.C, NQ->C, NR->C}, OldSites[P],
             OldSites[Q], OldSites[R2]);
        Fused = true;
      } else if (NQ && NQ->O == Op::Drop && spanFree(P, Q)) {
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
      } else if (NQ && NQ->O == Op::LoadConst && spanFree(P, Q)) {
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
      if (NQ && NQ->O == Op::LoadConst && spanFree(P, Q)) {
        fuse(Q, {Op::DecLoadConst, 0, NQ->B, X.C, 0, NQ->E}, OldSites[P],
             nullptr, nullptr);
        Fused = true;
      }
      break;
    case Op::JumpIfFalse:
      // The fall-through component runs only on the true path, exactly
      // as it did when it merely followed the branch.
      if (NQ && NQ->O == Op::Move && spanFree(P, Q)) {
        fuse(Q, {Op::JfMove, 0, X.B, NQ->B, NQ->C, X.E}, OldSites[P], nullptr,
             nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::Drop && spanFree(P, Q)) {
        fuse(Q, {Op::JfDrop, 0, X.B, NQ->C, 0, X.E}, OldSites[P], OldSites[Q],
             nullptr);
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
        // jump to the reuse-specialized arm. New pcs only shrink, so the
        // jump target still fits the 16-bit D field after remapping.
        fuse(R2,
             {Op::IsUniqueReuseJmp, 0, NQ->B, X.C,
              static_cast<uint16_t>(NR->E), X.E},
             OldSites[P], nullptr, nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::ReuseAddr && NQ->C == X.C &&
                 spanFree(P, Q)) {
        fuse(Q, {Op::IsUniqueReuse, 0, NQ->B, X.C, 0, X.E}, OldSites[P],
             nullptr, nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::Dup && NR && NR->O == Op::Dup &&
                 spanFree(P, R2)) {
        // Reuse-specialized arm prologue: probe then dup the fields. The
        // else-edge skipped both dups before; the fused handler runs
        // them only on the unique path, so spanFree (which covers the
        // else target, a leader) keeps the edge out of the span.
        fuse(R2, {Op::IsUniqueBrDup2, 0, NQ->C, X.C, NR->C, X.E}, OldSites[P],
             OldSites[Q], OldSites[R2]);
        Fused = true;
      }
      break;
    case Op::LoadConst: {
      Op Br;
      CmpBrKind K;
      if (NQ && NR && cmpToBr(NQ->O, Br, K) && NR->O == Op::JumpIfFalse &&
          NQ->D == X.B && NR->B == NQ->B && NQ->B >= Ch.FirstTemp &&
          X.B >= Ch.FirstTemp && NQ->C != X.B && X.E <= 0xffff &&
          spanFree(P, R2)) {
        // Both the constant temp and the boolean temp are dead outside
        // this expression; CmpConstBr reads the pool directly and never
        // writes either.
        fuse(R2,
             {Op::CmpConstBr, static_cast<uint8_t>(K), 0, NQ->C,
              static_cast<uint16_t>(X.E), NR->E},
             OldSites[P], nullptr, nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::Ret && NQ->B == X.B &&
                 X.B >= Ch.FirstTemp && spanFree(P, Q)) {
        fuse(Q, {Op::RetConst, 0, 0, 0, 0, X.E}, OldSites[P], nullptr,
             nullptr);
        Fused = true;
      } else if (uint8_t AK;
                 NQ && arithKind(NQ->O, AK) && X.B >= Ch.FirstTemp &&
                 X.E <= 0xffff &&
                 ((NQ->D == X.B && NQ->C != X.B) ||
                  (NQ->C == X.B && NQ->D != X.B)) &&
                 spanFree(P, Q)) {
        // The constant temp is dead past the arith that consumes it.
        // Kind byte: 0 x+K, 1 x-K, 2 K-x, 3 x*K — add and mul commute,
        // so only sub needs the operand-order split.
        const bool ConstRhs = NQ->D == X.B;
        uint8_t K = NQ->O == Op::Add   ? 0
                    : NQ->O == Op::Mul ? 3
                    : ConstRhs         ? 1
                                       : 2;
        const uint16_t XReg = ConstRhs ? NQ->C : NQ->D;
        if (NR && NR->O == Op::Ret && NR->B == NQ->B && spanFree(P, R2)) {
          // The arith feeds the return directly; the frame dies there,
          // so the dst write is unobservable and elided.
          fuse(R2,
               {Op::ArithConstRet, K, NQ->B, XReg, static_cast<uint16_t>(X.E),
                0},
               OldSites[P], nullptr, nullptr);
        } else if (NR && NR->O == Op::Move && spanFree(P, R2)) {
          fuse(R2,
               {Op::ArithConstMove, K, NQ->B, XReg,
                static_cast<uint16_t>(X.E),
                (static_cast<uint32_t>(NR->B) << 16) | NR->C},
               OldSites[P], nullptr, nullptr);
        } else {
          fuse(Q,
               {Op::ArithConst, K, NQ->B, XReg, static_cast<uint16_t>(X.E),
                0},
               OldSites[P], nullptr, nullptr);
        }
        Fused = true;
      } else if (NQ && NQ->O == Op::Move && spanFree(P, Q)) {
        fuse(Q, {Op::LoadConstMove, 0, NQ->B, NQ->C, X.B, X.E}, OldSites[P],
             nullptr, nullptr);
        Fused = true;
      }
      break;
    }
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
    case Op::EqVal:
    case Op::NeVal: {
      Op Br;
      CmpBrKind K;
      if (NQ && NQ->O == Op::Jump && cmpToBr(X.O, Br, K) &&
          X.B >= Ch.FirstTemp && NQ->E < N &&
          OldCode[NQ->E].O == Op::JumpIfFalse && OldCode[NQ->E].B == X.B &&
          NQ->E + 1 <= 0xffff && spanFree(P, Q)) {
        // Loop rotation: the condition computed at the bottom jumps to
        // the header's JumpIfFalse on the same dead temp. Thread both
        // edges — B gets the skipped test's successor (marked a leader
        // by the pre-pass and remapped below), E its else target.
        fuse(Q,
             {Op::CmpJmp, static_cast<uint8_t>(K),
              static_cast<uint16_t>(NQ->E + 1), X.C, X.D, OldCode[NQ->E].E},
             OldSites[P], nullptr, nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::JumpIfFalse && NQ->B == X.B &&
                 X.B >= Ch.FirstTemp && cmpToBr(X.O, Br, K) &&
                 spanFree(P, Q)) {
        fuse(Q, {Br, 0, 0, X.C, X.D, NQ->E}, OldSites[P], nullptr, nullptr);
        Fused = true;
      }
      break;
    }
    case Op::Add:
    case Op::Sub:
    case Op::Mul: {
      uint8_t AK;
      if (NQ && NQ->O == Op::Move && arithKind(X.O, AK) && spanFree(P, Q)) {
        fuse(Q,
             {Op::ArithMove, AK, X.B, X.C, X.D,
              (static_cast<uint32_t>(NQ->B) << 16) | NQ->C},
             OldSites[P], nullptr, nullptr);
        Fused = true;
      }
      break;
    }
    case Op::Move: {
      uint8_t AK;
      Op Br;
      CmpBrKind CK;
      if (NQ && NQ->O == Op::Ret && NQ->B == X.B && spanFree(P, Q)) {
        // Not a new opcode: the move's only consumer is the return, and
        // the frame dies there, so Ret reads the source directly.
        fuse(Q, {Op::Ret, 0, X.C, 0, 0, 0}, OldSites[Q], nullptr, nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::TailCallStatic && spanFree(P, Q)) {
        fuse(Q, {Op::MoveTailCallStatic, NQ->A, X.B, NQ->C, X.C, NQ->E},
             OldSites[P], nullptr, nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::LoadConst && NR && NS &&
                 cmpToBr(NR->O, Br, CK) && NS->O == Op::JumpIfFalse &&
                 NR->D == NQ->B && NS->B == NR->B && NR->B >= Ch.FirstTemp &&
                 NQ->B >= Ch.FirstTemp && NR->C == X.B && NR->C != NQ->B &&
                 NQ->E <= 0xffff && spanFree(P, S3)) {
        // The loop-header prologue: refresh the induction variable, then
        // the CmpConstBr quad on it. The fused move feeds the compare's
        // lhs, so the whole four-instruction header is one dispatch.
        fuse(S3,
             {Op::MoveCmpConstBr, static_cast<uint8_t>(CK), X.C, X.B,
              static_cast<uint16_t>(NQ->E), NS->E},
             OldSites[P], nullptr, nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::Dup && NR && NR->O == Op::Move &&
                 NR->C == NQ->C && spanFree(P, R2)) {
        // Copy, retain, copy: the second move reads the slot the dup
        // just retained (match binders feeding a recursive call window).
        fuse(R2, {Op::MoveDupMove, 0, X.B, X.C, NQ->C, NR->B}, OldSites[Q],
             nullptr, nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::LoadConst && NR && arithKind(NR->O, AK) &&
                 NQ->B >= Ch.FirstTemp && NQ->E <= 0xffff && X.B != NQ->B &&
                 ((NR->D == NQ->B && NR->C != NQ->B) ||
                  (NR->C == NQ->B && NR->D != NQ->B)) &&
                 spanFree(P, R2)) {
        // The ArithConst triple with a leading move — typically the
        // refreshed loop variable the arith then advances.
        const bool ConstRhs = NR->D == NQ->B;
        const uint8_t K = NR->O == Op::Add   ? 0
                          : NR->O == Op::Mul ? 3
                          : ConstRhs         ? 1
                                             : 2;
        fuse(R2,
             {Op::MoveArithConst, K, NR->B, ConstRhs ? NR->C : NR->D,
              static_cast<uint16_t>(NQ->E),
              (static_cast<uint32_t>(X.B) << 16) | X.C},
             OldSites[P], nullptr, nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::Move && NR && NR->O == Op::Move &&
                 NR->C <= 0xff && spanFree(P, R2)) {
        fuse(R2,
             {Op::Move3, static_cast<uint8_t>(NR->C), X.B, X.C, NQ->B,
              (static_cast<uint32_t>(NR->B) << 16) | NQ->C},
             OldSites[P], nullptr, nullptr);
        Fused = true;
      } else if (NQ && arithKind(NQ->O, AK) && spanFree(P, Q)) {
        fuse(Q,
             {Op::MoveArith, AK, NQ->B, NQ->C, NQ->D,
              (static_cast<uint32_t>(X.B) << 16) | X.C},
             OldSites[P], nullptr, nullptr);
        Fused = true;
      } else if (NQ && NQ->O == Op::Move && spanFree(P, Q)) {
        fuse(Q, {Op::Move2, 0, X.B, X.C, NQ->B, NQ->C}, OldSites[P], nullptr,
             nullptr);
        Fused = true;
      }
      break;
    }
    case Op::Con:
      // The constructed cell is the return value; ConRet keeps the dst
      // write (for a clean unwind) and pops the frame in one dispatch.
      if (NQ && NQ->O == Op::Ret && NQ->B == X.B && spanFree(P, Q)) {
        fuse(Q, {Op::ConRet, X.A, X.B, X.C, X.D, 0}, OldSites[P], nullptr,
             nullptr);
        Fused = true;
      }
      break;
    case Op::SetField:
      // Same token slot: the set-field's null check subsumes the
      // token-value's, and the fused handler traps with the set-field
      // message first, exactly like the unfused pair.
      if (NQ && NQ->O == Op::TokenValue && NQ->C == X.C && spanFree(P, Q)) {
        fuse(Q, {Op::SetFieldToken, X.A, NQ->B, X.C, X.D, NQ->D}, OldSites[Q],
             nullptr, nullptr);
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

  Ch.Code = std::move(Code);
  Ch.Sites = std::move(Sites);
  Ch.Sites2 = std::move(Sites2);
  Ch.Sites3 = std::move(Sites3);
  St.After = static_cast<uint32_t>(Ch.Code.size());
}

} // namespace

PeepholeReport runPeephole(CompiledProgram &CP) {
  PeepholeReport Rep;
  if (CP.Peepholed || !CP.Prog)
    return Rep;

  ImmediateInfo Info = analyzeImmediates(*CP.Prog);
  Rep.AnalysisRounds = Info.Rounds;

  CP.RawFuncs = CP.Funcs;
  CP.RawLams = CP.Lams;

  for (size_t F = 0; F != CP.Funcs.size(); ++F) {
    PeepholeChunkStats St;
    St.Name = std::string(CP.Prog->symbols().name(CP.Funcs[F].Fn->Name));
    rewriteChunk(CP.Funcs[F], CP, Info, St);
    Rep.Chunks.push_back(std::move(St));
  }
  for (size_t L = 0; L != CP.Lams.size(); ++L) {
    PeepholeChunkStats St;
    St.Name = "lambda#" + std::to_string(L);
    rewriteChunk(CP.Lams[L], CP, Info, St);
    Rep.Chunks.push_back(std::move(St));
  }

  CP.Peepholed = true;
  return Rep;
}

} // namespace perceus
