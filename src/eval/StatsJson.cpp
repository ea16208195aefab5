//===- eval/StatsJson.cpp - JSON emission of runtime statistics -----------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/StatsJson.h"

#include "eval/Engine.h"
#include "support/JsonWriter.h"

namespace perceus {

void writeHeapStatsJson(JsonWriter &W, const HeapStats &S) {
  W.beginObject()
      .member("allocs", S.Allocs)
      .member("frees", S.Frees)
      .member("dup_ops", S.DupOps)
      .member("drop_ops", S.DropOps)
      .member("decref_ops", S.DecRefOps)
      .member("non_heap_rc_ops", S.NonHeapRcOps)
      .member("atomic_rc_ops", S.AtomicRcOps)
      .member("coalesced_rc_ops", S.CoalescedRcOps)
      .member("is_unique_tests", S.IsUniqueTests)
      .member("collections", S.Collections)
      .member("failed_allocs", S.FailedAllocs)
      .member("emergency_collections", S.EmergencyCollections)
      .member("unwind_frees", S.UnwindFrees)
      .member("live_bytes", S.LiveBytes)
      .member("peak_bytes", S.PeakBytes)
      .member("live_cells", S.LiveCells)
      .endObject();
}

void writeRunResultJson(JsonWriter &W, const RunResult &R) {
  W.beginObject()
      .member("ok", R.Ok)
      .member("trap", trapKindName(R.Trap));
  // The program's answer when it is an immediate the document can carry;
  // null for a trap, unit, a constructor or a (dropped) heap value.
  W.key("result");
  if (R.Ok && R.Result.Kind == ValueKind::Int)
    W.value(R.Result.Int);
  else if (R.Ok && R.Result.Kind == ValueKind::Bool)
    W.value(R.Result.asBool());
  else
    W.null();
  W.member("steps", R.Steps)
      .member("reuse_hits", R.ReuseHits)
      .member("reuse_misses", R.ReuseMisses)
      .member("tail_calls", R.TailCalls)
      // max_stack_depth is true continuation depth (live non-tail call
      // frames). It historically reported the locals high-water in
      // *slots*; that quantity now lives in max_locals_slots.
      .member("max_stack_depth", R.MaxCallDepth)
      .member("max_call_depth", R.MaxCallDepth)
      .member("max_locals_slots", R.MaxLocalsSlots)
      .member("unwound_cells", R.UnwoundCells);
  W.key("rc_instrs")
      .beginObject()
      .member("dups", R.Rc.Dups)
      .member("drops", R.Rc.Drops)
      .member("frees", R.Rc.Frees)
      .member("decrefs", R.Rc.DecRefs)
      .member("is_uniques", R.Rc.IsUniques)
      .member("drop_reuses", R.Rc.DropReuses)
      .member("implicit_dups", R.Rc.ImplicitDups)
      .member("implicit_drops", R.Rc.ImplicitDrops)
      .member("implicit_decrefs", R.Rc.ImplicitDecRefs)
      .member("fused_ops", R.Rc.FusedOps)
      .member("fused_rc_ops", R.Rc.FusedRcOps)
      .endObject();
  W.endObject();
}

} // namespace perceus
