//===- eval/StatsJson.h - JSON emission of runtime statistics ---*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared serialization of HeapStats and RunResult so `perc --stats-json`
/// and every bench harness emit byte-identical key sets — the schema the
/// validation tests (and CI's artifact check) pin down. Each function
/// emits one JSON *object value*; the caller supplies the surrounding
/// key/array structure.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_EVAL_STATSJSON_H
#define PERCEUS_EVAL_STATSJSON_H

namespace perceus {

class JsonWriter;
struct HeapStats;
struct RunResult;

/// {"allocs":..,"frees":..,"dup_ops":..,...,"peak_bytes":..}
void writeHeapStatsJson(JsonWriter &W, const HeapStats &S);

/// {"ok":..,"trap":..,"result":..,"steps":..,...,"rc_instrs":{...}};
/// "result" is the integer or boolean the run returned, else null.
void writeRunResultJson(JsonWriter &W, const RunResult &R);

} // namespace perceus

#endif // PERCEUS_EVAL_STATSJSON_H
