//===- tests/support/telemetry_test.cpp - JSON + telemetry sink tests ----------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/JsonWriter.h"
#include "support/Telemetry.h"

#include "Common.h"
#include "eval/Runner.h"
#include "eval/StatsJson.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>

using namespace perceus;

namespace {

//===--- JsonWriter ----------------------------------------------------------//

TEST(JsonWriter, EmitsNestedStructure) {
  JsonWriter W;
  W.beginObject()
      .member("name", "perceus")
      .member("ok", true)
      .member("n", int64_t(-7));
  W.key("xs").beginArray().value(1).value(2).value(3).endArray();
  W.key("inner").beginObject().member("pi", 3.5).endObject();
  W.endObject();
  EXPECT_TRUE(W.balanced());
  EXPECT_EQ(W.str(), "{\"name\":\"perceus\",\"ok\":true,\"n\":-7,"
                     "\"xs\":[1,2,3],\"inner\":{\"pi\":3.5}}");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter W;
  W.beginObject().member("s", "a\"b\\c\nd\te\x01") .endObject();
  EXPECT_EQ(W.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}");
}

TEST(JsonWriter, StringsStayUtf8WhateverTheBytes) {
  // Well-formed UTF-8 is copied; each maximal ill-formed subpart
  // (Unicode §3.9) becomes one U+FFFD, so parseJson, which rejects
  // ill-formed UTF-8, reads every document back.
  const std::string Fffd = "\xef\xbf\xbd";
  const std::pair<std::string, std::string> Cases[] = {
      {"\xe9", Fffd},                         // a lone Latin-1 byte
      {"caf\xc3\xa9", "caf\xc3\xa9"},           // well-formed: unchanged
      {"\xe2\x82x", Fffd + "x"},               // a truncated 3-byte sequence
      {"\xc0\xaf", Fffd + Fffd},               // an overlong '/'
      {"\xf0\x9f\x98\x80\xed\xa0\x80", "\xf0\x9f\x98\x80" + Fffd + Fffd + Fffd},
  };
  for (const auto &[In, Want] : Cases) {
    JsonWriter W;
    W.beginArray().value(In).endArray();
    std::string Err;
    std::optional<JsonValue> V = parseJson(W.str(), &Err);
    ASSERT_TRUE(V) << W.str() << ": " << Err;
    ASSERT_EQ(V->Items.size(), 1u);
    EXPECT_EQ(V->Items[0].Str, Want) << W.str();
  }
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter W;
  W.beginArray().value(NAN).value(INFINITY).value(1.5).endArray();
  EXPECT_EQ(W.str(), "[null,null,1.5]");
}

TEST(JsonWriter, LargeUnsignedSurvives) {
  JsonWriter W;
  W.beginArray().value(uint64_t(1) << 63).endArray();
  EXPECT_EQ(W.str(), "[9223372036854775808]");
}

TEST(JsonWriter, IntegersPrintExactlyAndDoublesShortestRoundTrip) {
  JsonWriter W;
  W.beginArray()
      .value(std::numeric_limits<int64_t>::min())
      .value(std::numeric_limits<int64_t>::max())
      .value(std::numeric_limits<uint64_t>::max())
      .value(int64_t(0))
      .value(-1)
      .endArray();
  EXPECT_EQ(W.str(), "[-9223372036854775808,9223372036854775807,"
                     "18446744073709551615,0,-1]");

  // Doubles print in the shortest form that parses back to the same
  // value: no %.17g tail of noise digits.
  W = JsonWriter();
  W.beginArray().value(0.1).value(0.085341).value(1e21).value(-0.0).endArray();
  EXPECT_EQ(W.str(), "[0.1,0.085341,1e+21,-0]");
  const double Cases[] = {0.1 * 3,
                          1.8083179999999999,
                          1e-300,
                          5e-324,
                          std::numeric_limits<double>::max(),
                          -123456.789e-3,
                          2.0 / 3.0,
                          4096.0};
  for (double D : Cases) {
    W = JsonWriter();
    W.value(D);
    EXPECT_EQ(std::strtod(W.str().c_str(), nullptr), D) << W.str();
    std::optional<JsonValue> V = parseJson(W.str());
    ASSERT_TRUE(V) << W.str();
    EXPECT_EQ(V->Num, D) << W.str();
  }
}

//===--- parseJson -----------------------------------------------------------//

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonWriter W;
  W.beginObject().member("a", "x\n\"y\"").member("b", int64_t(-3));
  W.key("c").beginArray().value(true).null().value(2.5).endArray();
  W.endObject();
  std::string Err;
  auto Doc = parseJson(W.str(), &Err);
  ASSERT_TRUE(Doc) << Err;
  ASSERT_TRUE(Doc->isObject());
  const JsonValue *A = Doc->find("a", JsonValue::Kind::String);
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->Str, "x\n\"y\"");
  const JsonValue *B = Doc->find("b", JsonValue::Kind::Number);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(B->Num, -3.0);
  const JsonValue *C = Doc->find("c", JsonValue::Kind::Array);
  ASSERT_NE(C, nullptr);
  ASSERT_EQ(C->Items.size(), 3u);
  EXPECT_TRUE(C->Items[0].isBool());
  EXPECT_TRUE(C->Items[1].isNull());
  EXPECT_EQ(C->Items[2].Num, 2.5);
}

TEST(JsonParse, DecodesUnicodeEscapes) {
  auto Doc = parseJson("\"a\\u00e9\\u0041\"");
  ASSERT_TRUE(Doc);
  EXPECT_EQ(Doc->Str, "a\xc3\xa9"
                      "A");
}

TEST(JsonParse, SurrogatePairsDecodeAndLoneSurrogatesFail) {
  // U+1F600 as an escaped pair is its 4-byte UTF-8 form.
  auto Doc = parseJson("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(Doc);
  EXPECT_EQ(Doc->Str, "\xf0\x9f\x98\x80");
  for (const char *Lone : {"\"\\ud83d\"", "\"\\ude00\"", "\"\\ud83dx\"",
                           "\"\\ud83d\\u0041\"", "\"\\ud83d\\ud83d\""}) {
    std::string Err;
    EXPECT_FALSE(parseJson(Lone, &Err)) << Lone;
    EXPECT_NE(Err.find("surrogate"), std::string::npos) << Lone << ": " << Err;
  }
}

TEST(JsonParse, StringsMustBeWellFormedUtf8) {
  // Two-, three- and four-byte sequences pass through unchanged.
  auto Doc = parseJson("\"caf\xc3\xa9 \xe4\xb8\xad \xf0\x9f\x98\x80\"");
  ASSERT_TRUE(Doc);
  EXPECT_EQ(Doc->Str, "caf\xc3\xa9 \xe4\xb8\xad \xf0\x9f\x98\x80");
  // A Latin-1 byte, a stray continuation byte, a truncated sequence, an
  // overlong NUL, an encoded surrogate, and a code point past U+10FFFF.
  for (const char *Bad : {"\"caf\xe9\"", "\"\x80\"", "\"\xe4\xb8\"",
                          "\"\xc0\x80\"", "\"\xed\xa0\x80\"",
                          "\"\xf4\x90\x80\x80\""}) {
    std::string Err;
    EXPECT_FALSE(parseJson(Bad, &Err)) << Bad;
    EXPECT_NE(Err.find("UTF-8"), std::string::npos) << Err;
  }
}

TEST(JsonParse, NumbersKeepTheirSpelling) {
  // Str keeps the text, so an int64 past 2^53 survives exactly.
  auto Doc = parseJson("[9223372036854775807,-0,1.5e3]");
  ASSERT_TRUE(Doc);
  ASSERT_EQ(Doc->Items.size(), 3u);
  EXPECT_EQ(Doc->Items[0].Str, "9223372036854775807");
  EXPECT_EQ(Doc->Items[1].Str, "-0");
  EXPECT_EQ(Doc->Items[2].Str, "1.5e3");
  EXPECT_EQ(Doc->Items[2].Num, 1500.0);
}

TEST(JsonParse, NestingPastTheBoundIsAnErrorNotACrash) {
  auto nested = [](size_t Depth) {
    return std::string(Depth, '[') + std::string(Depth, ']');
  };
  EXPECT_TRUE(parseJson(nested(MaxJsonDepth)));
  std::string Err;
  EXPECT_FALSE(parseJson(nested(MaxJsonDepth + 1), &Err));
  EXPECT_NE(Err.find("nesting"), std::string::npos) << Err;
  // Deep enough to exhaust the stack of a parser recursing without a
  // bound.
  std::string Objects;
  for (int I = 0; I != 20000; ++I)
    Objects += "{\"a\":";
  EXPECT_FALSE(parseJson(std::string(20000, '[')));
  EXPECT_FALSE(parseJson(nested(20000)));
  std::string ObjectsErr;
  EXPECT_FALSE(parseJson(Objects, &ObjectsErr));
  EXPECT_NE(ObjectsErr.find("nesting"), std::string::npos) << ObjectsErr;
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_FALSE(parseJson("{\"a\":1,}"));
  EXPECT_FALSE(parseJson("[1 2]"));
  EXPECT_FALSE(parseJson("{\"a\" 1}"));
  EXPECT_FALSE(parseJson("\"unterminated"));
  EXPECT_FALSE(parseJson("01"));
  EXPECT_FALSE(parseJson("1 trailing"));
  EXPECT_FALSE(parseJson("\"bad\\q\""));
  EXPECT_FALSE(parseJson("\"raw\x01control\""));
  EXPECT_FALSE(parseJson("\"raw\ttab\""));
  EXPECT_FALSE(parseJson("[1,\f2]"));
  EXPECT_FALSE(parseJson("[1,\v2]"));
  std::string Err;
  EXPECT_FALSE(parseJson("", &Err));
  EXPECT_FALSE(Err.empty());
}

//===--- CountingSink --------------------------------------------------------//

TEST(CountingSink, ShadowLedgerTracksAllocFreeOnly) {
  CountingSink S;
  S.record(RcEvent::Alloc, 100);
  S.record(RcEvent::Alloc, 50);
  EXPECT_EQ(S.shadowLiveBytes(), 150u);
  EXPECT_EQ(S.shadowPeakBytes(), 150u);
  S.record(RcEvent::ReuseHit, 100); // reuse must not move the ledger
  EXPECT_EQ(S.shadowLiveBytes(), 150u);
  S.record(RcEvent::Free, 50);
  EXPECT_EQ(S.shadowLiveBytes(), 100u);
  EXPECT_EQ(S.shadowPeakBytes(), 150u); // peak is sticky
  S.record(RcEvent::DupCall, 0);
  S.record(RcEvent::DropCall, 0);
  S.record(RcEvent::DecRefCall, 0);
  S.record(RcEvent::IsUniqueCall, 0);
  EXPECT_EQ(S.totalRcCalls(), 4u);
}

//===--- SiteTableSink -------------------------------------------------------//

TEST(SiteTableSink, AttributesEventsToStampedSites) {
  SiteTableSink S;
  int A, B;
  S.setSite(&A, "dup", SourceLoc{3, 1});
  S.record(RcEvent::DupCall, 0);
  S.record(RcEvent::DupCall, 0);
  S.setSite(&B, "con", SourceLoc{5, 2});
  S.record(RcEvent::Alloc, 48);
  S.setSite(&A, "dup", SourceLoc{3, 1}); // sites repeat in loops
  S.record(RcEvent::DupCall, 0);
  ASSERT_EQ(S.rows().size(), 2u);
  EXPECT_EQ(S.rows()[0].Label, "dup");
  EXPECT_EQ(S.rows()[0].Counts[unsigned(RcEvent::DupCall)], 3u);
  EXPECT_EQ(S.rows()[1].Counts[unsigned(RcEvent::Alloc)], 1u);
  EXPECT_EQ(S.rows()[1].Bytes, 48u);
  EXPECT_EQ(S.unattributed().Counts[unsigned(RcEvent::DupCall)], 0u);

  JsonWriter W;
  S.writeJson(W);
  std::string Err;
  auto Doc = parseJson(W.str(), &Err);
  ASSERT_TRUE(Doc) << Err;
  ASSERT_TRUE(Doc->isArray());
  ASSERT_EQ(Doc->Items.size(), 2u);
  const JsonValue *Dup = Doc->Items[0].find("dup", JsonValue::Kind::Number);
  ASSERT_NE(Dup, nullptr);
  EXPECT_EQ(Dup->Num, 3.0);
  const JsonValue *Line =
      Doc->Items[0].find("line", JsonValue::Kind::Number);
  ASSERT_NE(Line, nullptr);
  EXPECT_EQ(Line->Num, 3.0);
}

TEST(SiteTableSink, OrphanRowCollectsUnstampedEvents) {
  SiteTableSink S;
  S.record(RcEvent::Alloc, 32); // no site stamped yet
  EXPECT_EQ(S.unattributed().Counts[unsigned(RcEvent::Alloc)], 1u);
  JsonWriter W;
  S.writeJson(W);
  auto Doc = parseJson(W.str());
  ASSERT_TRUE(Doc);
  ASSERT_EQ(Doc->Items.size(), 1u);
  EXPECT_NE(Doc->Items[0].find("site", JsonValue::Kind::Null), nullptr);
}

//===--- Stats JSON schemas --------------------------------------------------//

TEST(StatsJson, PercStatsDocumentHasTheDocumentedShape) {
  // The exact document `perc --stats-json` writes, assembled the same
  // way, must parse and carry every documented key.
  Runner R(mapSumSource(), PassConfig::perceusFull());
  ASSERT_TRUE(R.ok());
  SiteTableSink Sites;
  R.setStatsSink(&Sites);
  RunResult Res = R.callInt("bench_mapsum", {100});
  ASSERT_TRUE(Res.Ok);

  JsonWriter W;
  W.beginObject().member("schema", "perceus-stats-v1");
  W.key("heap");
  writeHeapStatsJson(W, R.heap().stats());
  W.key("run");
  writeRunResultJson(W, Res);
  W.key("sites");
  Sites.writeJson(W);
  W.endObject();

  std::string Err;
  auto Doc = parseJson(W.str(), &Err);
  ASSERT_TRUE(Doc) << Err;
  const JsonValue *Heap = Doc->find("heap", JsonValue::Kind::Object);
  ASSERT_NE(Heap, nullptr);
  for (const char *Key :
       {"allocs", "frees", "dup_ops", "drop_ops", "decref_ops",
        "non_heap_rc_ops", "atomic_rc_ops", "coalesced_rc_ops",
        "is_unique_tests", "live_bytes", "peak_bytes", "live_cells"})
    EXPECT_NE(Heap->find(Key, JsonValue::Kind::Number), nullptr) << Key;
  const JsonValue *Run = Doc->find("run", JsonValue::Kind::Object);
  ASSERT_NE(Run, nullptr);
  const JsonValue *Result = Run->find("result", JsonValue::Kind::Number);
  ASSERT_NE(Result, nullptr);
  EXPECT_EQ(Result->Num, static_cast<double>(Res.Result.Int));
  const JsonValue *Rc = Run->find("rc_instrs", JsonValue::Kind::Object);
  ASSERT_NE(Rc, nullptr);
  for (const char *Key : {"dups", "drops", "frees", "decrefs", "is_uniques",
                          "drop_reuses", "implicit_dups", "implicit_drops",
                          "implicit_decrefs", "fused_ops", "fused_rc_ops"})
    EXPECT_NE(Rc->find(Key, JsonValue::Kind::Number), nullptr) << Key;
  const JsonValue *Sites2 = Doc->find("sites", JsonValue::Kind::Array);
  ASSERT_NE(Sites2, nullptr);
  EXPECT_FALSE(Sites2->Items.empty());
}

TEST(StatsJson, BenchReportValidatesAgainstItsSchema) {
  bench::BenchProgram MapSum{"mapsum", mapSumSource(), "bench_mapsum", 200,
                             nullptr};
  bench::Measurement M =
      bench::measure(MapSum, PassConfig::perceusFull());
  ASSERT_TRUE(M.Ran);
  bench::BenchReport Report("unittest", 1.0);
  Report.add("mapsum", "perceus", M);
  std::string Doc = Report.json();
  EXPECT_EQ(bench::validateBenchJson(Doc), "");

  // Any dropped key must be diagnosed, not silently accepted.
  std::string Broken = Doc;
  size_t Pos = Broken.find("\"checksum\"");
  ASSERT_NE(Pos, std::string::npos);
  Broken.replace(Pos, 10, "\"chekcsum\"");
  EXPECT_NE(bench::validateBenchJson(Broken), "");
  EXPECT_NE(bench::validateBenchJson("{}"), "");
  EXPECT_NE(bench::validateBenchJson("not json"), "");
}

TEST(StatsJson, ValidatorPinsTheTrapNameVocabulary) {
  // The schema's trap set is closed: "deadline" (the service's
  // wall-clock trap) is a member, and an unknown name is a violation —
  // a misspelled or future trap kind must fail loudly, not ride along.
  bench::BenchProgram MapSum{"mapsum", mapSumSource(), "bench_mapsum", 50,
                             nullptr};
  bench::Measurement M = bench::measure(MapSum, PassConfig::perceusFull());
  ASSERT_TRUE(M.Ran);
  bench::BenchReport Report("unittest", 1.0);
  Report.add("mapsum", "perceus", M);
  std::string Doc = Report.json();
  ASSERT_EQ(bench::validateBenchJson(Doc), "");

  size_t Pos = Doc.find("\"trap\":\"ok\"");
  ASSERT_NE(Pos, std::string::npos);
  for (const char *Known :
       {"\"trap\":\"deadline\"", "\"trap\":\"out-of-memory\"",
        "\"trap\":\"out-of-fuel\"", "\"trap\":\"stack-overflow\"",
        "\"trap\":\"runtime-error\""}) {
    std::string Known2 = Doc;
    Known2.replace(Pos, std::strlen("\"trap\":\"ok\""), Known);
    EXPECT_EQ(bench::validateBenchJson(Known2), "") << Known;
  }
  std::string Unknown = Doc;
  Unknown.replace(Pos, std::strlen("\"trap\":\"ok\""), "\"trap\":\"dedline\"");
  EXPECT_NE(bench::validateBenchJson(Unknown), "");
}

TEST(StatsJson, ServiceRowObjectIsValidated) {
  // A bench row may carry the service telemetry object; when present
  // every field is required with the right type, and the status comes
  // from the rejection vocabulary.
  bench::BenchProgram MapSum{"mapsum", mapSumSource(), "bench_mapsum", 50,
                             nullptr};
  bench::Measurement M = bench::measure(MapSum, PassConfig::perceusFull());
  ASSERT_TRUE(M.Ran);
  M.Svc.Present = true;
  M.Svc.Status = "ok";
  M.Svc.CacheHit = true;
  M.Svc.QueueMs = 0.2;
  M.Svc.RunMs = 3.5;
  M.Svc.RetainedBytes = 262144;
  bench::BenchReport Report("unittest", 1.0);
  Report.add("mapsum", "service-vm", M);
  std::string Doc = Report.json();
  EXPECT_EQ(bench::validateBenchJson(Doc), "");
  ASSERT_NE(Doc.find("\"service\""), std::string::npos);

  // Unknown admission status: rejected.
  std::string BadStatus = Doc;
  size_t Pos = BadStatus.find("\"status\":\"ok\"");
  ASSERT_NE(Pos, std::string::npos);
  BadStatus.replace(Pos, std::strlen("\"status\":\"ok\""),
                    "\"status\":\"maybe\"");
  EXPECT_NE(bench::validateBenchJson(BadStatus), "");

  // Missing field: rejected.
  std::string Missing = Doc;
  Pos = Missing.find("\"cache_hit\"");
  ASSERT_NE(Pos, std::string::npos);
  Missing.replace(Pos, std::strlen("\"cache_hit\""), "\"cache_hti\"");
  EXPECT_NE(bench::validateBenchJson(Missing), "");

  // Wrong type (bool where a number belongs): rejected.
  std::string BadType = Doc;
  Pos = BadType.find("\"retained_bytes\":262144");
  ASSERT_NE(Pos, std::string::npos);
  BadType.replace(Pos, std::strlen("\"retained_bytes\":262144"),
                  "\"retained_bytes\":true");
  EXPECT_NE(bench::validateBenchJson(BadType), "");
}

TEST(StatsJson, ServiceStatusVocabularyIsClosedAndComplete) {
  // Every rejection kind the service can emit is a valid status; the
  // vocabulary is closed, so a typo'd or invented status is an error.
  bench::BenchProgram MapSum{"mapsum", mapSumSource(), "bench_mapsum", 50,
                             nullptr};
  bench::Measurement M = bench::measure(MapSum, PassConfig::perceusFull());
  ASSERT_TRUE(M.Ran);
  M.Svc.Present = true;
  for (const char *Status :
       {"ok", "queue-full", "shedding", "compile-error", "rate-limited",
        "tenant-quota", "circuit-open", "bad-request"}) {
    M.Svc.Status = Status;
    bench::BenchReport Report("unittest", 1.0);
    Report.add("mapsum", "service-vm", M);
    EXPECT_EQ(bench::validateBenchJson(Report.json()), "") << Status;
  }
  for (const char *Status : {"cache-evicted", "rejected", "throttled"}) {
    M.Svc.Status = Status;
    bench::BenchReport Report("unittest", 1.0);
    Report.add("mapsum", "service-vm", M);
    EXPECT_NE(bench::validateBenchJson(Report.json()), "") << Status;
  }
}

TEST(StatsJson, OverloadRowObjectIsValidated) {
  bench::BenchProgram MapSum{"mapsum", mapSumSource(), "bench_mapsum", 50,
                             nullptr};
  bench::Measurement M = bench::measure(MapSum, PassConfig::perceusFull());
  ASSERT_TRUE(M.Ran);
  M.Ov.Present = true;
  M.Ov.Tenant = "polite-1";
  M.Ov.Requests = 100;
  M.Ov.Executed = 99;
  M.Ov.ShedRate = 0.01;
  M.Ov.P50Ms = 1.5;
  M.Ov.P99Ms = 4.0;
  M.Ov.MeanMs = 1.8;
  M.Ov.RetainedPeakBytes = 262144;
  bench::BenchReport Report("overload", 1.0);
  Report.add("polite-1", "abuse", M);
  std::string Doc = Report.json();
  EXPECT_EQ(bench::validateBenchJson(Doc), "");
  ASSERT_NE(Doc.find("\"overload\""), std::string::npos);

  // Every overload key is required: dropping one is a schema error.
  std::string Missing = Doc;
  size_t Pos = Missing.find("\"shed_rate\"");
  ASSERT_NE(Pos, std::string::npos);
  Missing.replace(Pos, std::strlen("\"shed_rate\""), "\"shed_rte\"");
  EXPECT_NE(bench::validateBenchJson(Missing), "");

  // Wrong type: rejected.
  std::string BadType = Doc;
  Pos = BadType.find("\"abusive\":false");
  ASSERT_NE(Pos, std::string::npos);
  BadType.replace(Pos, std::strlen("\"abusive\":false"), "\"abusive\":0");
  EXPECT_NE(bench::validateBenchJson(BadType), "");
}

TEST(StatsJson, ShardRowObjectIsValidated) {
  // bench_net rows carry one per-shard isolation object each; shape and
  // types are pinned like the other row objects.
  bench::Measurement M;
  M.Ran = true;
  M.Shard.Present = true;
  M.Shard.Shard = 2;
  M.Shard.Requests = 480;
  M.Shard.Executed = 478;
  M.Shard.CacheHits = 477;
  M.Shard.CacheCompiles = 1;
  M.Shard.CacheEvictions = 0;
  M.Shard.Sheds = 2;
  M.Shard.Qps = 120.5;
  bench::BenchReport Report("net", 1.0);
  Report.add("shard-2", "4shard", M);
  std::string Doc = Report.json();
  EXPECT_EQ(bench::validateBenchJson(Doc), "");
  ASSERT_NE(Doc.find("\"shard\""), std::string::npos);

  // Every shard key is required once the object is present.
  std::string Missing = Doc;
  size_t Pos = Missing.find("\"cache_compiles\"");
  ASSERT_NE(Pos, std::string::npos);
  Missing.replace(Pos, std::strlen("\"cache_compiles\""),
                  "\"cache_compile\"");
  EXPECT_NE(bench::validateBenchJson(Missing), "");

  // Wrong type: rejected.
  std::string BadType = Doc;
  Pos = BadType.find("\"qps\":120.5");
  ASSERT_NE(Pos, std::string::npos);
  BadType.replace(Pos, std::strlen("\"qps\":120.5"), "\"qps\":\"fast\"");
  EXPECT_NE(bench::validateBenchJson(BadType), "");
}

} // namespace
