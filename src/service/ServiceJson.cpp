//===- service/ServiceJson.cpp - JSON emission for service results --------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ServiceJson.h"

#include "eval/StatsJson.h"
#include "service/Service.h"
#include "support/JsonWriter.h"
#include "support/ParseInteger.h"

namespace perceus {

void writeServiceObjectJson(JsonWriter &W, const ServiceResponse &R) {
  // rc_calls: every executed RC call lands in exactly one of these
  // classification counters (the stats invariant), so their sum is the
  // call count a CountingSink would have seen, with no sink installed.
  const HeapStats &H = R.Heap;
  W.beginObject()
      .member("id", R.Id)
      .member("seq", R.Seq)
      .member("shard", uint64_t(R.Shard))
      .member("tenant", std::string_view(R.Tenant))
      .member("status", rejectKindName(R.Reject))
      .member("executed", R.Executed)
      .member("cache_hit", R.CacheHit)
      .member("worker", uint64_t(R.Worker))
      .member("queue_ms", R.QueueSeconds * 1e3)
      .member("run_ms", R.RunSeconds * 1e3)
      .member("retry_after_ms", R.RetryAfterMs)
      .member("retained_bytes", R.RetainedBytes)
      .member("heap_empty", R.HeapEmpty)
      .member("rc_calls", H.DupOps + H.DropOps + H.DecRefOps +
                              H.IsUniqueTests + H.NonHeapRcOps)
      .member("error", std::string_view(R.Error))
      .endObject();
}

std::string wireResponseJson(const ServiceResponse &R) {
  JsonWriter W;
  W.beginObject().member("schema", kWireSchemaName);
  W.key("service");
  writeServiceObjectJson(W, R);
  W.key("heap");
  writeHeapStatsJson(W, R.Heap);
  W.key("run");
  writeRunResultJson(W, R.Run);
  W.endObject();
  return W.take();
}

//===--- Request parsing --------------------------------------------------===//
//
// parseJson reads the line; the walk below applies the object's members
// to the request, in order. Every diagnostic names the member's key.

namespace {

const char *kindName(JsonValue::Kind K) {
  // In JsonValue::Kind order.
  static const char *const Names[] = {"null",   "bool",  "number",
                                      "string", "array", "object"};
  return Names[static_cast<size_t>(K)];
}

/// "key "K" expects WANT, got KIND" for a value \p V of the wrong kind.
std::string wrongKind(const std::string &Key, const char *Want,
                      const JsonValue &V) {
  return "key \"" + Key + "\" expects " + Want + ", got " + kindName(V.K);
}

/// Reads \p V, a value of the member \p Key, as an int64: a number with
/// no fraction or exponent. parseJson keeps the number's spelling, so
/// every int64 reads exactly. \p Want names what \p Key expects.
std::string readInt(const JsonValue &V, const std::string &Key,
                    const char *Want, int64_t &Out) {
  if (!V.isNumber())
    return wrongKind(Key, Want, V);
  const std::errc Ec = parseInteger(V.Str, Out);
  if (Ec == std::errc::result_out_of_range)
    return "key \"" + Key + "\" integer " + V.Str + " is out of range";
  if (Ec != std::errc()) // a JSON number, but no integer spelling
    return "key \"" + Key + "\" expects an integer, got a fraction/exponent";
  return "";
}

/// Reads \p V as a count: a non-negative integer.
template <typename T>
std::string readCount(const JsonValue &V, const std::string &Key, T &Out) {
  int64_t N = 0;
  if (std::string Err = readInt(V, Key, "a number", N); !Err.empty())
    return Err;
  if (N < 0)
    return "key \"" + Key + "\" expects a non-negative integer";
  Out = static_cast<T>(N);
  return "";
}

/// Applies the member \p Key : \p V to \p R. Returns a diagnostic, or
/// an empty string when the member is valid.
std::string applyMember(const std::string &Key, const JsonValue &V,
                        ServiceRequest &R) {
  if (Key == "args") {
    if (!V.isArray())
      return wrongKind(Key, "an array", V);
    R.Args.clear();
    for (const JsonValue &Item : V.Items) {
      int64_t N = 0;
      if (std::string Err = readInt(Item, Key, "integers only", N);
          !Err.empty())
        return Err;
      if (!fitsInt(N))
        return "key \"" + Key + "\" integer " + Item.Str +
               " is outside the integer range " + IntRangeText;
      R.Args.push_back(Value::makeInt(N));
    }
    return "";
  }
  if (Key == "fuel")
    return readCount(V, Key, R.Limits.Fuel);
  if (Key == "deadline_ms")
    return readCount(V, Key, R.Limits.DeadlineMs);
  if (Key == "max_depth")
    return readCount(V, Key, R.Limits.MaxCallDepth);
  if (Key == "fail_alloc")
    return readCount(V, Key, R.FailAlloc);
  if (Key == "max_heap")
    return readCount(V, Key, R.Limits.Heap.MaxLiveBytes);
  if (Key == "max_cells")
    return readCount(V, Key, R.Limits.Heap.MaxLiveCells);
  if (Key == "alloc_budget")
    return readCount(V, Key, R.Limits.Heap.AllocBudget);
  if (Key != "entry" && Key != "schema" && Key != "tenant" &&
      Key != "engine" && Key != "config")
    return "unknown key \"" + Key + "\"";
  if (!V.isString())
    return wrongKind(Key, "a string", V);
  if (Key == "entry") {
    R.Entry = V.Str;
  } else if (Key == "tenant") {
    R.Tenant = V.Str;
  } else if (Key == "schema") {
    // Version negotiation: an explicit schema marker must name the one
    // wire version this server speaks; absence means "current".
    if (V.Str != kWireSchemaName)
      return "unsupported schema \"" + V.Str + "\" (this server speaks " +
             kWireSchemaName + ")";
  } else if (Key == "engine") {
    if (!parseEngineKind(V.Str, R.Engine))
      return "unknown engine \"" + V.Str + "\"";
  } else if (!parsePassConfig(V.Str, R.Config)) {
    return "unknown config \"" + V.Str + "\"";
  }
  return "";
}

} // namespace

bool parseServiceRequestJson(std::string_view Text, ServiceRequest &R,
                             std::string &Error) {
  Error.clear();
  if (Text.size() > MaxRequestJsonBytes) {
    Error = "request line exceeds " + std::to_string(MaxRequestJsonBytes) +
            " bytes (" + std::to_string(Text.size()) + ")";
    return false;
  }
  std::optional<JsonValue> Doc = parseJson(Text, &Error);
  if (!Doc)
    return false;
  if (!Doc->isObject()) {
    Error = std::string("request is a JSON ") + kindName(Doc->K) +
            ", not an object";
    return false;
  }
  for (const auto &[Key, V] : Doc->Members) {
    Error = applyMember(Key, V, R);
    if (!Error.empty())
      return false;
  }
  if (!Doc->find("entry")) {
    Error = "request object has no \"entry\" key";
    return false;
  }
  return true;
}

} // namespace perceus
