//===- service/ServiceJson.h - JSON emission for service results -*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The perceus-wire-v1 request/response schema: one JSON document per
/// request on the way in, one per response on the way out, shared by
/// stdin `--serve` and the socket front end (`--listen`) — both are
/// transports over the same dispatcher and the same documents. A
/// response document carries the same heap/run objects `perc
/// --stats-json` writes, plus a "service" object with the request's
/// admission and latency telemetry (status, tenant, shard, retry hint,
/// cache hit, worker, queue/run milliseconds, retained bytes). The
/// validation tests pin the key set and the closed status vocabulary.
///
/// The inverse direction, parseServiceRequestJson(), accepts one request:
/// an RFC 8259 JSON object, read by the repository's one JSON parser
/// (parseJson, support/JsonWriter.h). Strings are UTF-8: a string must be
/// well-formed UTF-8, every \u escape decodes to UTF-8 (surrogate pairs
/// included), and a lone surrogate is an error. Nesting is bounded by
/// MaxJsonDepth, so no line can exhaust the stack. The request is then
/// validated *structurally*: unknown keys, wrong value types, malformed
/// or truncated JSON and oversized lines are all rejected with a
/// diagnostic, never ignored and never fatal — a malformed line becomes
/// a "bad-request" response, not an abort.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_SERVICE_SERVICEJSON_H
#define PERCEUS_SERVICE_SERVICEJSON_H

#include <string>
#include <string_view>

namespace perceus {

class JsonWriter;
struct ServiceRequest;
struct ServiceResponse;

/// The wire schema this server speaks. Response documents carry it as
/// their "schema" member; a request may carry it too (then it must
/// match, or the request is a structured bad-request).
inline constexpr const char *kWireSchemaName = "perceus-wire-v1";

/// {"id":..,"seq":..,"shard":..,"tenant":"..",
///  "status":"ok"|"queue-full"|...,"executed":..,"cache_hit":..,
///  "worker":..,"queue_ms":..,"run_ms":..,"retry_after_ms":..,
///  "retained_bytes":..,"heap_empty":..,"rc_calls":..,"error":".."}
void writeServiceObjectJson(JsonWriter &W, const ServiceResponse &R);

/// One complete perceus-wire-v1 document for a response: schema marker,
/// the service object, and the heap/run objects (zeroed for requests
/// that were rejected before execution, so every line has one shape).
std::string wireResponseJson(const ServiceResponse &R);

/// Hard ceiling on one JSON request line; longer inputs are rejected
/// structurally (a client bug must not balloon server memory).
inline constexpr size_t MaxRequestJsonBytes = 64 * 1024;

/// Parses one JSON request object into \p R (on top of whatever defaults
/// \p R already carries). Accepted keys:
///
///   "entry": string (required)   "args": array of integers
///   "tenant": string             "engine": "vm" (optional; the VM
///                                  is the only engine, so anything
///                                  else is a bad-request)
///   "config": pass-config name   "fuel", "deadline_ms", "max_depth",
///   "schema": must be            "fail_alloc", "max_heap", "max_cells",
///     "perceus-wire-v1"          "alloc_budget": non-negative integers
///
/// Members apply in order; integers are exact int64 values (no fraction,
/// no exponent), and counts must be non-negative. Returns true on
/// success; on failure returns false and fills \p Error with a one-line
/// diagnostic (malformed JSON, unknown key, wrong type, out-of-range
/// integer, oversized line). Never throws, never aborts.
bool parseServiceRequestJson(std::string_view Text, ServiceRequest &R,
                             std::string &Error);

} // namespace perceus

#endif // PERCEUS_SERVICE_SERVICEJSON_H
