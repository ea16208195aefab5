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
/// The inverse direction, parseServiceRequestJson(), accepts one request
/// as a flat JSON object and validates it *structurally*: unknown keys,
/// wrong value types, truncated documents and oversized lines are all
/// rejected with a diagnostic, never ignored and never fatal — a
/// malformed line becomes a "bad-request" response, not an abort.
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
/// Returns true on success; on failure returns false and fills \p Error
/// with a one-line diagnostic (unknown key, wrong type, truncated input,
/// oversized line, trailing garbage). Never throws, never aborts.
bool parseServiceRequestJson(std::string_view Text, ServiceRequest &R,
                             std::string &Error);

} // namespace perceus

#endif // PERCEUS_SERVICE_SERVICEJSON_H
