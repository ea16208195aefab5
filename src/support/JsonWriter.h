//===- support/JsonWriter.h - Minimal JSON emitter and parser ---*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dependency-free JSON layer for the telemetry subsystem:
///
///   * JsonWriter — a streaming emitter with automatic comma/nesting
///     management. Every machine-readable artifact this repository
///     produces (`BENCH_<name>.json` from the bench harnesses,
///     `perc --stats-json`) goes through it, so the output is well-formed
///     by construction.
///   * JsonValue / parseJson — a small recursive-descent parser for RFC
///     8259 JSON. It reads every wire request (service/ServiceJson.h) and
///     lets the schema-validation tests, perfbench and bench_net read back
///     what the writer emitted. It is strict (no extensions) and bounded:
///     nesting past MaxJsonDepth is an error, not a deeper recursion, so
///     no input can exhaust the stack.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_SUPPORT_JSONWRITER_H
#define PERCEUS_SUPPORT_JSONWRITER_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perceus {

/// Streaming JSON emitter; see the file comment.
///
/// Usage:
///   JsonWriter W;
///   W.beginObject().key("schema").value("perceus-bench-v1")
///    .key("rows").beginArray() ... .endArray().endObject();
///   std::string Text = W.take();
///
/// Misuse (a key outside an object, unbalanced end calls) is caught by
/// assertions in debug builds and yields well-formed-but-wrong JSON in
/// release builds — the schema tests catch the latter.
class JsonWriter {
public:
  JsonWriter &beginObject();
  JsonWriter &endObject();
  JsonWriter &beginArray();
  JsonWriter &endArray();

  /// Emits the key of the next object member.
  JsonWriter &key(std::string_view K);

  JsonWriter &value(std::string_view S);
  JsonWriter &value(const char *S) { return value(std::string_view(S)); }
  JsonWriter &value(bool B);
  JsonWriter &value(int64_t N);
  JsonWriter &value(uint64_t N);
  JsonWriter &value(int N) { return value(static_cast<int64_t>(N)); }
  JsonWriter &value(unsigned N) { return value(static_cast<uint64_t>(N)); }
  /// Non-finite doubles are emitted as null (JSON has no NaN/Inf).
  JsonWriter &value(double D);
  JsonWriter &null();

  /// Shorthand for key(K).value(V).
  template <typename T> JsonWriter &member(std::string_view K, T V) {
    key(K);
    return value(V);
  }

  /// The document so far. take() moves it out and resets the writer.
  const std::string &str() const { return Out; }
  std::string take();

  /// True when every begun object/array has been ended.
  bool balanced() const { return Stack.empty(); }

private:
  void beforeValue();
  void writeEscaped(std::string_view S);
  template <typename T> void writeNumber(T N);

  enum class Scope : uint8_t { Object, Array };
  struct Frame {
    Scope S;
    bool First = true;
  };
  std::string Out;
  std::vector<Frame> Stack;
  bool PendingKey = false;
};

/// A parsed JSON document node (see parseJson).
struct JsonValue {
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  /// A string's text, well-formed UTF-8 (every \u escape decoded); a
  /// number's spelling as written, for readers that need it exactly
  /// (int64 values past 2^53 do not survive Num).
  std::string Str;
  std::vector<JsonValue> Items;                          ///< arrays
  std::vector<std::pair<std::string, JsonValue>> Members; ///< objects

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Object member lookup; null when absent or not an object.
  const JsonValue *find(std::string_view Key) const;

  /// find() that also requires the member to be of kind \p Want.
  const JsonValue *find(std::string_view Key, Kind Want) const {
    const JsonValue *V = find(Key);
    return V && V->K == Want ? V : nullptr;
  }
};

/// The deepest nesting of arrays and objects parseJson accepts. Every
/// document this repository reads nests at most 5 deep (a BENCH report).
inline constexpr unsigned MaxJsonDepth = 64;

/// Parses a complete JSON document (trailing garbage is an error).
/// Returns nullopt and fills \p Err (when non-null) on malformed input:
/// anything RFC 8259 rejects, ill-formed UTF-8 in a string, a lone
/// surrogate escape, or nesting deeper than MaxJsonDepth.
std::optional<JsonValue> parseJson(std::string_view Text,
                                   std::string *Err = nullptr);

} // namespace perceus

#endif // PERCEUS_SUPPORT_JSONWRITER_H
