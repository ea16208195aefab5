//===- support/JsonWriter.cpp - Minimal JSON emitter and parser -----------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/JsonWriter.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perceus {

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

void JsonWriter::beforeValue() {
  if (Stack.empty())
    return;
  Frame &F = Stack.back();
  if (F.S == Scope::Object) {
    assert(PendingKey && "object member emitted without key()");
    PendingKey = false;
    return;
  }
  if (!F.First)
    Out += ',';
  F.First = false;
}

void JsonWriter::writeEscaped(std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

JsonWriter &JsonWriter::beginObject() {
  beforeValue();
  Out += '{';
  Stack.push_back({Scope::Object, true});
  return *this;
}

JsonWriter &JsonWriter::endObject() {
  assert(!Stack.empty() && Stack.back().S == Scope::Object && !PendingKey);
  Stack.pop_back();
  Out += '}';
  return *this;
}

JsonWriter &JsonWriter::beginArray() {
  beforeValue();
  Out += '[';
  Stack.push_back({Scope::Array, true});
  return *this;
}

JsonWriter &JsonWriter::endArray() {
  assert(!Stack.empty() && Stack.back().S == Scope::Array);
  Stack.pop_back();
  Out += ']';
  return *this;
}

JsonWriter &JsonWriter::key(std::string_view K) {
  assert(!Stack.empty() && Stack.back().S == Scope::Object && !PendingKey);
  Frame &F = Stack.back();
  if (!F.First)
    Out += ',';
  F.First = false;
  writeEscaped(K);
  Out += ':';
  PendingKey = true;
  return *this;
}

JsonWriter &JsonWriter::value(std::string_view S) {
  beforeValue();
  writeEscaped(S);
  return *this;
}

JsonWriter &JsonWriter::value(bool B) {
  beforeValue();
  Out += B ? "true" : "false";
  return *this;
}

template <typename T> void JsonWriter::writeNumber(T N) {
  beforeValue();
  char Buf[32]; // enough for any int64, uint64 or shortest double
  std::to_chars_result R = std::to_chars(Buf, Buf + sizeof(Buf), N);
  assert(R.ec == std::errc() && "number buffer too small");
  Out.append(Buf, R.ptr);
}

JsonWriter &JsonWriter::value(int64_t N) {
  writeNumber(N);
  return *this;
}

JsonWriter &JsonWriter::value(uint64_t N) {
  writeNumber(N);
  return *this;
}

JsonWriter &JsonWriter::value(double D) {
  if (!std::isfinite(D))
    return null();
  // Shortest text that parses back to exactly D.
  writeNumber(D);
  return *this;
}

JsonWriter &JsonWriter::null() {
  beforeValue();
  Out += "null";
  return *this;
}

std::string JsonWriter::take() {
  assert(Stack.empty() && "take() on an unbalanced document");
  std::string S = std::move(Out);
  Out.clear();
  Stack.clear();
  PendingKey = false;
  return S;
}

//===----------------------------------------------------------------------===//
// JsonValue / parseJson
//===----------------------------------------------------------------------===//

const JsonValue *JsonValue::find(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, V] : Members)
    if (Name == Key)
      return &V;
  return nullptr;
}

namespace {

class Parser {
public:
  Parser(std::string_view Text, std::string *Err)
      : Text(Text), Pos(0), Err(Err) {}

  std::optional<JsonValue> parseDocument() {
    std::optional<JsonValue> V = parseValue();
    if (!V)
      return std::nullopt;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after JSON value");
    return V;
  }

private:
  std::string_view Text;
  size_t Pos;
  std::string *Err;

  std::nullopt_t fail(const char *Msg) {
    if (Err && Err->empty()) {
      *Err = Msg;
      *Err += " at offset " + std::to_string(Pos);
    }
    return std::nullopt;
  }

  void skipWs() {
    while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t' ||
                                 Text[Pos] == '\n' || Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view Lit) {
    if (Text.substr(Pos, Lit.size()) != Lit)
      return false;
    Pos += Lit.size();
    return true;
  }

  std::optional<JsonValue> parseValue() {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    switch (C) {
    case '{':
      return parseObject();
    case '[':
      return parseArray();
    case '"':
      return parseString();
    case 't':
      if (literal("true")) {
        JsonValue V;
        V.K = JsonValue::Kind::Bool;
        V.B = true;
        return V;
      }
      return fail("bad literal");
    case 'f':
      if (literal("false")) {
        JsonValue V;
        V.K = JsonValue::Kind::Bool;
        V.B = false;
        return V;
      }
      return fail("bad literal");
    case 'n':
      if (literal("null"))
        return JsonValue{};
      return fail("bad literal");
    default:
      if (C == '-' || (C >= '0' && C <= '9'))
        return parseNumber();
      return fail("unexpected character");
    }
  }

  std::optional<JsonValue> parseObject() {
    ++Pos; // '{'
    JsonValue V;
    V.K = JsonValue::Kind::Object;
    skipWs();
    if (consume('}'))
      return V;
    for (;;) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      std::optional<JsonValue> Key = parseString();
      if (!Key)
        return std::nullopt;
      skipWs();
      if (!consume(':'))
        return fail("expected ':' after key");
      std::optional<JsonValue> Member = parseValue();
      if (!Member)
        return std::nullopt;
      V.Members.emplace_back(std::move(Key->Str), std::move(*Member));
      skipWs();
      if (consume(','))
        continue;
      if (consume('}'))
        return V;
      return fail("expected ',' or '}' in object");
    }
  }

  std::optional<JsonValue> parseArray() {
    ++Pos; // '['
    JsonValue V;
    V.K = JsonValue::Kind::Array;
    skipWs();
    if (consume(']'))
      return V;
    for (;;) {
      std::optional<JsonValue> Item = parseValue();
      if (!Item)
        return std::nullopt;
      V.Items.push_back(std::move(*Item));
      skipWs();
      if (consume(','))
        continue;
      if (consume(']'))
        return V;
      return fail("expected ',' or ']' in array");
    }
  }

  std::optional<JsonValue> parseString() {
    ++Pos; // '"'
    JsonValue V;
    V.K = JsonValue::Kind::String;
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return V;
      if (C == '\\') {
        if (Pos >= Text.size())
          return fail("unterminated escape");
        char E = Text[Pos++];
        switch (E) {
        case '"':
          V.Str += '"';
          break;
        case '\\':
          V.Str += '\\';
          break;
        case '/':
          V.Str += '/';
          break;
        case 'n':
          V.Str += '\n';
          break;
        case 'r':
          V.Str += '\r';
          break;
        case 't':
          V.Str += '\t';
          break;
        case 'b':
          V.Str += '\b';
          break;
        case 'f':
          V.Str += '\f';
          break;
        case 'u': {
          if (Pos + 4 > Text.size())
            return fail("truncated \\u escape");
          unsigned Code = 0;
          for (int I = 0; I < 4; ++I) {
            char H = Text[Pos++];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code |= H - '0';
            else if (H >= 'a' && H <= 'f')
              Code |= H - 'a' + 10;
            else if (H >= 'A' && H <= 'F')
              Code |= H - 'A' + 10;
            else
              return fail("bad \\u escape");
          }
          // The writer only emits \u00xx for control bytes; decode BMP
          // code points as UTF-8 and reject surrogates.
          if (Code >= 0xD800 && Code <= 0xDFFF)
            return fail("surrogate \\u escape unsupported");
          if (Code < 0x80) {
            V.Str += static_cast<char>(Code);
          } else if (Code < 0x800) {
            V.Str += static_cast<char>(0xC0 | (Code >> 6));
            V.Str += static_cast<char>(0x80 | (Code & 0x3F));
          } else {
            V.Str += static_cast<char>(0xE0 | (Code >> 12));
            V.Str += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
            V.Str += static_cast<char>(0x80 | (Code & 0x3F));
          }
          break;
        }
        default:
          return fail("unknown escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("raw control character in string");
      V.Str += C;
    }
    return fail("unterminated string");
  }

  std::optional<JsonValue> parseNumber() {
    size_t Start = Pos;
    if (consume('-')) {
    }
    if (!consume('0')) {
      if (Pos >= Text.size() || Text[Pos] < '1' || Text[Pos] > '9')
        return fail("bad number");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (consume('.')) {
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("bad fraction");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("bad exponent");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    JsonValue V;
    V.K = JsonValue::Kind::Number;
    V.Num = std::strtod(std::string(Text.substr(Start, Pos - Start)).c_str(),
                        nullptr);
    return V;
  }
};

} // namespace

std::optional<JsonValue> parseJson(std::string_view Text, std::string *Err) {
  return Parser(Text, Err).parseDocument();
}

} // namespace perceus
