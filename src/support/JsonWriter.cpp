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

namespace {

/// The length of the well-formed UTF-8 sequence that opens \p S, whose
/// first byte is 0x80 or above; or 0, with \p Bad set to the length of
/// the maximal subpart of an ill-formed sequence there (Unicode §3.9,
/// Table 3-7).
size_t utf8Length(std::string_view S, size_t &Bad) {
  const auto C = static_cast<unsigned char>(S[0]);
  size_t N = 0;
  unsigned char Lo = 0x80, Hi = 0xbf; // the second byte's range
  if (C >= 0xc2 && C <= 0xdf) {
    N = 2;
  } else if (C >= 0xe0 && C <= 0xef) {
    N = 3;
    Lo = C == 0xe0 ? 0xa0 : 0x80;
    Hi = C == 0xed ? 0x9f : 0xbf;
  } else if (C >= 0xf0 && C <= 0xf4) {
    N = 4;
    Lo = C == 0xf0 ? 0x90 : 0x80;
    Hi = C == 0xf4 ? 0x8f : 0xbf;
  }
  if (N == 0) {
    Bad = 1; // a continuation byte, or a lead no sequence may open with
    return 0;
  }
  size_t K = 1;
  for (; K != N && K != S.size(); ++K, Lo = 0x80, Hi = 0xbf) {
    const auto T = static_cast<unsigned char>(S[K]);
    if (T < Lo || T > Hi)
      break;
  }
  if (K == N)
    return N;
  Bad = K;
  return 0;
}

} // namespace

void JsonWriter::writeEscaped(std::string_view S) {
  Out += '"';
  for (size_t I = 0; I != S.size(); ++I) {
    const char C = S[I];
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
      } else if (static_cast<unsigned char>(C) < 0x80) {
        Out += C;
      } else {
        // Well-formed UTF-8 is copied; each maximal ill-formed subpart
        // becomes one U+FFFD, so the document stays valid UTF-8 whatever
        // bytes a program's source held.
        size_t Bad = 0;
        const size_t Len = utf8Length(S.substr(I), Bad);
        if (Len) {
          Out.append(S.substr(I, Len));
          I += Len - 1;
        } else {
          Out += "\\ufffd";
          I += Bad - 1;
        }
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
    JsonValue V;
    if (!parseValue(V, 0))
      return std::nullopt;
    skipWs();
    if (Pos != Text.size()) {
      fail("trailing characters after JSON value");
      return std::nullopt;
    }
    return V;
  }

private:
  std::string_view Text;
  size_t Pos;
  std::string *Err;

  bool fail(std::string_view Msg) {
    if (Err && Err->empty()) {
      *Err = Msg;
      *Err += " at offset " + std::to_string(Pos);
    }
    return false;
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

  /// Reads the four hex digits of a \u escape into \p Code.
  bool hex4(unsigned &Code) {
    if (Pos + 4 > Text.size())
      return false;
    Code = 0;
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
        return false;
    }
    return true;
  }

  /// The length of the well-formed UTF-8 sequence at \p P (RFC 3629:
  /// shortest form, no surrogate, nothing past U+10FFFF), or 0.
  size_t utf8Length(size_t P) const {
    auto byteAt = [&](size_t I) -> unsigned {
      return P + I < Text.size() ? static_cast<unsigned char>(Text[P + I])
                                 : 0;
    };
    const unsigned Lead = byteAt(0);
    const size_t Len = Lead < 0xC2   ? 0
                       : Lead < 0xE0 ? 2
                       : Lead < 0xF0 ? 3
                       : Lead < 0xF5 ? 4
                                     : 0;
    // The second byte's range rules out overlong forms (after E0 and
    // F0), surrogates (after ED) and code points past U+10FFFF (after F4).
    const unsigned Lo = Lead == 0xE0 ? 0xA0 : Lead == 0xF0 ? 0x90 : 0x80;
    const unsigned Hi = Lead == 0xED ? 0x9F : Lead == 0xF4 ? 0x8F : 0xBF;
    if (Len == 0 || byteAt(1) < Lo || byteAt(1) > Hi)
      return 0;
    for (size_t I = 2; I != Len; ++I)
      if ((byteAt(I) & 0xC0) != 0x80)
        return 0;
    return Len;
  }

  /// Appends the UTF-8 form of the code point \p Code (at most U+10FFFF).
  static void appendUtf8(std::string &Out, unsigned Code) {
    if (Code < 0x80) {
      Out += static_cast<char>(Code);
    } else if (Code < 0x800) {
      Out += static_cast<char>(0xC0 | (Code >> 6));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else if (Code < 0x10000) {
      Out += static_cast<char>(0xE0 | (Code >> 12));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Code >> 18));
      Out += static_cast<char>(0x80 | ((Code >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    }
  }

  /// Parses the value at Pos, inside \p Depth enclosing arrays and
  /// objects, into \p V: each node is built where its parent holds it.
  bool parseValue(JsonValue &V, unsigned Depth) {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if ((C == '{' || C == '[') && Depth == MaxJsonDepth)
      return fail("nesting deeper than " + std::to_string(MaxJsonDepth) +
                  " arrays and objects");
    switch (C) {
    case '{':
      return parseObject(V, Depth + 1);
    case '[':
      return parseArray(V, Depth + 1);
    case '"':
      V.K = JsonValue::Kind::String;
      return parseString(V.Str);
    case 't':
    case 'f':
      V.K = JsonValue::Kind::Bool;
      V.B = C == 't';
      return literal(V.B ? "true" : "false") || fail("bad literal");
    case 'n':
      return literal("null") || fail("bad literal");
    default:
      if (C == '-' || (C >= '0' && C <= '9'))
        return parseNumber(V);
      return fail("unexpected character");
    }
  }

  bool parseObject(JsonValue &V, unsigned Depth) {
    ++Pos; // '{'
    V.K = JsonValue::Kind::Object;
    skipWs();
    if (consume('}'))
      return true;
    for (;;) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      auto &[Key, Member] = V.Members.emplace_back();
      if (!parseString(Key))
        return false;
      skipWs();
      if (!consume(':'))
        return fail("expected ':' after key");
      if (!parseValue(Member, Depth))
        return false;
      skipWs();
      if (consume(','))
        continue;
      if (consume('}'))
        return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(JsonValue &V, unsigned Depth) {
    ++Pos; // '['
    V.K = JsonValue::Kind::Array;
    skipWs();
    if (consume(']'))
      return true;
    for (;;) {
      if (!parseValue(V.Items.emplace_back(), Depth))
        return false;
      skipWs();
      if (consume(','))
        continue;
      if (consume(']'))
        return true;
      return fail("expected ',' or ']' in array");
    }
  }

  /// Parses the string at Pos (its opening quote) into \p Out.
  bool parseString(std::string &Out) {
    ++Pos; // '"'
    while (Pos < Text.size()) {
      // Copy each run of plain characters at once: ASCII, and whole
      // well-formed UTF-8 sequences.
      size_t End = Pos;
      while (End < Text.size() && Text[End] != '"' && Text[End] != '\\' &&
             static_cast<unsigned char>(Text[End]) >= 0x20) {
        if (static_cast<unsigned char>(Text[End]) < 0x80) {
          ++End;
        } else if (size_t Len = utf8Length(End)) {
          End += Len;
        } else {
          Pos = End;
          return fail("ill-formed UTF-8 in string");
        }
      }
      Out.append(Text.data() + Pos, End - Pos);
      Pos = End;
      if (Pos == Text.size())
        break;
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\')
        return fail("raw control character in string");
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        unsigned Code = 0;
        if (!hex4(Code))
          return fail("bad \\u escape");
        // A high surrogate must be followed by an escaped low one; the
        // pair names one code point past the BMP. A lone surrogate names
        // no character at all.
        if (Code >= 0xD800 && Code <= 0xDBFF) {
          unsigned Low = 0;
          if (!literal("\\u") || !hex4(Low) || Low < 0xDC00 || Low > 0xDFFF)
            return fail("unpaired surrogate \\u escape");
          Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
        } else if (Code >= 0xDC00 && Code <= 0xDFFF) {
          return fail("unpaired surrogate \\u escape");
        }
        appendUtf8(Out, Code);
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(JsonValue &V) {
    size_t Start = Pos;
    consume('-');
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
    V.K = JsonValue::Kind::Number;
    V.Str = Text.substr(Start, Pos - Start);
    V.Num = std::strtod(V.Str.c_str(), nullptr);
    return true;
  }
};

} // namespace

std::optional<JsonValue> parseJson(std::string_view Text, std::string *Err) {
  return Parser(Text, Err).parseDocument();
}

} // namespace perceus
