//===- service/ServiceJson.cpp - JSON emission for service results --------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ServiceJson.h"

#include "eval/StatsJson.h"
#include "service/Service.h"
#include "support/JsonWriter.h"

#include <cctype>
#include <cstdlib>

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
// A tiny recursive-descent reader for exactly the shape a request line
// may take: one flat object of string / integer / integer-array members.
// Anything else — unknown keys included — is a structured parse error.
// No exceptions, no recursion on untrusted depth, no allocation beyond
// the strings extracted.

namespace {

class RequestReader {
public:
  RequestReader(std::string_view Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg + " at byte " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() && std::isspace((unsigned char)Text[Pos]))
      ++Pos;
  }

  bool atEnd() {
    skipWs();
    return Pos >= Text.size();
  }

  bool expect(char C) {
    skipWs();
    if (Pos >= Text.size())
      return fail(std::string("unexpected end of input, expected '") + C +
                  "'");
    if (Text[Pos] != C)
      return fail(std::string("expected '") + C + "', got '" + Text[Pos] +
                  "'");
    ++Pos;
    return true;
  }

  bool peek(char C) {
    skipWs();
    return Pos < Text.size() && Text[Pos] == C;
  }

  /// JSON string with the escapes the writer emits. Fills \p Out.
  bool parseString(std::string &Out) {
    if (!expect('"'))
      return false;
    Out.clear();
    while (true) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C == '\\') {
        if (Pos >= Text.size())
          return fail("unterminated escape");
        char E = Text[Pos++];
        switch (E) {
        case '"': Out += '"'; break;
        case '\\': Out += '\\'; break;
        case '/': Out += '/'; break;
        case 'n': Out += '\n'; break;
        case 't': Out += '\t'; break;
        case 'r': Out += '\r'; break;
        case 'b': Out += '\b'; break;
        case 'f': Out += '\f'; break;
        case 'u': {
          if (Pos + 4 > Text.size())
            return fail("truncated \\u escape");
          // Requests are ASCII-oriented; accept and keep only the low
          // byte of BMP escapes rather than full UTF-8 re-encoding.
          unsigned V = 0;
          for (int I = 0; I != 4; ++I) {
            char H = Text[Pos++];
            V <<= 4;
            if (H >= '0' && H <= '9') V += H - '0';
            else if (H >= 'a' && H <= 'f') V += 10 + H - 'a';
            else if (H >= 'A' && H <= 'F') V += 10 + H - 'A';
            else return fail("bad \\u escape");
          }
          Out += static_cast<char>(V & 0xff);
          break;
        }
        default:
          return fail("unknown escape");
        }
        continue;
      }
      Out += C;
    }
  }

  /// Signed JSON integer (no fractions/exponents — requests carry counts
  /// and machine ints only).
  bool parseInt(int64_t &Out) {
    skipWs();
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    size_t Digits = Pos;
    while (Pos < Text.size() && std::isdigit((unsigned char)Text[Pos]))
      ++Pos;
    if (Pos == Digits) {
      Pos = Start;
      return fail("expected an integer");
    }
    if (Pos < Text.size() &&
        (Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E')) {
      Pos = Start;
      return fail("expected an integer, got a fraction/exponent");
    }
    Out = std::strtoll(std::string(Text.substr(Start, Pos - Start)).c_str(),
                       nullptr, 10);
    return true;
  }

  /// Skips one value of any JSON type (for diagnostics on wrong-typed
  /// members we still want to report *unknown key* vs *wrong type*
  /// accurately). Bounded: arrays/objects nest at most MaxDepth deep.
  bool classifyValue(const char *&Kind) {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input, expected a value");
    char C = Text[Pos];
    if (C == '"') Kind = "string";
    else if (C == '[') Kind = "array";
    else if (C == '{') Kind = "object";
    else if (C == 't' || C == 'f') Kind = "bool";
    else if (C == 'n') Kind = "null";
    else Kind = "number";
    return true;
  }

  size_t Pos = 0;
  std::string_view Text;
  std::string &Error;
};

} // namespace

bool parseServiceRequestJson(std::string_view Text, ServiceRequest &R,
                             std::string &Error) {
  Error.clear();
  if (Text.size() > MaxRequestJsonBytes) {
    Error = "request line exceeds " + std::to_string(MaxRequestJsonBytes) +
            " bytes (" + std::to_string(Text.size()) + ")";
    return false;
  }
  RequestReader P(Text, Error);
  if (!P.expect('{'))
    return false;
  bool HaveEntry = false;
  bool First = true;
  while (!P.peek('}')) {
    if (!First && !P.expect(','))
      return false;
    First = false;
    std::string Key;
    if (!P.parseString(Key))
      return false;
    if (!P.expect(':'))
      return false;

    auto wantString = [&](std::string &Out) {
      const char *Kind = nullptr;
      if (!P.classifyValue(Kind))
        return false;
      if (std::string_view(Kind) != "string")
        return P.fail("key \"" + Key + "\" expects a string, got " + Kind);
      return P.parseString(Out);
    };
    auto wantCount = [&](uint64_t &Out) {
      const char *Kind = nullptr;
      if (!P.classifyValue(Kind))
        return false;
      if (std::string_view(Kind) != "number")
        return P.fail("key \"" + Key + "\" expects a number, got " + Kind);
      int64_t V = 0;
      if (!P.parseInt(V))
        return false;
      if (V < 0)
        return P.fail("key \"" + Key + "\" expects a non-negative integer");
      Out = static_cast<uint64_t>(V);
      return true;
    };

    if (Key == "entry") {
      if (!wantString(R.Entry))
        return false;
      HaveEntry = true;
    } else if (Key == "schema") {
      // Version negotiation: an explicit schema marker must name the one
      // wire version this server speaks; absence means "current".
      std::string Name;
      if (!wantString(Name))
        return false;
      if (Name != kWireSchemaName)
        return P.fail("unsupported schema \"" + Name + "\" (this server speaks " +
                      kWireSchemaName + ")");
    } else if (Key == "tenant") {
      if (!wantString(R.Tenant))
        return false;
    } else if (Key == "engine") {
      std::string Name;
      if (!wantString(Name))
        return false;
      if (!parseEngineKind(Name, R.Engine))
        return P.fail("unknown engine \"" + Name + "\"");
    } else if (Key == "config") {
      std::string Name;
      if (!wantString(Name))
        return false;
      if (!parsePassConfig(Name, R.Config))
        return P.fail("unknown config \"" + Name + "\"");
    } else if (Key == "args") {
      const char *Kind = nullptr;
      if (!P.classifyValue(Kind))
        return false;
      if (std::string_view(Kind) != "array")
        return P.fail("key \"args\" expects an array, got " +
                      std::string(Kind));
      if (!P.expect('['))
        return false;
      R.Args.clear();
      bool FirstArg = true;
      while (!P.peek(']')) {
        if (!FirstArg && !P.expect(','))
          return false;
        FirstArg = false;
        const char *ElemKind = nullptr;
        if (!P.classifyValue(ElemKind))
          return false;
        if (std::string_view(ElemKind) != "number")
          return P.fail("key \"args\" expects integers only, got " +
                        std::string(ElemKind));
        int64_t V = 0;
        if (!P.parseInt(V))
          return P.fail("key \"args\" expects integers only");
        R.Args.push_back(Value::makeInt(V));
      }
      if (!P.expect(']'))
        return false;
    } else if (Key == "fuel") {
      if (!wantCount(R.Limits.Fuel))
        return false;
    } else if (Key == "deadline_ms") {
      if (!wantCount(R.Limits.DeadlineMs))
        return false;
    } else if (Key == "max_depth") {
      if (!wantCount(R.Limits.MaxCallDepth))
        return false;
    } else if (Key == "fail_alloc") {
      if (!wantCount(R.FailAlloc))
        return false;
    } else if (Key == "max_heap") {
      uint64_t V = 0;
      if (!wantCount(V))
        return false;
      R.Limits.Heap.MaxLiveBytes = static_cast<size_t>(V);
    } else if (Key == "max_cells") {
      uint64_t V = 0;
      if (!wantCount(V))
        return false;
      R.Limits.Heap.MaxLiveCells = static_cast<size_t>(V);
    } else if (Key == "alloc_budget") {
      uint64_t V = 0;
      if (!wantCount(V))
        return false;
      R.Limits.Heap.AllocBudget = static_cast<size_t>(V);
    } else {
      return P.fail("unknown key \"" + Key + "\"");
    }
  }
  if (!P.expect('}'))
    return false;
  if (!P.atEnd())
    return P.fail("trailing garbage after request object");
  if (!HaveEntry) {
    Error = "request object has no \"entry\" key";
    return false;
  }
  return true;
}

} // namespace perceus
