//===- examples/perc.cpp - The command-line driver ------------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `perc`: compile and run a surface-language program from a file.
///
///   perc FILE.perc [options] [ARGS...]
///
///   --config=NAME     perceus (default) | perceus-noopt |
///                     perceus-borrow | scoped-rc | gc
///   --no-peephole     run the VM on the raw compiler output, which the
///                     compiled program keeps beside its
///                     superinstruction/RC-elision rewrite (the tier
///                     run by default)
///   --entry=NAME      entry function (default: main)
///   --stats           print heap/machine statistics after the run
///   --stats-json=FILE run, then dump heap stats, run stats, and the
///                     per-site RC event table as JSON to FILE
///   --pass-stats      print static dup/drop/reuse instruction counts
///                     after each pipeline pass (plus the bytecode
///                     peephole report), then exit
///   --dump=FN         print FN after the pipeline instead of running
///   --stages=FN       print FN at every Figure 1 pipeline stage
///   --fuel=N          trap after N VM instructions (out-of-fuel)
///   --deadline-ms=N   trap when the run exceeds N ms of wall clock
///   --max-depth=N     trap at N live non-tail calls (stack-overflow)
///   --max-heap=N      trap when live heap would exceed N bytes
///   --max-cells=N     trap when live heap would exceed N cells
///   --alloc-budget=N  trap after N allocations (heap lifetime)
///   --fail-alloc=N    fault injection: fail the Nth allocation
///   --workers=N       run N VM instances concurrently, each with a
///                     private heap (the parallel runner, src/parallel)
///   --shared-input=FN build FN's result once, mark it thread-shared
///                     (tshare), and pass it as the entry's last argument
///   --shared-arg=N    integer argument for the shared-input builder
///                     (repeatable)
///   ARGS              integer arguments for the entry function
///
/// Service batch mode (the long-lived session engine, src/service,
/// dispatched through the hash-routed shards of src/net):
///
///   perc FILE.perc --serve [--requests=FILE] [--shards=N]
///        [--serve-workers=N] [--queue-cap=N] [--max-retained=BYTES]
///        [--tenant=NAME] [--max-cache-bytes=BYTES] [--chaos-seed=N]
///
/// compiles the program once and executes one request per input line
/// (stdin by default) against pooled worker heaps, printing one
/// perceus-wire-v1 JSON document per request. A request line is
///
///   ENTRY [ARGS...] [--fuel=N] [--deadline-ms=N] [--fail-alloc=N]
///         [--max-depth=N] [--config=NAME] [--tenant=NAME]
///
/// or a single flat JSON object ({"entry":"main","args":[3],...} — see
/// parseServiceRequestJson). `#` starts a comment; blank lines are
/// skipped. A malformed line (unknown option, bad number, invalid JSON)
/// produces a structured "bad-request" JSON response line — never a
/// silent skip, never an abort. Rejections and traps are structured
/// results in the JSON, not process failures: the exit code is 0
/// whenever serving itself worked. `--tenant=` sets the default tenant
/// for every request; `--max-cache-bytes=` bounds each shard's artifact
/// cache (LRU eviction); `--chaos-seed=` enables seeded fault injection
/// at every service boundary (ChaosConfig::defaults).
///
/// Socket mode (the event-loop front end, src/net):
///
///   perc FILE.perc --listen=HOST:PORT [--shards=N] [--serve-workers=N]
///        [--queue-cap=N] [--max-retained=BYTES] [--tenant=NAME]
///        [--max-cache-bytes=BYTES] [--chaos-seed=N]
///        [--max-frame-bytes=N] [--idle-timeout-ms=N] [--max-conns=N]
///        [--max-requests=N]
///
/// serves the same perceus-wire-v1 documents over TCP, framed either as
/// newline-delimited JSON or as 4-byte big-endian length-prefixed JSON
/// (auto-detected per connection; see net/Wire.h). Requests route to N
/// service shards by (tenant, source) hash; every response carries its
/// shard id. `--shards=0` / `--serve-workers=0` size from the hardware
/// (clamped). Port 0 binds an ephemeral port; the chosen port is
/// printed in the `[listen]` banner on stderr. SIGINT/SIGTERM (or
/// `--max-requests=N` responses) shut down cleanly with aggregated and
/// per-shard stats on stderr and exit 0.
///
//===----------------------------------------------------------------------===//

#include "eval/Runner.h"
#include "eval/StatsJson.h"
#include "ir/Printer.h"
#include "lang/Resolver.h"
#include "net/Poller.h"
#include "net/Server.h"
#include "net/ShardedService.h"
#include "parallel/ParallelRunner.h"
#include "perceus/Pipeline.h"
#include "service/Service.h"
#include "service/ServiceJson.h"
#include "support/FaultInjector.h"
#include "support/JsonWriter.h"
#include "support/ParseInteger.h"
#include "support/Telemetry.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <poll.h>
#include <sstream>
#include <string>
#include <type_traits>
#include <unistd.h>
#include <vector>

using namespace perceus;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perc FILE.perc [--config=NAME] "
               "[--no-peephole] [--entry=NAME] [--stats] [--stats-json=FILE] "
               "[--pass-stats]\n"
               "            [--dump=FN] [--stages=FN] "
               "[--fuel=N] [--deadline-ms=N] [--max-depth=N] [--max-heap=N]\n"
               "            [--max-cells=N] [--alloc-budget=N] "
               "[--fail-alloc=N] [--workers=N]\n"
               "            [--shared-input=FN] [--shared-arg=N] "
               "[ARGS...]\n"
               "       perc FILE.perc --serve [--requests=FILE] "
               "[--shards=N] [--serve-workers=N] [--queue-cap=N]\n"
               "            [--max-retained=BYTES] [--tenant=NAME] "
               "[--max-cache-bytes=BYTES] [--chaos-seed=N]\n"
               "       perc FILE.perc --listen=HOST:PORT [--shards=N] "
               "[--serve-workers=N] [--queue-cap=N]\n"
               "            [--max-retained=BYTES] [--tenant=NAME] "
               "[--max-cache-bytes=BYTES] [--chaos-seed=N]\n"
               "            [--max-frame-bytes=N] [--idle-timeout-ms=N] "
               "[--max-conns=N] [--max-requests=N]\n");
}

/// parseInteger with a diagnostic: on failure \p Error says that
/// \p Text, the value of \p What, is not a T or is out of T's range.
template <typename T>
bool parseNumber(std::string_view Text, std::string_view What, T &Out,
                 std::string &Error) {
  std::errc Ec = parseInteger(Text, Out);
  if (Ec != std::errc())
    Error = std::string(What) + " '" + std::string(Text) + "' is " +
            (Ec == std::errc::result_out_of_range ? "out of range"
             : std::is_signed_v<T> ? "not an integer"
                                   : "not a non-negative integer");
  return Ec == std::errc();
}

/// Parses flag \p A as \p Flag's integer value into \p Out; false when
/// \p A is another flag. A malformed value ends the process.
template <typename T>
bool parseCount(const char *A, const char *Flag, T &Out) {
  size_t Len = std::strlen(Flag);
  if (std::strncmp(A, Flag, Len) != 0)
    return false;
  std::string Error;
  if (!parseNumber(A + Len, Flag, Out, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    std::exit(1);
  }
  return true;
}

void printPassStats(const std::vector<PassStat> &Stats) {
  std::printf("%-34s %6s %6s %6s %7s %8s %7s %7s %6s %7s\n", "pass", "dup",
              "drop", "free", "decref", "is-uniq", "drop-ru", "con@ru",
              "token", "nodes");
  for (const PassStat &S : Stats) {
    const IrOpCounts &C = S.Counts;
    std::printf("%-34s %6llu %6llu %6llu %7llu %8llu %7llu %7llu %6llu "
                "%7llu\n",
                S.Pass.c_str(), (unsigned long long)C.Dups,
                (unsigned long long)C.Drops, (unsigned long long)C.Frees,
                (unsigned long long)C.DecRefs,
                (unsigned long long)C.IsUniques,
                (unsigned long long)C.DropReuses,
                (unsigned long long)C.ReuseCons,
                (unsigned long long)C.TokenOps, (unsigned long long)C.Nodes);
  }
}

bool writeStatsJson(const std::string &Path, const std::string &File,
                    const std::string &Entry, Runner &R,
                    const std::vector<int64_t> &Args, const RunResult &Res,
                    const SiteTableSink &Sites) {
  JsonWriter W;
  W.beginObject()
      .member("schema", "perceus-stats-v1")
      .member("program", std::string_view(File))
      .member("entry", std::string_view(Entry))
      .member("config", R.config().name());
  W.key("args").beginArray();
  for (int64_t A : Args)
    W.value(A);
  W.endArray();
  W.member("ok", Res.Ok);
  W.key("result");
  if (Res.Ok && Res.Result.Kind == ValueKind::Int)
    W.value(Res.Result.Int);
  else if (Res.Ok && Res.Result.Kind == ValueKind::Bool)
    W.value(Res.Result.asBool());
  else
    W.null();
  W.key("heap");
  writeHeapStatsJson(W, R.heap().stats());
  W.key("run");
  writeRunResultJson(W, Res);
  W.key("sites");
  Sites.writeJson(W);
  W.endObject();

  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return false;
  }
  std::string Text = W.take();
  std::fwrite(Text.data(), 1, Text.size(), Out);
  std::fputc('\n', Out);
  std::fclose(Out);
  return true;
}

/// Result of parsing one request line.
enum class LineParse {
  Ok,   ///< request filled in
  Skip, ///< blank line or comment — nothing to do
  Bad,  ///< malformed: the caller emits a structured bad-request line
};

/// One request line: ENTRY [ARGS...] with optional per-request overrides,
/// or a single JSON object (see parseServiceRequestJson). A malformed
/// line is Bad with a diagnostic in \p Error — the serve loop answers it
/// with a structured "bad-request" response; it is never silently
/// ignored and never kills the batch.
LineParse parseRequestLine(const std::string &Line, ServiceRequest &R,
                           std::string &Error) {
  size_t First = Line.find_first_not_of(" \t");
  if (First == std::string::npos || Line[First] == '#')
    return LineParse::Skip;
  if (Line[First] == '{')
    return parseServiceRequestJson(
               std::string_view(Line).substr(First), R, Error)
               ? LineParse::Ok
               : LineParse::Bad;

  std::istringstream Toks(Line);
  std::string Tok;
  bool HaveEntry = false;
  bool BadNum = false;
  auto matchNum = [&](const char *Flag, uint64_t &Out) {
    size_t Len = std::strlen(Flag);
    if (Tok.compare(0, Len, Flag) != 0)
      return false;
    BadNum = !parseNumber(std::string_view(Tok).substr(Len), Flag, Out, Error);
    return true;
  };
  while (Toks >> Tok) {
    if (Tok[0] == '#')
      break;
    if (matchNum("--fuel=", R.Limits.Fuel) ||
        matchNum("--deadline-ms=", R.Limits.DeadlineMs) ||
        matchNum("--max-depth=", R.Limits.MaxCallDepth) ||
        matchNum("--fail-alloc=", R.FailAlloc)) {
      if (BadNum)
        return LineParse::Bad;
      continue;
    }
    if (Tok.compare(0, 9, "--config=") == 0) {
      if (!parsePassConfig(Tok.c_str() + 9, R.Config)) {
        Error = "unknown config '" + Tok.substr(9) + "'";
        return LineParse::Bad;
      }
      continue;
    }
    if (Tok.compare(0, 9, "--tenant=") == 0) {
      if (Tok.size() == 9) {
        Error = "--tenant= expects a name";
        return LineParse::Bad;
      }
      R.Tenant = Tok.substr(9);
      continue;
    }
    // Any other option-shaped token is a client bug; answer it
    // structurally instead of misreading it as an entry point or an
    // argument (which is what silent fall-through used to do).
    if (Tok.size() >= 2 && Tok[0] == '-' && Tok[1] == '-') {
      Error = "unknown request option '" + Tok + "'";
      return LineParse::Bad;
    }
    if (!HaveEntry) {
      R.Entry = Tok;
      HaveEntry = true;
    } else {
      int64_t V = 0;
      if (!parseNumber(Tok, "argument", V, Error))
        return LineParse::Bad;
      R.Args.push_back(Value::makeInt(V));
    }
  }
  if (!HaveEntry) {
    Error = "request line has no entry point";
    return LineParse::Bad;
  }
  return LineParse::Ok;
}

int serveMain(const std::string &Source, const PassConfig &DefConfig,
              const RunLimits &DefLimits,
              const std::string &RequestsPath, const FrontEndConfig &FC,
              const std::string &DefTenant) {
  std::ifstream FileIn;
  std::istream *In = &std::cin;
  if (RequestsPath != "-") {
    FileIn.open(RequestsPath);
    if (!FileIn) {
      std::fprintf(stderr, "error: cannot open '%s'\n",
                   RequestsPath.c_str());
      return 1;
    }
    In = &FileIn;
  }

  // stdin serve is a compatibility transport over the same sharded
  // dispatcher the socket front end uses: same routing, same wire
  // documents, with the input line number as the transport seq.
  ShardedService S(FC);

  // Compile failures reject every request identically; diagnose once on
  // stderr and make the batch exit nonzero.
  bool CompileFailed = false;
  uint64_t OkCount = 0, Trapped = 0, Rejected = 0, BadLines = 0;

  // The CLI applies backpressure by keeping at most the queue capacity
  // in flight; responses print in submission order, one JSON per line.
  std::deque<std::pair<uint64_t, std::future<ServiceResponse>>> InFlight;
  auto drainOne = [&] {
    ServiceResponse R = InFlight.front().second.get();
    R.Seq = InFlight.front().first;
    InFlight.pop_front();
    if (R.Reject != RejectKind::None) {
      ++Rejected;
      if (R.Reject == RejectKind::CompileError && !CompileFailed) {
        CompileFailed = true;
        std::fprintf(stderr, "%s", R.Error.c_str());
      }
    } else if (R.Run.Ok) {
      ++OkCount;
    } else {
      ++Trapped;
    }
    std::printf("%s\n", wireResponseJson(R).c_str());
  };

  std::string Line;
  size_t LineNo = 0;
  while (std::getline(*In, Line)) {
    ++LineNo;
    ServiceRequest R;
    R.Tenant = DefTenant;
    R.Source = Source;
    R.Config = DefConfig;
    R.Limits = DefLimits;
    std::string ParseError;
    switch (parseRequestLine(Line, R, ParseError)) {
    case LineParse::Skip:
      continue;
    case LineParse::Bad: {
      // A malformed line gets a structured response of its own — the
      // client sees exactly which line was refused and why, in the same
      // one-JSON-per-request protocol as everything else.
      ++BadLines;
      ServiceResponse Bad;
      Bad.Seq = LineNo;
      Bad.Tenant = R.Tenant;
      Bad.Reject = RejectKind::BadRequest;
      Bad.Error = "line " + std::to_string(LineNo) + ": " + ParseError;
      std::printf("%s\n", wireResponseJson(Bad).c_str());
      continue;
    }
    case LineParse::Ok:
      break;
    }
    if (InFlight.size() >= FC.Shard.QueueCapacity)
      drainOne();
    InFlight.emplace_back(LineNo, S.submit(std::move(R)));
  }
  while (!InFlight.empty())
    drainOne();
  S.stop();

  ServiceStats ST = S.stats();
  std::fprintf(stderr,
               "[serve] requests=%llu ok=%llu traps=%llu rejected=%llu "
               "bad-lines=%llu shards=%zu cache-hits=%llu compiles=%llu "
               "evictions=%llu trimmed=%lluB\n",
               (unsigned long long)ST.Submitted, (unsigned long long)OkCount,
               (unsigned long long)Trapped, (unsigned long long)Rejected,
               (unsigned long long)BadLines, S.shardCount(),
               (unsigned long long)ST.CacheHits,
               (unsigned long long)ST.CacheCompiles,
               (unsigned long long)ST.CacheEvictions,
               (unsigned long long)ST.TrimmedBytes);
  return CompileFailed ? 1 : 0;
}

/// Self-pipe for signal-safe shutdown: the handler writes one byte; the
/// main thread blocks on the read end.
int SignalPipe[2] = {-1, -1};

void onShutdownSignal(int) {
  char B = 1;
  ssize_t Ignored = write(SignalPipe[1], &B, 1);
  (void)Ignored;
}

void printServiceStatsLine(const char *Tag, const ServiceStats &ST) {
  std::fprintf(stderr,
               "%s submitted=%llu executed=%llu traps=%llu rejected=%llu "
               "cache-hits=%llu compiles=%llu evictions=%llu trimmed=%lluB\n",
               Tag, (unsigned long long)ST.Submitted,
               (unsigned long long)ST.Executed, (unsigned long long)ST.Traps,
               (unsigned long long)(ST.RejectedQueueFull + ST.RejectedShedding +
                                    ST.RejectedCompileError +
                                    ST.RejectedRateLimited +
                                    ST.RejectedTenantQuota +
                                    ST.RejectedCircuitOpen +
                                    ST.RejectedBadRequest),
               (unsigned long long)ST.CacheHits,
               (unsigned long long)ST.CacheCompiles,
               (unsigned long long)ST.CacheEvictions,
               (unsigned long long)ST.TrimmedBytes);
}

int listenMain(const std::string &Source, const PassConfig &DefConfig,
               const RunLimits &DefLimits,
               const std::string &ListenAddr, const FrontEndConfig &FC,
               const std::string &DefTenant, uint64_t MaxRequests) {
  ServiceRequest Defaults;
  Defaults.Tenant = DefTenant;
  Defaults.Source = Source;
  Defaults.Config = DefConfig;
  Defaults.Limits = DefLimits;

  ShardedService SS(FC);
  Server Srv(SS, FC, std::move(Defaults));
  std::string Err;
  if (!Srv.listen(ListenAddr, &Err)) {
    std::fprintf(stderr, "error: cannot listen on %s: %s\n",
                 ListenAddr.c_str(), Err.c_str());
    return 1;
  }
  if (pipe(SignalPipe) != 0) {
    std::fprintf(stderr, "error: cannot create signal pipe\n");
    return 1;
  }
  std::signal(SIGINT, onShutdownSignal);
  std::signal(SIGTERM, onShutdownSignal);
  if (!Srv.start()) {
    std::fprintf(stderr, "error: cannot start the event loop\n");
    return 1;
  }
  // The banner is the contract for scripted clients: it carries the
  // bound (possibly ephemeral) port and is flushed before any traffic.
  std::fprintf(stderr,
               "[listen] schema=%s backend=%s port=%u shards=%zu "
               "workers-per-shard=%u max-frame=%zu\n",
               kWireSchemaName, Poller::backendName(), Srv.port(),
               SS.shardCount(), SS.shard(0).config().Workers,
               FC.MaxFrameBytes);
  std::fflush(stderr);

  for (;;) {
    pollfd PFd{};
    PFd.fd = SignalPipe[0];
    PFd.events = POLLIN;
    int N = ::poll(&PFd, 1, 200);
    if (N > 0)
      break; // SIGINT/SIGTERM
    if (MaxRequests && Srv.stats().FramesOut >= MaxRequests)
      break;
  }

  Srv.stop();
  SS.stop();

  ServerStats NS = Srv.stats();
  std::fprintf(stderr,
               "[listen] conns=%llu refused=%llu closed=%llu idle-closed=%llu "
               "frames-in=%llu frames-out=%llu bad-requests=%llu "
               "protocol-errors=%llu truncated=%llu dropped-responses=%llu "
               "bytes-in=%llu bytes-out=%llu\n",
               (unsigned long long)NS.Accepted, (unsigned long long)NS.Refused,
               (unsigned long long)NS.Closed,
               (unsigned long long)NS.IdleClosed,
               (unsigned long long)NS.FramesIn,
               (unsigned long long)NS.FramesOut,
               (unsigned long long)NS.BadRequests,
               (unsigned long long)NS.ProtocolErrors,
               (unsigned long long)NS.TruncatedFrames,
               (unsigned long long)NS.DroppedResponses,
               (unsigned long long)NS.BytesIn, (unsigned long long)NS.BytesOut);
  printServiceStatsLine("[service]", SS.stats());
  for (size_t I = 0; I != SS.shardCount(); ++I) {
    std::string Tag = "[shard " + std::to_string(I) + "]";
    printServiceStatsLine(Tag.c_str(), SS.shardStats(I));
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string File, Entry = "main", Dump, Stages, StatsJson;
  PassConfig Config = PassConfig::perceusFull();
  bool Stats = false;
  bool PassStats = false;
  EngineConfig EC;
  RunLimits Limits;
  uint64_t MaxHeapBytes = 0, FailAlloc = 0, Workers = 0;
  int64_t SharedArg = 0;
  bool Serve = false;
  std::string Requests = "-";
  std::string Listen;
  uint64_t ServeWorkers = 1, QueueCap = 64, MaxRetained = 8u << 20;
  uint64_t MaxCacheBytes = 0, ChaosSeed = 0, Shards = 1;
  uint64_t MaxFrameBytes = 64 * 1024, IdleTimeoutMs = 0, MaxConns = 1024;
  uint64_t MaxRequests = 0;
  std::string Tenant = "default";
  std::string SharedInput;
  std::vector<int64_t> SharedArgs;
  std::vector<int64_t> Args;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strncmp(A, "--config=", 9) == 0) {
      if (!parsePassConfig(A + 9, Config)) {
        std::fprintf(stderr, "error: unknown config '%s'\n", A + 9);
        return 1;
      }
    } else if (std::strncmp(A, "--entry=", 8) == 0) {
      Entry = A + 8;
    } else if (std::strncmp(A, "--dump=", 7) == 0) {
      Dump = A + 7;
    } else if (std::strncmp(A, "--stages=", 9) == 0) {
      Stages = A + 9;
    } else if (!std::strcmp(A, "--stats")) {
      Stats = true;
    } else if (std::strncmp(A, "--stats-json=", 13) == 0) {
      StatsJson = A + 13;
    } else if (!std::strcmp(A, "--pass-stats")) {
      PassStats = true;
    } else if (!std::strcmp(A, "--no-peephole")) {
      EC.Peephole = false;
    } else if (std::strncmp(A, "--shared-input=", 15) == 0) {
      SharedInput = A + 15;
    } else if (parseCount(A, "--shared-arg=", SharedArg)) {
      SharedArgs.push_back(SharedArg);
    } else if (parseCount(A, "--workers=", Workers)) {
      // handled below
    } else if (!std::strcmp(A, "--serve")) {
      Serve = true;
    } else if (std::strncmp(A, "--listen=", 9) == 0) {
      Listen = A + 9;
      if (Listen.empty()) {
        std::fprintf(stderr, "error: --listen= expects HOST:PORT\n");
        return 1;
      }
    } else if (std::strncmp(A, "--requests=", 11) == 0) {
      Requests = A + 11;
    } else if (parseCount(A, "--serve-workers=", ServeWorkers) ||
               parseCount(A, "--queue-cap=", QueueCap) ||
               parseCount(A, "--max-retained=", MaxRetained) ||
               parseCount(A, "--max-cache-bytes=", MaxCacheBytes) ||
               parseCount(A, "--chaos-seed=", ChaosSeed) ||
               parseCount(A, "--shards=", Shards) ||
               parseCount(A, "--max-frame-bytes=", MaxFrameBytes) ||
               parseCount(A, "--idle-timeout-ms=", IdleTimeoutMs) ||
               parseCount(A, "--max-conns=", MaxConns) ||
               parseCount(A, "--max-requests=", MaxRequests)) {
      // handled in serve/listen mode below
    } else if (std::strncmp(A, "--tenant=", 9) == 0) {
      Tenant = A + 9;
      if (Tenant.empty()) {
        std::fprintf(stderr, "error: --tenant= expects a name\n");
        return 1;
      }
    } else if (parseCount(A, "--fuel=", Limits.Fuel) ||
               parseCount(A, "--deadline-ms=", Limits.DeadlineMs) ||
               parseCount(A, "--max-depth=", Limits.MaxCallDepth) ||
               parseCount(A, "--max-heap=", MaxHeapBytes) ||
               parseCount(A, "--max-cells=", Limits.Heap.MaxLiveCells) ||
               parseCount(A, "--alloc-budget=", Limits.Heap.AllocBudget) ||
               parseCount(A, "--fail-alloc=", FailAlloc)) {
      Limits.Heap.MaxLiveBytes = MaxHeapBytes;
    } else if (A[0] == '-' && !std::isdigit((unsigned char)A[1])) {
      usage();
      return 1;
    } else if (File.empty()) {
      File = A;
    } else {
      int64_t V = 0;
      std::string Error;
      if (!parseNumber(A, "argument", V, Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 1;
      }
      Args.push_back(V);
    }
  }
  if (File.empty()) {
    usage();
    return 1;
  }

  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
    return 1;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Source = Buf.str();

  if (Serve || !Listen.empty()) {
    ServiceConfig SC;
    SC.withWorkers(static_cast<unsigned>(ServeWorkers))
        .withQueueCapacity(static_cast<size_t>(QueueCap))
        .withMaxRetainedBytes(static_cast<size_t>(MaxRetained))
        .withMaxCacheBytes(static_cast<size_t>(MaxCacheBytes));
    if (ChaosSeed)
      SC.withChaos(ChaosConfig::defaults(ChaosSeed));
    FrontEndConfig FC;
    FC.withShards(static_cast<unsigned>(Shards))
        .withShard(SC)
        .withMaxFrameBytes(static_cast<size_t>(MaxFrameBytes))
        .withIdleTimeoutMs(IdleTimeoutMs)
        .withMaxConnections(static_cast<size_t>(MaxConns));
    if (!Listen.empty())
      return listenMain(Source, Config, Limits, Listen, FC, Tenant,
                        MaxRequests);
    return serveMain(Source, Config, Limits, Requests, FC, Tenant);
  }

  if (PassStats) {
    std::vector<PassStat> Passes;
    auto Art = compileArtifact(Source, Config, &Passes);
    if (!Art->Ok) {
      std::fprintf(stderr, "%s", Art->Diags.str().c_str());
      return 1;
    }
    std::printf("config: %s\n", Config.name());
    printPassStats(Passes);
    if (EC.Peephole) {
      // The bytecode tier's own rewrite, below the IR passes: what the
      // peephole deleted (proven-immediate RC ops) and fused.
      const PeepholeReport &Rep = Art->Peephole;
      std::printf("\npeephole (immediacy rounds: %u)\n",
                  Rep.AnalysisRounds);
      std::printf("%-34s %7s %7s %7s %7s\n", "chunk", "before", "after",
                  "elided", "fused");
      for (const PeepholeChunkStats &C : Rep.Chunks)
        if (C.Elided || C.Fused)
          std::printf("%-34s %7u %7u %7u %7u\n", C.Name.c_str(), C.Before,
                      C.After, C.Elided, C.Fused);
      std::printf("%-34s %7s %7s %7llu %7llu\n", "total", "", "",
                  (unsigned long long)Rep.totalElided(),
                  (unsigned long long)Rep.totalFused());
    }
    return 0;
  }

  if (!Stages.empty()) {
    Program P;
    DiagnosticEngine Diags;
    if (!compileSource(Source, P, Diags)) {
      std::fprintf(stderr, "%s", Diags.str().c_str());
      return 1;
    }
    FuncId F = P.findFunction(P.symbols().intern(Stages));
    if (F == InvalidId) {
      std::fprintf(stderr, "error: no function '%s'\n", Stages.c_str());
      return 1;
    }
    for (const StageDump &S : runPipelineWithStages(P, F))
      std::printf("----- %s -----\n%s\n", S.Stage.c_str(), S.Text.c_str());
    return 0;
  }

  if (Workers || !SharedInput.empty()) {
    if (!StatsJson.empty() || FailAlloc) {
      std::fprintf(stderr, "error: --workers is incompatible with "
                           "--stats-json and --fail-alloc\n");
      return 1;
    }
    ParallelRunner PR(Source, Config);
    if (!PR.ok()) {
      std::fprintf(stderr, "%s", PR.diagnostics().str().c_str());
      return 1;
    }
    EC.Workers = Workers ? static_cast<unsigned>(Workers) : 1;
    EC.SharedBuilder = SharedInput;
    for (int64_t A : SharedArgs)
      EC.SharedArgs.push_back(Value::makeInt(A));
    EC.Limits = Limits;
    std::vector<Value> VArgs;
    for (int64_t A : Args)
      VArgs.push_back(Value::makeInt(A));
    ParallelOutcome Out = PR.run(EC, Entry, std::move(VArgs));
    if (!Out.Error.empty()) {
      std::fprintf(stderr, "error: %s\n", Out.Error.c_str());
      return 1;
    }
    for (size_t W = 0; W != Out.Workers.size(); ++W) {
      const WorkerOutcome &WO = Out.Workers[W];
      if (WO.Run.Ok && WO.Run.Result.Kind == ValueKind::Int)
        std::printf("worker %zu: %lld (%.3fs)\n", W,
                    (long long)WO.Run.Result.Int, WO.Seconds);
      else if (WO.Run.Ok)
        std::printf("worker %zu: ok (%.3fs)\n", W, WO.Seconds);
      else
        std::printf("worker %zu: trap (%s): %s\n", W,
                    trapKindName(WO.Run.Trap), WO.Run.Error.c_str());
    }
    if (Stats) {
      const HeapStats &S = Out.Combined;
      std::fprintf(stderr,
                   "[%s x%zu] wall=%.3fs allocs=%llu frees=%llu "
                   "dup=%llu drop=%llu atomic-rc=%llu coalesced-rc=%llu "
                   "peak=%zuB leaked-cells=%llu\n",
                   Config.name(), Out.Workers.size(), Out.Seconds,
                   (unsigned long long)S.Allocs,
                   (unsigned long long)S.Frees,
                   (unsigned long long)S.DupOps,
                   (unsigned long long)S.DropOps,
                   (unsigned long long)S.AtomicRcOps,
                   (unsigned long long)S.CoalescedRcOps, S.PeakBytes,
                   (unsigned long long)(S.LiveCells + Out.Shared.LiveCells));
      if (!SharedInput.empty())
        std::fprintf(stderr,
                     "[shared segment] allocs=%llu frees=%llu "
                     "atomic-rc=%llu swept-after-trap=%llu\n",
                     (unsigned long long)Out.Shared.Allocs,
                     (unsigned long long)Out.Shared.Frees,
                     (unsigned long long)Out.Shared.AtomicRcOps,
                     (unsigned long long)Out.SharedLeaked);
    }
    return Out.Ok ? 0 : 1;
  }

  EC.Limits = Limits;
  FaultInjector FI = FaultInjector::failNth(FailAlloc);
  if (FailAlloc)
    EC.Injector = &FI;
  SiteTableSink Sites;
  if (!StatsJson.empty())
    EC.Sink = &Sites;

  Runner R(Source, Config, EC);
  if (!R.ok()) {
    std::fprintf(stderr, "%s", R.diagnostics().str().c_str());
    return 1;
  }

  if (!Dump.empty()) {
    FuncId F = R.artifact().function(Dump);
    if (F == InvalidId) {
      std::fprintf(stderr, "error: no function '%s'\n", Dump.c_str());
      return 1;
    }
    std::printf("%s", printFunction(R.program(), F).c_str());
    return 0;
  }

  RunResult Res = R.callInt(Entry, Args);
  // The JSON dump is most valuable exactly when something went wrong, so
  // it is written on trapped runs too.
  if (!StatsJson.empty() &&
      !writeStatsJson(StatsJson, File, Entry, R, Args, Res, Sites))
    return 1;
  if (!Res.Ok) {
    std::fprintf(stderr, "runtime error (%s): %s\n", trapKindName(Res.Trap),
                 Res.Error.c_str());
    if (Stats) {
      const HeapStats &S = R.heap().stats();
      std::fprintf(stderr,
                   "[%s] trap=%s unwound-cells=%llu leaked-cells=%llu\n",
                   R.config().name(), trapKindName(Res.Trap),
                   (unsigned long long)Res.UnwoundCells,
                   (unsigned long long)S.LiveCells);
    }
    return 1;
  }
  std::fputs(Res.Output.c_str(), stdout);
  switch (Res.Result.Kind) {
  case ValueKind::Int:
    std::printf("%lld\n", (long long)Res.Result.Int);
    break;
  case ValueKind::Bool:
    std::printf("%s\n", Res.Result.asBool() ? "True" : "False");
    break;
  case ValueKind::Unit:
    break;
  default:
    std::printf("<%s value>\n",
                Res.Result.Kind == ValueKind::HeapRef ? "heap" : "opaque");
    break;
  }

  if (Stats) {
    const HeapStats &S = R.heap().stats();
    std::fprintf(stderr,
                 "[%s] steps=%llu allocs=%llu frees=%llu dup=%llu "
                 "drop=%llu reuse=%llu peak=%zuB leaked-cells=%llu\n",
                 R.config().name(), (unsigned long long)Res.Steps,
                 (unsigned long long)S.Allocs, (unsigned long long)S.Frees,
                 (unsigned long long)S.DupOps,
                 (unsigned long long)S.DropOps,
                 (unsigned long long)Res.ReuseHits, S.PeakBytes,
                 (unsigned long long)S.LiveCells);
  }
  return 0;
}
