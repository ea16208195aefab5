//===- bench/Common.h - Shared benchmark harness helpers --------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table-producing benchmark binaries: the
/// benchmark/configuration matrix, timing, scaling, and aligned table
/// printing in the style of the paper's Figure 9 (values relative to the
/// `perceus` configuration; lower is better).
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_BENCH_COMMON_H
#define PERCEUS_BENCH_COMMON_H

#include "eval/Runner.h"
#include "programs/Programs.h"
#include "support/Telemetry.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perceus {
namespace bench {

/// One benchmark program of the paper's Section 4.
struct BenchProgram {
  const char *Name;
  const char *Source;
  const char *Entry;
  int64_t BaseScale; ///< workload size at --scale=1
  std::function<int64_t(int64_t)> Native; ///< nullptr: no C++ version (×)
};

/// The five programs of Figure 9.
std::vector<BenchProgram> figure9Programs(double Scale);

/// Service-mode telemetry attached to a row (bench_service): admission
/// outcome and latency split. Rows with Present=false omit the object.
/// Mirrors the "service" object of perceus-stats-v1 without depending on
/// src/service — bench stays linkable without the service library.
struct ServiceInfo {
  bool Present = false;
  std::string Status = "ok"; ///< rejectKindName() vocabulary
  std::string Tenant = "default";
  bool Executed = true;
  bool CacheHit = false;
  bool HeapEmpty = true;
  uint64_t Worker = 0;
  double QueueMs = 0;
  double RunMs = 0;
  uint64_t RetryAfterMs = 0;
  uint64_t RetainedBytes = 0;
};

/// Per-tenant overload telemetry attached to a row (bench_overload):
/// open-loop latency percentiles, shed rate, and admission-rejection
/// breakdown for one tenant of a multi-tenant mix. Rows with
/// Present=false omit the object.
struct OverloadInfo {
  bool Present = false;
  std::string Tenant;
  bool Abusive = false;   ///< the tenant driving the overload
  uint64_t Requests = 0;  ///< submitted by this tenant
  uint64_t Executed = 0;  ///< ran on a worker
  uint64_t Shed = 0;      ///< admitted then shed (deadline in queue, stop)
  uint64_t RejectedRateLimited = 0;
  uint64_t RejectedTenantQuota = 0;
  uint64_t RejectedQueueFull = 0;
  uint64_t RejectedCircuitOpen = 0;
  double ShedRate = 0;    ///< (shed + rejections) / requests
  double P50Ms = 0;       ///< end-to-end latency of executed requests
  double P99Ms = 0;
  double MeanMs = 0;
  uint64_t RetainedPeakBytes = 0; ///< worst worker-retained bytes observed
};

/// Per-shard front-end telemetry attached to a row (bench_net): one
/// row per shard of the sharded socket dispatcher, showing that cache,
/// quota, and shed state stay isolated per shard. Rows with
/// Present=false omit the object.
struct ShardInfo {
  bool Present = false;
  uint64_t Shard = 0;          ///< shard index in the front end
  uint64_t Requests = 0;       ///< submitted to this shard
  uint64_t Executed = 0;       ///< ran on one of the shard's workers
  uint64_t CacheHits = 0;      ///< artifact-cache hits (shard-local cache)
  uint64_t CacheCompiles = 0;  ///< compiles (≥1 per shard touching a source)
  uint64_t CacheEvictions = 0; ///< shard-local LRU evictions
  uint64_t Sheds = 0;          ///< shed + admission rejections on this shard
  double Qps = 0;              ///< executed / wall-clock of the phase
};

/// One measured cell of the table.
struct Measurement {
  bool Ran = false;
  double Seconds = 0;
  size_t PeakBytes = 0;
  int64_t Checksum = 0;
  HeapStats Heap;
  RunResult Run;
  ServiceInfo Svc;  ///< service-mode rows only (see ServiceInfo)
  OverloadInfo Ov;  ///< overload-mix rows only (see OverloadInfo)
  ShardInfo Shard;  ///< sharded-front-end rows only (see ShardInfo)
};

/// Runs \p Prog under \p Config on the VM configured by \p EC, once,
/// and measures it. When \p EC.Sink is non-null it is installed on the
/// heap for the run, so per-site RC event attribution rides along (note:
/// the hooked run is slower; don't compare its time against unhooked
/// rows).
Measurement measure(const BenchProgram &Prog, const PassConfig &Config,
                    const EngineConfig &EC = {});

/// Runs the native C++ version (time only).
Measurement measureNative(const BenchProgram &Prog);

/// Prints one relative-value table (the Figure 9 format): rows =
/// configurations, columns = benchmarks, normalized to the first
/// configuration row.
void printRelativeTable(const char *Title, const char *Unit,
                        const std::vector<std::string> &RowNames,
                        const std::vector<std::string> &ColNames,
                        const std::vector<std::vector<double>> &Values);

/// Parses `--scale=X` (default 1.0) from argv.
double parseScale(int Argc, char **Argv, double Default = 1.0);

/// Machine-readable results ("perceus-bench-v1"): every harness appends
/// one row per benchmark × configuration and writes `BENCH_<name>.json`
/// at the repository root — the artifact CI uploads and the bench
/// trajectory is built from.
class BenchReport {
public:
  /// \p Bench is the harness name ("fig9", "rcops", ...); \p Scale the
  /// workload scale the run used (0 when not applicable).
  BenchReport(std::string Bench, double Scale);

  /// Appends one measured cell.
  void add(std::string Benchmark, std::string Config, const Measurement &M);

  /// The complete JSON document.
  std::string json() const;

  /// Writes the document to \p Path, or to the default
  /// `<repo>/BENCH_<name>.json` when \p Path is empty. Returns false
  /// (with a message on stderr) when the file cannot be written.
  bool write(const std::string &Path = std::string()) const;

  /// Default output path for harness \p Bench.
  static std::string defaultPath(const std::string &Bench);

private:
  std::string Bench;
  double Scale;
  struct Row {
    std::string Benchmark;
    std::string Config;
    Measurement M;
  };
  std::vector<Row> Rows;
};

/// Parses `--json=PATH` / `--no-json` from argv. Returns the explicit
/// path, the default path for \p Bench when neither flag is given, or
/// an empty string when `--no-json` disables emission.
std::string parseJsonPath(const char *Bench, int Argc, char **Argv);

/// Checks \p Text against the "perceus-bench-v1" schema. Returns an
/// empty string when valid, else a description of the first violation.
std::string validateBenchJson(std::string_view Text);

} // namespace bench
} // namespace perceus

#endif // PERCEUS_BENCH_COMMON_H
