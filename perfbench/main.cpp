//===- perfbench/main.cpp - The repository benchmark's entry point ---------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload fig9-batch|wire-hot|service-cold --seed N
///             --seconds S --trace 0|1 [--root DIR] [--trace-out FILE]
///             [--corrupt-oracle]
///
/// Runs one workload for S seconds and prints, as its last line, the
/// result object {"correct","attempted","failed","metrics"}. With
/// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
/// per-layer ones from a traced run (see README.md). The host
/// calibration and the input hash go to the lines before it.
///
/// The process runs on one CPU, the highest it may use, so each hand-off
/// between the client, the server loop and the worker wakes a thread on
/// the same CPU. Across CPUs of a virtual machine that hand-off costs a
/// wake-up of an idle virtual CPU, whose latency moved the median request
/// by up to 2.5x from one quarter second to the next.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig9-batch|wire-hot|service-cold --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--trace-out FILE] "
               "[--corrupt-oracle]\n",
               Msg);
  return 2;
}

/// Pins the calling thread, and every thread it starts later, to the
/// highest CPU in its affinity mask; returns that CPU, or -1.
int pinToOneCpu() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return -1;
  for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0; --Cpu) {
    if (!CPU_ISSET(Cpu, &Set))
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    return sched_setaffinity(0, sizeof(One), &One) == 0 ? Cpu : -1;
  }
  return -1;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--corrupt-oracle") {
      O.CorruptOracle = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V.c_str(), &End);
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--root")
      O.Root = V;
    else if (A == "--trace-out")
      O.TraceOut = V;
    else
      return false;
    if (End && *End)
      return false;
  }
  return !O.Workload.empty() && O.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return usage("bad arguments");

  Outcome (*Run)(const Options &) = nullptr;
  if (O.Workload == "fig9-batch")
    Run = runFig9Batch;
  else if (O.Workload == "wire-hot")
    Run = runWireHot;
  else if (O.Workload == "service-cold")
    Run = runServiceCold;
  else
    return usage("unknown workload");

  unsigned Nproc = std::thread::hardware_concurrency();
  int Cpu = pinToOneCpu();
  spinNsPerIter(); // the first reading pays the clock ramp-up of a cold core
  double SpinBefore = spinNsPerIter();
  Outcome Out = Run(O);
  double SpinAfter = spinNsPerIter();

  std::printf("perfbench: workload=%s seed=%llu input_hash=%016llx\n",
              O.Workload.c_str(), (unsigned long long)O.Seed,
              (unsigned long long)Out.InputHash);
  std::printf("perfbench: host nproc=%u cpu=%d spin_ns_before=%.4f "
              "spin_ns_after=%.4f\n",
              Nproc, Cpu, SpinBefore, SpinAfter);
  if (!O.Trace) {
    std::printf("perfbench: latency samples=%llu windows=%zu\n",
                (unsigned long long)Out.LatSamples, Out.Windows);
    std::printf("perfbench: setup ref_us=%.3f wall_ms=", Out.Setup.RefUs);
    const char *Sep = "";
    for (double S : Out.Setup.WallS) {
      std::printf("%s%.3f", Sep, S * 1e3);
      Sep = ",";
    }
    std::printf("\n");
  }
  if (O.Trace) {
    Out.M.set("host.nproc", Nproc, "count");
    Out.M.set("host.spin_ns_before", SpinBefore, "ns");
    Out.M.set("host.spin_ns_after", SpinAfter, "ns");
    Out.M.set("failed_frac",
              Out.Attempted ? double(Out.Failed) / double(Out.Attempted) : 1,
              "frac");
  }
  if (Out.Attempted == 0) {
    Out.Correct = false;
    Out.Attempted = 1;
    Out.Failed = 1;
  }
  std::printf("%s\n",
              Out.M.json(Out.Correct && Out.Failed == 0, Out.Attempted,
                         Out.Failed)
                  .c_str());
  std::fflush(stdout);
  return 0;
}
