//===- eval/Runner.cpp - One-stop compile-and-run facade ----------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/Runner.h"

using namespace perceus;

Runner::Runner(std::string_view Source, const PassConfig &Config,
               const EngineConfig &EC)
    : Art(compileArtifact(Source, Config)) {
  finishSetup(EC);
}

Runner::Runner(std::unique_ptr<Program> P, const PassConfig &Config,
               const EngineConfig &EC)
    : Art(compileArtifact(std::move(P), Config)) {
  finishSetup(EC);
}

Runner::~Runner() = default;

void Runner::finishSetup(const EngineConfig &EC) {
  if (!Art->Ok)
    return;
  TheHeap = std::make_unique<Heap>(Art->heapMode(), EC.GcThresholdBytes);
  TheVM = std::make_unique<VM>(*Art->Code, *TheHeap, EC.Peephole);
  setLimits(EC.Limits);
  setFaultInjector(EC.Injector);
  setStatsSink(EC.Sink);
}

RunResult Runner::callInt(std::string_view Name, std::vector<int64_t> Args) {
  std::vector<Value> Vals;
  Vals.reserve(Args.size());
  for (int64_t A : Args)
    Vals.push_back(Value::makeInt(A));
  return call(Name, std::move(Vals));
}

RunResult Runner::call(std::string_view Name, std::vector<Value> Args) {
  RunResult R;
  if (!ok()) {
    R.Trap = TrapKind::RuntimeError;
    R.Error = Art->Error;
    return R;
  }
  FuncId F = Art->function(Name);
  if (F == InvalidId) {
    R.Trap = TrapKind::RuntimeError;
    R.Error = "no such function: " + std::string(Name);
    return R;
  }
  return TheVM->run(F, std::move(Args));
}

void Runner::setLimits(const RunLimits &L) {
  if (ok())
    TheVM->setLimits(L);
}

void Runner::setFaultInjector(FaultInjector *FI) {
  if (ok())
    TheHeap->setFaultInjector(FI);
}

void Runner::setStatsSink(StatsSink *S) {
  if (ok())
    TheHeap->setStatsSink(S);
}
