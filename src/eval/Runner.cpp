//===- eval/Runner.cpp - One-stop compile-and-run facade ----------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/Runner.h"

#include "bytecode/Compiler.h"
#include "eval/Layout.h"
#include "gc/MarkSweep.h"
#include "lang/Resolver.h"

using namespace perceus;

Runner::Runner(std::string_view Source, const PassConfig &Config,
               const EngineConfig &EC)
    : Config(Config), EC(EC) {
  OwnedProg = std::make_unique<Program>();
  Prog = OwnedProg.get();
  if (!compileSource(Source, *Prog, Diags))
    return;
  finishSetup();
}

Runner::Runner(Program &P, const PassConfig &Config, const EngineConfig &EC)
    : Config(Config), EC(EC), Prog(&P) {
  finishSetup();
}

Runner::~Runner() = default;

void Runner::finishSetup() {
  runPipeline(*Prog, Config);
  TheHeap = std::make_unique<Heap>(
      Config.Mode == RcMode::None ? HeapMode::Gc : HeapMode::Rc,
      EC.GcThresholdBytes);
  Compiled.emplace(compileProgram(*Prog, layoutProgram(*Prog)));
  if (!Compiled->Error.empty()) {
    Diags.error(SourceLoc{}, Compiled->Error);
    return;
  }
  if (EC.Peephole)
    PeepReport = runPeephole(*Compiled);
  TheVM = std::make_unique<VM>(*Compiled, *TheHeap);
  if (TheHeap->mode() == HeapMode::Gc) {
    VM *V = TheVM.get();
    attachCollector(*TheHeap, [V](const std::function<void(Value)> &Fn) {
      V->enumerateRoots(Fn);
    });
  }
  Ok = true;
  setLimits(EC.Limits);
  if (EC.Injector)
    setFaultInjector(EC.Injector);
  if (EC.Sink)
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
  if (!Ok) {
    R.Trap = TrapKind::RuntimeError;
    R.Error = "program failed to compile:\n" + Diags.str();
    return R;
  }
  FuncId F = Prog->findFunction(Prog->symbols().intern(Name));
  if (F == InvalidId) {
    R.Trap = TrapKind::RuntimeError;
    R.Error = "no such function: " + std::string(Name);
    return R;
  }
  return TheVM->run(F, std::move(Args));
}

void Runner::setLimits(const RunLimits &L) {
  if (!Ok)
    return;
  TheHeap->setLimits(L.Heap);
  TheVM->setStepLimit(L.Fuel);
  TheVM->setCallDepthLimit(L.MaxCallDepth);
  TheVM->setDeadline(L.DeadlineMs);
}

void Runner::setFaultInjector(FaultInjector *FI) {
  if (!Ok)
    return;
  TheHeap->setFaultInjector(FI);
}

void Runner::setStatsSink(StatsSink *S) {
  if (!Ok)
    return;
  TheHeap->setStatsSink(S);
}
