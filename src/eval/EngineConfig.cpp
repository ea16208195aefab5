//===- eval/EngineConfig.cpp - Engine configuration and trap names ------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/EngineConfig.h"

#include "eval/Engine.h"

using namespace perceus;

const char *perceus::trapKindName(TrapKind K) {
  switch (K) {
  case TrapKind::Ok:
    return "ok";
  case TrapKind::OutOfMemory:
    return "out-of-memory";
  case TrapKind::OutOfFuel:
    return "out-of-fuel";
  case TrapKind::StackOverflow:
    return "stack-overflow";
  case TrapKind::RuntimeError:
    return "runtime-error";
  case TrapKind::Deadline:
    return "deadline";
  }
  return "unknown";
}

const char *perceus::engineKindName(EngineKind K) {
  switch (K) {
  case EngineKind::Vm:
    return "vm";
  }
  return "unknown";
}

bool perceus::parseEngineKind(std::string_view Name, EngineKind &Out) {
  if (Name == "vm") {
    Out = EngineKind::Vm;
    return true;
  }
  return false;
}
