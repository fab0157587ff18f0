//===-- interp/ExecContext.cpp - Reusable execution state ---------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "interp/ExecContext.h"

#include "support/Stats.h"

#include <algorithm>

using namespace eoe;
using namespace eoe::interp;

void ExecContext::beginRun(size_t StmtCount, size_t GlobalSlots) {
  GlobalMem.assign(GlobalSlots, 0);
  GlobalLastDef.assign(GlobalSlots, InvalidId);
  InstCount.assign(StmtCount, 0);
  HeldUses.clear();
  HeldDefs.clear();
  HeldStarts.clear();
  ArgStack.clear();
}

ExecFrame ExecContext::takeFrame() {
  if (FreeFrames.empty())
    return ExecFrame();
  ExecFrame F = std::move(FreeFrames.back());
  FreeFrames.pop_back();
  return F;
}

void ExecContext::recycleFrame(ExecFrame &&F) {
  F.Func = nullptr;
  F.Mem.clear();
  F.LastDef.clear();
  F.LastPredInstance.clear();
  F.RetVal = 0;
  F.RetValDef = InvalidId;
  F.CallSite = InvalidId;
  F.Serial = 0;
  FreeFrames.push_back(std::move(F));
}

void ExecContext::noteTraceSize(size_t Steps, size_t Uses, size_t Defs) {
  StepsHint = std::max(StepsHint, Steps);
  UsesHint = std::max(UsesHint, Uses);
  DefsHint = std::max(DefsHint, Defs);
}

ExecContextPool::Lease ExecContextPool::acquire() {
  if (CAcquires)
    CAcquires->add();
  {
    std::lock_guard<std::mutex> Lock(M);
    if (!Free.empty()) {
      std::unique_ptr<ExecContext> Ctx = std::move(Free.back());
      Free.pop_back();
      if (CReuses)
        CReuses->add();
      return Lease(*this, std::move(Ctx));
    }
  }
  return Lease(*this, std::make_unique<ExecContext>());
}

void ExecContextPool::bindStats(support::StatsRegistry *Reg) {
  if (!Reg) {
    CAcquires = CReuses = nullptr;
    return;
  }
  CAcquires = &Reg->counter("interp.ctx_acquires");
  CReuses = &Reg->counter("interp.ctx_reuses");
}

size_t ExecContextPool::idleCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Free.size();
}

void ExecContextPool::release(std::unique_ptr<ExecContext> Ctx) {
  std::lock_guard<std::mutex> Lock(M);
  Free.push_back(std::move(Ctx));
}
