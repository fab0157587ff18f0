//===-- interp/ExecContext.h - Reusable execution state ----------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-run mutable interpreter state, extracted from the interpreter so
/// that (a) concurrent switched re-executions share nothing mutable and
/// (b) the allocations a run churns through -- activation records, shadow
/// last-writer tables, instance counters -- are recycled across runs
/// instead of being malloc'd fresh every time. The demand-driven verifier
/// issues thousands of switched re-executions over the same program; an
/// ExecContext turns each run's setup into a handful of O(1)-amortized
/// buffer clears.
///
/// ExecContext is single-threaded: one context serves one run at a time.
/// ExecContextPool is the thread-safe arena handing contexts to the
/// verifier's re-executions, from whichever thread asks (acquire returns
/// an RAII lease; releasing returns the context, with its grown buffers,
/// to the freelist).
///
//===----------------------------------------------------------------------===//

#ifndef EOE_INTERP_EXECCONTEXT_H
#define EOE_INTERP_EXECCONTEXT_H

#include "interp/Trace.h"
#include "support/Ids.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace eoe {

namespace lang {
class Function;
}

namespace support {
class StatCounter;
class StatsRegistry;
}

namespace interp {

/// One activation record. Lives here (not in the interpreter's .cpp) so
/// the context can pool frames across runs; the vectors keep their
/// capacity through recycling.
struct ExecFrame {
  uint64_t Serial = 0;
  const lang::Function *Func = nullptr;
  std::vector<int64_t> Mem;
  std::vector<TraceIdx> LastDef;
  int64_t RetVal = 0;
  TraceIdx RetValDef = InvalidId;
  /// The instance of the calling statement; InvalidId for main.
  TraceIdx CallSite = InvalidId;
  /// Most recent instance of each predicate executed in this invocation,
  /// used to resolve dynamic control-dependence parents: one entry per
  /// predicate of Func, indexed by StaticAnalysis::predicateSlot
  /// (InvalidId until the predicate executes).
  std::vector<TraceIdx> LastPredInstance;
};

/// Reusable buffers for one interpreter run. Not thread-safe; lease one
/// per concurrent run from an ExecContextPool.
class ExecContext {
public:
  /// Resets the global-memory and instance-count buffers for a program
  /// with \p StmtCount statements and \p GlobalSlots global memory slots.
  void beginRun(size_t StmtCount, size_t GlobalSlots);

  /// Pops a cleared frame from the freelist (or makes a fresh one).
  ExecFrame takeFrame();

  /// Returns a finished frame to the freelist, keeping its capacity.
  void recycleFrame(ExecFrame &&F);

  /// Records a finished run's logical step, use and def counts; the next
  /// run reserves its arrays up front instead of growth-doubling through
  /// them (a resumed run, which records only its suffix, reserves the
  /// share past its resume point).
  void noteTraceSize(size_t Steps, size_t Uses, size_t Defs);

  /// Reservation hints for ExecutionTrace::Steps / Uses / Defs (0 on a
  /// fresh context).
  size_t stepsHint() const { return StepsHint; }
  size_t usesHint() const { return UsesHint; }
  size_t defsHint() const { return DefsHint; }

  // Shadow state the engine works on directly.
  std::vector<int64_t> GlobalMem;
  std::vector<TraceIdx> GlobalLastDef;
  std::vector<uint32_t> InstCount;

  /// Open step records of suspended call statements (see
  /// ExecutionTrace's layout notes): their uses and definitions so far,
  /// stacked innermost last, and where each record's entries start.
  std::vector<UseRecord> HeldUses;
  std::vector<DefRecord> HeldDefs;
  std::vector<std::pair<size_t, size_t>> HeldStarts;

  /// Argument values of the calls whose arguments are being evaluated,
  /// innermost last; empty at every capture, a clean instant (see
  /// Checkpoint.h).
  std::vector<int64_t> ArgStack;

private:
  std::vector<ExecFrame> FreeFrames;
  size_t StepsHint = 0;
  size_t UsesHint = 0;
  size_t DefsHint = 0;
};

/// Thread-safe arena of ExecContexts. Contexts are created on demand and
/// recycled on release, so steady-state verification runs with at most
/// one context per concurrent run (one, under locateFault) and no per-run
/// allocation of the shadow state.
class ExecContextPool {
public:
  /// RAII lease; returns the context to the pool on destruction.
  class Lease {
  public:
    Lease(ExecContextPool &Pool, std::unique_ptr<ExecContext> Ctx)
        : Pool(&Pool), Ctx(std::move(Ctx)) {}
    Lease(Lease &&) = default;
    Lease &operator=(Lease &&) = default;
    Lease(const Lease &) = delete;
    Lease &operator=(const Lease &) = delete;
    ~Lease() {
      if (Ctx)
        Pool->release(std::move(Ctx));
    }

    ExecContext &operator*() { return *Ctx; }
    ExecContext *operator->() { return Ctx.get(); }

  private:
    ExecContextPool *Pool;
    std::unique_ptr<ExecContext> Ctx;
  };

  Lease acquire();

  /// Number of idle contexts currently pooled (for tests).
  size_t idleCount() const;

  /// Starts recording acquisitions and freelist reuses into \p Reg
  /// (interp.ctx_acquires / interp.ctx_reuses). Call before handing the
  /// pool to concurrent users.
  void bindStats(support::StatsRegistry *Reg);

private:
  void release(std::unique_ptr<ExecContext> Ctx);

  mutable std::mutex M;
  std::vector<std::unique_ptr<ExecContext>> Free;
  support::StatCounter *CAcquires = nullptr;
  support::StatCounter *CReuses = nullptr;
};

} // namespace interp
} // namespace eoe

#endif // EOE_INTERP_EXECCONTEXT_H
