//===-- core/VerifyScheduler.h - Batched parallel verification ---*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batched scheduling for implicit-dependence verification. The
/// verifications inside one expansion round of the paper's Algorithm 2
/// -- the candidate set PD(u) of the selected use, and the fan-out set
/// p -> t of the winning predicates -- are mutually independent: each
/// depends only on (program, input, switched predicate instance). The
/// scheduler exploits that:
///
///   1. collect a whole round's verification requests into a batch;
///   2. deduplicate against the verifier's switched-run cache, so one
///      re-execution still serves every use tested against the same
///      predicate instance;
///   3. run the missing switched re-executions and their alignments
///      concurrently on the verifier's thread pool;
///   4. join, then compute the verdicts serially in the original request
///      order against the now-warm cache.
///
/// Step 4 is what makes the parallel engine *deterministic*: verdicts,
/// LocateReport counters, expanded-edge order, and the final IPS are
/// bit-identical to the serial engine at any thread count (see
/// docs/parallelism.md). With no pool configured the scheduler
/// degenerates to the plain serial loop.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_CORE_VERIFYSCHEDULER_H
#define EOE_CORE_VERIFYSCHEDULER_H

#include "core/VerifyDep.h"

#include <vector>

namespace eoe {
namespace core {

/// One VerifyDep(p, u) request: does the use at (UseInst, UseLoad)
/// implicitly depend on predicate instance PredInst?
struct VerifyRequest {
  TraceIdx PredInst = InvalidId;
  TraceIdx UseInst = InvalidId;
  ExprId UseLoad = InvalidId;
};

/// Schedules batches of verification requests onto a verifier.
class VerifyScheduler {
public:
  explicit VerifyScheduler(ImplicitDepVerifier &Verifier)
      : Verifier(Verifier) {}

  /// True when batches actually fan out onto a pool (the verifier is
  /// configured with more than one thread).
  bool parallel() { return Verifier.pool() != nullptr; }

  /// Verifies the whole batch; Out[i] is the verdict for Batch[i].
  /// Re-executions for distinct uncached predicates run concurrently;
  /// results are joined in request order. Equivalent to calling
  /// Verifier.verify() element by element, including the effect on the
  /// Verifications / Reexecutions counters. Call from one thread at a
  /// time.
  std::vector<DepVerdict> verifyBatch(const std::vector<VerifyRequest> &Batch);

private:
  ImplicitDepVerifier &Verifier;
  /// Metric handles, resolved by the first non-empty batch (until then
  /// the keys stay unregistered).
  support::StatCounter *CBatches = nullptr;
  support::StatCounter *CBatchRequests = nullptr;
  support::StatHistogram *HBatchSize = nullptr;
};

} // namespace core
} // namespace eoe

#endif // EOE_CORE_VERIFYSCHEDULER_H
