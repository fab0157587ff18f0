//===-- core/VerifyScheduler.cpp - Batched parallel verification --------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "core/VerifyScheduler.h"

using namespace eoe;
using namespace eoe::core;

std::vector<DepVerdict>
VerifyScheduler::verifyBatch(const std::vector<VerifyRequest> &Batch) {
  if (!Batch.empty()) {
    if (!CBatches) {
      support::StatsRegistry &Reg = Verifier.stats();
      CBatches = &Reg.counter("verify.batches");
      CBatchRequests = &Reg.counter("verify.batch_requests");
      HBatchSize = &Reg.histogram("verify.batch_size");
    }
    CBatches->add();
    CBatchRequests->add(Batch.size());
    HBatchSize->record(Batch.size());
  }
  support::EventTracer::Span BatchSpan(
      Batch.empty() ? nullptr : Verifier.tracer(), "verify.batch", "verify");

  // Phase 1: warm the switched-run cache concurrently. Only predicates
  // without a cached run re-execute -- the same set the serial engine
  // would have re-executed while walking this batch one by one (a cached
  // *verdict* implies a cached run, so no request can demand a run the
  // serial sweep would have skipped).
  if (Batch.size() > 1 && parallel()) {
    std::vector<TraceIdx> Preds;
    Preds.reserve(Batch.size());
    for (const VerifyRequest &R : Batch)
      Preds.push_back(R.PredInst);
    Verifier.prepareSwitchedRuns(Preds);
  }

  // Phase 2: deterministic join -- verdicts in original request order.
  // Every switched run is now cached, so this is pure (cheap) alignment
  // queries and classification on the calling thread.
  std::vector<DepVerdict> Out;
  Out.reserve(Batch.size());
  for (const VerifyRequest &R : Batch)
    Out.push_back(Verifier.verify(R.PredInst, R.UseInst, R.UseLoad));
  return Out;
}
