//===-- slicing/Pruning.h - Interactive slice pruning ------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interactive PruneSlicing() procedure of the paper's Algorithm 2:
/// the system presents fault-candidate instances in rank order and the
/// programmer (an Oracle here) declares each benign or corrupted; benign
/// answers feed back into the confidence analysis until every remaining
/// instance is known corrupted -- the minimal pruned slice.
///
/// The experiment driver implements the Oracle with the paper's own
/// evaluation protocol: instances outside the manually-identified
/// failure-inducing chain (OS) are benign.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_SLICING_PRUNING_H
#define EOE_SLICING_PRUNING_H

#include "slicing/Confidence.h"
#include "support/Stats.h"

#include <vector>

namespace eoe {
namespace slicing {

/// The programmer in the loop.
class Oracle {
public:
  virtual ~Oracle() = default;

  /// True if the program state produced by instance \p I is correct.
  virtual bool isBenign(TraceIdx I) = 0;

  /// True if statement \p S is the fault's root cause. Drives Algorithm
  /// 2's "while the root cause is not found".
  virtual bool isRootCause(StmtId S) = 0;
};

/// State carried across pruning rounds (oracle answers are remembered so
/// re-pruning after slice expansion does not re-ask).
struct PruneState {
  std::vector<TraceIdx> BenignMarks;
  /// Per instance: declared corrupted. The first session sizes it to
  /// the trace.
  std::vector<bool> KnownCorrupted;
  /// Per statement: vouched for by the user (a user interaction reasons
  /// at statement granularity even though marks apply per instance).
  /// Grown to the largest statement vouched for.
  std::vector<bool> BenignStmts;
  /// Number of distinct statements declared benign (Table 3's
  /// "# of user prunings"; see EXPERIMENTS.md on granularity).
  size_t UserPrunings = 0;
  /// Whether the last session's slice holds an instance of the root
  /// cause.
  bool RootCauseFound = false;
};

/// Runs one interactive pruning session: updates \p CA with the implicit
/// edges added since the last session, asks the oracle about unresolved
/// candidates in rank order -- folding each answer into \p CA -- and
/// stops when the root cause is among the candidates or every remaining
/// candidate is known corrupted. Returns the pruned slice, most
/// suspicious first, and sets State.RootCauseFound. A cursor walks
/// CA.rankOrder() once, skipping the known-corrupted candidates and the
/// instances answers made correct, and passing each instance it asks
/// about, so the oracle is asked about an instance at most once per
/// session. A benign answer about a pinned instance, such as the wrong
/// output, cannot make it correct: the instance stays in the returned
/// slice, and the session moves on.
///
/// \p CA must already hold the answers in \p State: pass a fresh
/// analysis with a fresh PruneState, and then the same pair to every
/// later session. When \p Stats is given, records the session's cost
/// (slicing.prune_rounds -- one per call --, slicing.update_time,
/// slicing.oracle_queries, slicing.benign_marks, slicing.corrupted_marks)
/// and the returned slice size (slicing.pruned_slice_size histogram).
std::vector<TraceIdx> pruneSlicing(ConfidenceAnalysis &CA, Oracle &O,
                                   PruneState &State,
                                   support::StatsRegistry *Stats = nullptr);

} // namespace slicing
} // namespace eoe

#endif // EOE_SLICING_PRUNING_H
