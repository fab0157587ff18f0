//===-- slicing/Confidence.h - Confidence analysis ---------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Confidence analysis ("Pruning dynamic slices with confidence",
/// PLDI'06), the pruning engine the paper's demand-driven procedure calls
/// PruneSlicing(). Each instance in the dynamic slice of the wrong output
/// receives a confidence in [0,1]:
///
///  - 1 when the instance's produced value is *inferred correct*: it
///    reaches a known-correct output (or a user-declared benign value)
///    through a chain of one-to-one mappings (see Invertibility.h), like
///    Figure 4's "b = a % 2 printed correctly => b's def is correct";
///  - 0 when the instance reaches only the wrong output;
///  - an intermediate value, increasing with the statement's observed
///    value range, when it reaches a correct output through a
///    many-to-one mapping (the "a = 1" of Figure 4: alt cannot be ruled
///    out, confidence estimated from the value profile).
///
/// Instances with confidence 1 are pruned; the remainder is ranked most
/// suspicious first (low confidence, then short dependence distance to
/// the failure).
///
/// Verified implicit dependence edges participate (paper Figure 5): when
/// every implicit dependent of a predicate instance is inferred correct,
/// the predicate is considered correct too -- this is exactly why the
/// demand-driven algorithm verifies p -> t for all t in PD^-1(p), and it
/// is safe only because the edges are verified, not merely potential
/// (section 3.2's "sanitizes the root cause" discussion).
///
//===----------------------------------------------------------------------===//

#ifndef EOE_SLICING_CONFIDENCE_H
#define EOE_SLICING_CONFIDENCE_H

#include "ddg/DepGraph.h"
#include "interp/Profiler.h"
#include "lang/AST.h"
#include "slicing/OutputVerdicts.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace eoe {
namespace slicing {

/// Confidence values and the pruned, ranked fault candidate set.
///
/// The constructor derives everything from scratch. After that the
/// analysis is only updated: it absorbs single oracle answers
/// (markBenign, markCorrupted) and, through update(), the implicit edges
/// added to the graph since. Each step leaves exactly the state a fresh
/// analysis with the current edges, marks and pins would have: a benign
/// mark only adds correctness facts, a pin on an instance not inferred
/// correct changes nothing, and edges only grow the closures and change
/// nothing before the Figure 5 rule. So no answer and no edge forces
/// rework of what is already known.
class ConfidenceAnalysis {
public:
  struct Options {
    /// Figure 5 mechanism: let inferred-correct implicit dependents
    /// sanitize their predicate. Disable to ablate.
    bool PropagateAcrossImplicit = true;
  };

  /// Builds the analysis against the graph's current edges and the
  /// user's benign marks (instances whose state the user vouched for).
  /// \p Values may be null (ranges then default to "unknown, small").
  /// \p Corrupted pins instances the user declared corrupted: they are
  /// never inferred correct, even when the values they *read* are. This
  /// matters precisely for execution omission errors, where a stale
  /// definition carries a locally-correct value to a point that should
  /// have received a different definition altogether. The wrong output
  /// instance is always pinned.
  ConfidenceAnalysis(const lang::Program &Prog, const ddg::DepGraph &G,
                     const interp::ValueProfile *Values,
                     const OutputVerdicts &V, Options Opts,
                     const std::vector<TraceIdx> &BenignMarks = {},
                     const std::set<TraceIdx> &Corrupted = {});

  /// Same, with default options and no answers.
  ConfidenceAnalysis(const lang::Program &Prog, const ddg::DepGraph &G,
                     const interp::ValueProfile *Values,
                     const OutputVerdicts &V)
      : ConfidenceAnalysis(Prog, G, Values, V, Options()) {}

  /// Absorbs the implicit edges added to the graph since the last call
  /// (or the construction): extends both closures from the new edges,
  /// re-derives the Figure 5 fixpoint -- the only verdicts edges can
  /// change -- and re-ranks. Free when no edge was added. Call it after
  /// adding edges and before the next answer.
  void update();

  /// Adds the benign mark \p I to the current state. Propagates only
  /// from \p I's definitions, re-evaluates only the instances whose
  /// verdict the new facts can change, and drops the newly-correct
  /// instances from the ranking, whose order is otherwise kept: a
  /// candidate's sort key never depends on other instances' verdicts.
  void markBenign(TraceIdx I);

  /// Pins \p I as corrupted in the current state. Free when \p I is not
  /// inferred correct -- every candidate of prunedSlice() -- because the
  /// inference is a least fixpoint that never needed \p I to be correct.
  /// Pinning a correct instance falls back to a from-scratch inference.
  void markCorrupted(TraceIdx I);

  /// The trace the analysis ranges over.
  const interp::ExecutionTrace &trace() const { return G.trace(); }

  /// Confidence of \p I in [0,1]; 1 outside the wrong output's slice.
  double confidence(TraceIdx I) const;

  /// True if \p I's produced value was inferred correct (confidence 1).
  bool inferredCorrect(TraceIdx I) const { return Correct[I]; }

  /// Membership bitset of the dynamic slice of the wrong output under
  /// the edges absorbed so far (including implicit ones).
  const std::vector<bool> &wrongOutputSlice() const { return WrongSlice; }

  /// The pruned slice: instances of the wrong output's slice that are
  /// still fault candidates, most suspicious first.
  const std::vector<TraceIdx> &prunedSlice() const { return Ranked; }

private:
  /// Pending backward-propagation items: an instance whose definition
  /// was verified, paired with the expression that produced it.
  using PropagationWork =
      std::vector<std::pair<TraceIdx, const lang::Expr *>>;

  static constexpr uint32_t NoSlot = UINT32_MAX;

  /// The slot of the definition of \p LocRaw by instance \p Def, or
  /// NoSlot when \p Def does not define it.
  uint32_t defSlot(TraceIdx Def, uint64_t LocRaw) const;
  bool defCorrect(TraceIdx Def, uint64_t LocRaw) const {
    uint32_t Slot = defSlot(Def, LocRaw);
    return Slot != NoSlot && DefCorrect[Slot];
  }

  /// Verifies one definition and queues its producing expression for
  /// backward propagation. When \p Affected is given, it receives the
  /// instances whose verdict the new fact can change.
  void markDefCorrect(TraceIdx Def, uint64_t LocRaw, PropagationWork &Work,
                      std::vector<TraceIdx> *Affected);
  void seedBenign(TraceIdx B, PropagationWork &Work,
                  std::vector<TraceIdx> *Affected);
  void propagate(PropagationWork &Work, std::vector<TraceIdx> *Affected);
  /// The instance-level verdict from the verified definitions, marks and
  /// pins, before the Figure 5 rule.
  bool verdict(TraceIdx I) const;
  /// Figure 5 to a fixpoint, starting from the newly-correct instances
  /// in \p Work.
  void sanitizePredicates(std::vector<TraceIdx> &Work);
  /// Figure 5 from scratch over the current edges: resets every
  /// predicate with an implicit dependent to its verdict and sanitizes
  /// from every correct dependent.
  void rederiveSanitized();
  void inferCorrectValues();
  void rank();

  const lang::Program &Prog;
  const ddg::DepGraph &G;
  const interp::ValueProfile *Values;
  const OutputVerdicts &V;
  Options Opts;

  /// (key, instance) pairs sorted by key; keyed(K) is K's instances.
  struct Adjacency {
    std::vector<std::pair<uint32_t, TraceIdx>> Pairs;
    void sort() { std::sort(Pairs.begin(), Pairs.end()); }
    auto keyed(uint32_t Key) const {
      return std::ranges::equal_range(Pairs, Key, {},
                                      &std::pair<uint32_t, TraceIdx>::first);
    }
  };

  // Per trace, built once: instance I's definitions occupy the slots
  // DefBegin[I] .. DefBegin[I+1]-1, and PrintReaders maps a slot to the
  // print instances whose verdict reads that definition.
  std::vector<uint32_t> DefBegin;
  Adjacency PrintReaders;

  // Updated by every edge: the closures and the verified implicit edges
  // by predicate (the graph indexes them by dependent). EdgesSeen counts
  // the graph's edges absorbed so far.
  size_t EdgesSeen = 0;
  std::vector<bool> WrongSlice;
  std::vector<uint32_t> Depth;
  std::vector<bool> ReachesCorrect;
  Adjacency ImplicitDependents;

  // Updated by every answer.
  std::vector<bool> UserBenign;
  std::vector<bool> Pinned;     // user-declared corrupted, and the wrong output
  std::vector<bool> DefCorrect; // per definition slot
  std::vector<bool> Correct;    // inferred correct per instance
  std::vector<TraceIdx> Ranked;
};

} // namespace slicing
} // namespace eoe

#endif // EOE_SLICING_CONFIDENCE_H
