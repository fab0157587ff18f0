//===-- core/CriticalPredicate.h - Predicate-switching baseline --*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Automated predicate switching (Zhang, N. Gupta, R. Gupta; ICSE 2006):
/// search for a *critical predicate* -- a predicate instance whose
/// switched execution produces the fully correct output. The PLDI'07
/// paper derives its switching machinery from this technique but uses it
/// "for a different purpose of disclosing implicit dependences" (section
/// 6): a critical predicate merely sits on the failure path, whereas
/// implicit-dependence location chains all the way back to the root
/// cause, and -- as the mini-gzip fault shows -- a single switch often
/// cannot even reproduce the correct output when the omitted branch had
/// several effects.
///
/// Implemented search orders, following the ICSE'06 prioritizations:
///  - LastExecutedFirst (LEFS): instances closest to the failure first;
///  - FirstExecutedFirst: program order (the naive baseline);
///  - DependenceAware (PRIOR): predicates in the wrong output's dynamic
///    slice first (closest first), then the rest.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_CORE_CRITICALPREDICATE_H
#define EOE_CORE_CRITICALPREDICATE_H

#include "ddg/DepGraph.h"
#include "interp/Interpreter.h"
#include "slicing/OutputVerdicts.h"

#include <vector>

namespace eoe {
namespace core {

/// Brute-force critical-predicate search over one failing execution.
class CriticalPredicateSearch {
public:
  enum class Order { LastExecutedFirst, FirstExecutedFirst, DependenceAware };

  struct Config {
    Order SearchOrder = Order::DependenceAware;
    /// Step budget per switched run.
    uint64_t MaxSteps = 2'000'000;
    /// Cap on attempted switches (the technique is brute force).
    size_t MaxSwitches = 100'000;
  };

  struct Result {
    /// True if a critical predicate was found.
    bool Found = false;
    /// The critical predicate instance in the failing trace.
    TraceIdx CriticalInstance = InvalidId;
    /// Switched runs attempted (the cost).
    size_t Switches = 0;
  };

  /// \p E must be the unswitched trace of \p Input; \p Expected is the
  /// full correct output sequence.
  CriticalPredicateSearch(const interp::Interpreter &Interp,
                          const interp::ExecutionTrace &E,
                          std::vector<int64_t> Input,
                          std::vector<int64_t> Expected, Config C);

  /// Runs the search: switches candidate predicate instances one at a
  /// time until some switched run prints exactly the expected outputs.
  Result search() const;

  /// The candidate order the configuration induces (exposed for tests).
  std::vector<TraceIdx> candidateOrder() const;

private:
  const interp::Interpreter &Interp;
  const interp::ExecutionTrace &E;
  std::vector<int64_t> Input;
  std::vector<int64_t> Expected;
  Config C;
};

} // namespace core
} // namespace eoe

#endif // EOE_CORE_CRITICALPREDICATE_H
