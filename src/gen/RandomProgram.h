//===-- gen/RandomProgram.h - Random Siml program generator ----*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded generator of well-formed, terminating, runtime-error-free
/// Siml programs for property testing. Structural guarantees:
///  - every while loop uses a dedicated counter with a literal bound and
///    exactly one increment, so all executions terminate;
///  - array accesses index with `counter % size` (counters are
///    non-negative), so no run can go out of bounds;
///  - division/modulo only by positive literals, so no run can trap;
///  - every program prints at least one value and contains predicates.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_GEN_RANDOMPROGRAM_H
#define EOE_GEN_RANDOMPROGRAM_H

#include "support/RNG.h"

#include <string>
#include <vector>

namespace eoe {
namespace gen {

/// Generates one random program per seed.
class RandomProgramGenerator {
public:
  explicit RandomProgramGenerator(uint64_t Seed) : Rng(Seed) {}

  /// Returns the program source. Deterministic per seed.
  std::string generate() {
    Source.clear();
    Scalars = {"g0", "g1"};
    Counters.clear();
    LoopDepth = 0;

    emit("var g0 = " + std::to_string(Rng.nextInRange(-5, 9)) + ";");
    emit("var g1 = " + std::to_string(Rng.nextInRange(0, 7)) + ";");
    emit("var arr[" + std::to_string(ArraySize) + "];");

    // A helper function exercising calls, params, and returns.
    emit("fn mix(a, b) {");
    emit("if (a > b) {");
    emit("return a - b;");
    emit("}");
    emit("return a + b * 2;");
    emit("}");

    emit("fn main() {");
    size_t NumLocals = 2 + Rng.nextBelow(3);
    for (size_t I = 0; I < NumLocals; ++I) {
      // Appended rather than `"v" + std::to_string(I)`: GCC 12 reports a
      // false -Wrestrict for that concatenation.
      std::string Name = "v";
      Name += std::to_string(I);
      emit("var " + Name + " = " + expr(2) + ";");
      Scalars.push_back(Name);
    }
    body(3 + Rng.nextBelow(5), /*Depth=*/0);
    emit("print(" + rvalue() + ");");
    emit("print(g0 + g1);");
    emit("}");
    return Source;
  }

  /// A matching random input vector (for the input() expressions).
  std::vector<int64_t> input(size_t Len = 8) {
    std::vector<int64_t> In;
    for (size_t I = 0; I < Len; ++I)
      In.push_back(Rng.nextInRange(-9, 20));
    return In;
  }

  /// A generated program pair differing in one line: the faulty variant
  /// silences a guard, omitting an update of an observed global -- a
  /// synthetic execution omission error embedded in random surroundings.
  struct OmissionVariant {
    std::string FixedSource;
    std::string FaultySource;
    uint32_t RootCauseLine = 0;
    /// Inputs are all positive so the guard is taken in the fixed run
    /// regardless of where its input() lands in the stream.
    std::vector<int64_t> Input;
  };

  /// Generates a random program with an injected omission fault. The
  /// fault's state lives in dedicated globals the random surroundings
  /// never touch: this keeps the two variants' control flow (and hence
  /// their input-stream consumption) identical outside the skeleton, so
  /// the failure is always a clean wrong *value* at the trailing print --
  /// the paper's problem shape -- rather than an input-position artifact.
  ///
  /// When \p Entangled, the failing print also adds up every scalar of
  /// the surroundings, so the failure's dynamic slice reaches deep into
  /// them: many fault candidates, most of them benign -- the subject for
  /// pruning fuzzing. The seed's random draws are the same either way.
  OmissionVariant generateOmission(bool Entangled = false) {
    OmissionVariant Out;

    std::string Body = generate();

    const std::string Anchor = "fn main() {\n";
    size_t Pos = Body.find(Anchor) + Anchor.size();
    std::string FixedGuard = "var omflag = input() > 0;\n";
    std::string FaultyGuard = "var omflag = input() > 9999;\n";
    std::string Skeleton = "if (omflag) {\n"
                           "omsum = omsum + 7;\n"
                           "}\n";
    std::string Globals = "var omsum = 3;\n";
    size_t LastBrace = Body.rfind('}');
    std::string Trailer = "print(omsum";
    if (Entangled)
      for (const std::string &Scalar : Scalars)
        Trailer += " + " + Scalar;
    Trailer += ");\n";

    auto Assemble = [&](const std::string &Guard) {
      std::string S = Globals + Body.substr(0, Pos) + Guard + Skeleton;
      S += Body.substr(Pos, LastBrace - Pos) + Trailer;
      S += Body.substr(LastBrace);
      return S;
    };
    Out.FixedSource = Assemble(FixedGuard);
    Out.FaultySource = Assemble(FaultyGuard);

    // The guard sits right after the injected global and main's opener.
    Out.RootCauseLine = 2;
    for (size_t I = 0; I < Pos; ++I)
      if (Body[I] == '\n')
        ++Out.RootCauseLine;

    for (size_t I = 0; I < 8; ++I)
      Out.Input.push_back(Rng.nextInRange(1, 20));
    return Out;
  }

private:
  static constexpr int ArraySize = 8;

  void emit(const std::string &Line) {
    Source += Line;
    Source += '\n';
  }

  std::string rvalue() {
    switch (Rng.nextBelow(4)) {
    case 0:
      return std::to_string(Rng.nextInRange(-6, 12));
    case 1:
      return Scalars[Rng.nextBelow(Scalars.size())];
    case 2:
      if (!Counters.empty())
        return "arr[" + Counters[Rng.nextBelow(Counters.size())] + " % " +
               std::to_string(ArraySize) + "]";
      return Scalars[Rng.nextBelow(Scalars.size())];
    default:
      return "input()";
    }
  }

  std::string expr(int Depth) {
    if (Depth <= 0 || Rng.chance(1, 3))
      return rvalue();
    static const char *Ops[] = {"+", "-", "*", "<", "==", ">", "%", "/"};
    std::string Op = Ops[Rng.nextBelow(8)];
    if (Op == "%" || Op == "/")
      return "(" + expr(Depth - 1) + " " + Op + " " +
             std::to_string(Rng.nextInRange(2, 9)) + ")";
    if (Op == "*")
      return "(" + expr(Depth - 1) + " * " +
             std::to_string(Rng.nextInRange(1, 3)) + ")";
    return "(" + expr(Depth - 1) + " " + Op + " " + expr(Depth - 1) + ")";
  }

  void statement(int Depth) {
    switch (Rng.nextBelow(6)) {
    case 0: { // scalar assignment
      emit(Scalars[Rng.nextBelow(Scalars.size())] + " = " + expr(2) + ";");
      return;
    }
    case 1: { // array store (safe index)
      std::string Index =
          Counters.empty()
              ? std::to_string(Rng.nextBelow(ArraySize))
              : Counters[Rng.nextBelow(Counters.size())] + " % " +
                    std::to_string(ArraySize);
      emit("arr[" + Index + "] = " + expr(2) + ";");
      return;
    }
    case 2: { // if/else
      emit("if (" + expr(2) + ") {");
      body(1 + Rng.nextBelow(2), Depth + 1);
      if (Rng.chance(1, 2)) {
        emit("} else {");
        body(1 + Rng.nextBelow(2), Depth + 1);
      }
      emit("}");
      return;
    }
    case 3: { // bounded loop
      if (LoopDepth >= 2) {
        emit("print(" + rvalue() + ");");
        return;
      }
      std::string Counter = "c" + std::to_string(NextCounterId++);
      int Bound = static_cast<int>(1 + Rng.nextBelow(4));
      emit("var " + Counter + " = 0;");
      emit("while (" + Counter + " < " + std::to_string(Bound) + ") {");
      Counters.push_back(Counter);
      ++LoopDepth;
      body(1 + Rng.nextBelow(2), Depth + 1);
      emit(Counter + " = " + Counter + " + 1;");
      emit("}");
      --LoopDepth;
      Counters.pop_back();
      return;
    }
    case 4: // call
      emit(Scalars[Rng.nextBelow(Scalars.size())] + " = mix(" + rvalue() +
           ", " + rvalue() + ");");
      return;
    default:
      emit("print(" + rvalue() + ");");
      return;
    }
  }

  void body(size_t Count, int Depth) {
    for (size_t I = 0; I < Count; ++I)
      statement(Depth);
  }

  RNG Rng;
  std::string Source;
  std::vector<std::string> Scalars;
  std::vector<std::string> Counters;
  int LoopDepth = 0;
  unsigned NextCounterId = 0;
};

} // namespace gen
} // namespace eoe

#endif // EOE_GEN_RANDOMPROGRAM_H
