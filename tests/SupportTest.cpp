//===-- tests/SupportTest.cpp - Support library unit tests --------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostic.h"
#include "support/Options.h"
#include "support/RNG.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace eoe;

namespace {

TEST(StringUtilsTest, SplitPreservesEmptyFields) {
  EXPECT_EQ(splitString("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(splitString(",a,", ','),
            (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(splitString("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilsTest, TrimStripsBothEnds) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("z"), "z");
}

TEST(StringUtilsTest, JoinInterleavesSeparator) {
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(joinStrings({}, ","), "");
  EXPECT_EQ(joinStrings({"only"}, ","), "only");
}

TEST(StringUtilsTest, FormatDoubleTrimsTrailingZeros) {
  EXPECT_EQ(formatDouble(1.5, 2), "1.5");
  EXPECT_EQ(formatDouble(2.0, 2), "2");
  EXPECT_EQ(formatDouble(0.123456, 3), "0.123");
  EXPECT_EQ(formatDouble(-3.10, 2), "-3.1");
}

TEST(StringUtilsTest, EncodeDecodeRoundTripsPrintableText) {
  std::string Text = "Hello, Siml! 123";
  std::vector<int64_t> Codes = encodeString(Text);
  ASSERT_EQ(Codes.size(), Text.size());
  EXPECT_EQ(decodeString(Codes), Text);
}

TEST(StringUtilsTest, DecodeEscapesNonPrintable) {
  EXPECT_EQ(decodeString({10}), "\\x0a");
  EXPECT_EQ(decodeString({'A', 0}), "A\\x00");
}

TEST(StringUtilsTest, ParseDecimalReadsWholeNumbers) {
  EXPECT_EQ(parseDecimal<uint64_t>("0"), 0u);
  EXPECT_EQ(parseDecimal<uint64_t>("3000000000"), 3000000000u);
  EXPECT_EQ(parseDecimal<uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parseDecimal<uint32_t>("007"), 7u);
  EXPECT_EQ(parseDecimal<int64_t>("-7"), -7);
  EXPECT_EQ(parseDecimal<int64_t>("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(parseDecimal<unsigned>("10", 10u), 10u);
}

TEST(StringUtilsTest, ParseDecimalRejectsEverythingElse) {
  // Garbage, and trailing junk after a prefix strtoul would have taken.
  for (const char *Bad : {"", "-", "abc", "3e9", "12abc", "0x10", "1.5",
                          " 5", "5 ", "+5", "1,2"}) {
    EXPECT_FALSE(parseDecimal<uint64_t>(Bad)) << "'" << Bad << "'";
    EXPECT_FALSE(parseDecimal<int64_t>(Bad)) << "'" << Bad << "'";
  }
  // Negatives where the type is unsigned.
  EXPECT_FALSE(parseDecimal<uint64_t>("-1"));
  EXPECT_FALSE(parseDecimal<unsigned>("-0"));
  // Overflow of the type, either way, and a value above the caller's Max.
  EXPECT_FALSE(parseDecimal<uint64_t>("18446744073709551616"));
  EXPECT_FALSE(parseDecimal<uint32_t>("4294967296"));
  EXPECT_FALSE(parseDecimal<int64_t>("9223372036854775808"));
  EXPECT_FALSE(parseDecimal<int64_t>("-9223372036854775809"));
  EXPECT_FALSE(parseDecimal<unsigned>("11", 10u));
}

/// Offers the flag tokens \p Args to parseCommonOption as argv[1..];
/// \p Next is left at the index the parser stopped on.
support::ParseResult parseFlag(std::vector<std::string> Args, Options &O,
                               int &Next) {
  Args.insert(Args.begin(), "prog");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Next = 1;
  return support::parseCommonOption(static_cast<int>(Argv.size()),
                                    Argv.data(), Next, O);
}

support::ParseResult parseFlag(std::vector<std::string> Args, Options &O) {
  int Next = 0;
  return parseFlag(std::move(Args), O, Next);
}

TEST(CommonOptionsTest, AcceptsBothFlagForms) {
  using support::ParseResult;
  Options O;
  int Next = 0;
  EXPECT_EQ(parseFlag({"--max-steps=123"}, O, Next), ParseResult::Ok);
  EXPECT_EQ(O.Exec.MaxSteps, 123u);
  EXPECT_EQ(Next, 1);
  EXPECT_EQ(parseFlag({"--max-steps", "456", "rest"}, O, Next),
            ParseResult::Ok);
  EXPECT_EQ(O.Exec.MaxSteps, 456u);
  EXPECT_EQ(Next, 2); // The value token is consumed.

  EXPECT_EQ(parseFlag({"--checkpoints=off"}, O), ParseResult::Ok);
  EXPECT_FALSE(O.Reuse.Checkpoints);
  EXPECT_EQ(parseFlag({"--checkpoints", "auto"}, O), ParseResult::Ok);
  EXPECT_TRUE(O.Reuse.Checkpoints);
  // Checkpointing is on or off: a stride, and the numeric aliases of
  // auto (0) and off (4294967295), are rejected.
  for (const char *Stride : {"7", "0", "4294967295"}) {
    EXPECT_EQ(parseFlag({std::string("--checkpoints=") + Stride}, O),
              ParseResult::Error)
        << Stride;
    EXPECT_TRUE(O.Reuse.Checkpoints);
  }
  EXPECT_EQ(parseFlag({"--checkpoint-mem", "64"}, O), ParseResult::Ok);
  EXPECT_EQ(O.Reuse.CheckpointMemBytes, size_t(64) << 20);
}

TEST(CommonOptionsTest, RejectsMalformedNumbers) {
  using support::ParseResult;
  const Options Defaults;
  for (const char *Flag :
       {"--max-steps", "--checkpoints", "--checkpoint-mem"}) {
    for (const char *Bad : {"", "abc", "3e9", "12x", "-1", " 5",
                            "18446744073709551616"}) {
      Options O;
      EXPECT_EQ(parseFlag({std::string(Flag) + "=" + Bad}, O),
                ParseResult::Error)
          << Flag << "=" << Bad;
      EXPECT_EQ(parseFlag({Flag, Bad}, O), ParseResult::Error)
          << Flag << " " << Bad;
      // A rejected value leaves the field alone.
      EXPECT_EQ(O.Exec.MaxSteps, Defaults.Exec.MaxSteps);
      EXPECT_EQ(O.Reuse.Checkpoints, Defaults.Reuse.Checkpoints);
      EXPECT_EQ(O.Reuse.CheckpointMemBytes, Defaults.Reuse.CheckpointMemBytes);
    }
  }
  Options O;
  // A flag given without its value.
  EXPECT_EQ(parseFlag({"--max-steps"}, O), ParseResult::Error);
}

TEST(CommonOptionsTest, CheckpointMemRejectsAShiftThatOverflows) {
  using support::ParseResult;
  Options O;
  const size_t Largest = SIZE_MAX >> 20; // MiB that still fit in bytes
  EXPECT_EQ(parseFlag({"--checkpoint-mem=" + std::to_string(Largest)}, O),
            ParseResult::Ok);
  EXPECT_EQ(O.Reuse.CheckpointMemBytes, Largest << 20);
  EXPECT_EQ(parseFlag({"--checkpoint-mem=" + std::to_string(Largest + 1)}, O),
            ParseResult::Error);
  EXPECT_EQ(O.Reuse.CheckpointMemBytes, Largest << 20);
}

TEST(RNGTest, DeterministicPerSeed) {
  RNG A(42), B(42), C(43);
  for (int I = 0; I < 100; ++I) {
    uint64_t VA = A.next();
    EXPECT_EQ(VA, B.next());
    (void)C.next();
  }
  RNG D(42), E(43);
  EXPECT_NE(D.next(), E.next());
}

TEST(RNGTest, RangesRespectBounds) {
  RNG Rng(7);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(Rng.nextBelow(10), 10u);
    int64_t V = Rng.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
  }
  EXPECT_EQ(Rng.nextInRange(3, 3), 3);
}

TEST(RNGTest, ChanceIsRoughlyCalibrated) {
  RNG Rng(11);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += Rng.chance(1, 4);
  EXPECT_GT(Hits, 2200);
  EXPECT_LT(Hits, 2800);
}

TEST(DiagnosticTest, CountsAndRendersErrors) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning({1, 2}, "just a warning");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error({3, 4}, "boom");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  std::string Text = Diags.str();
  EXPECT_NE(Text.find("1:2: warning: just a warning"), std::string::npos);
  EXPECT_NE(Text.find("3:4: error: boom"), std::string::npos);
}

TEST(TableTest, AlignsColumnsAndPadsShortRows) {
  Table T({"name", "value"});
  T.addRow({"x", "1"});
  T.addRow({"longer-name"});
  std::string Out = T.str();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\n'), 4);
  EXPECT_NE(Out.find("| name        | value |"), std::string::npos);
  EXPECT_NE(Out.find("| longer-name |       |"), std::string::npos);
}

} // namespace
