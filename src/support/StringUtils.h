//===-- support/StringUtils.h - Small string helpers -------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String helpers shared by the frontend, the table printers, and tests.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_SUPPORT_STRINGUTILS_H
#define EOE_SUPPORT_STRINGUTILS_H

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace eoe {

/// Splits \p Text on \p Sep; empty fields are preserved.
std::vector<std::string> splitString(std::string_view Text, char Sep);

/// Strips ASCII whitespace from both ends of \p Text.
std::string_view trim(std::string_view Text);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string joinStrings(const std::vector<std::string> &Parts,
                        std::string_view Sep);

/// Formats \p Value with at most \p Digits fractional digits, trimming
/// trailing zeros ("1.50" -> "1.5", "2.00" -> "2").
std::string formatDouble(double Value, int Digits);

/// Parses \p Text as a whole decimal number of type \p T no larger than
/// \p Max: digits, with one leading '-' only when \p T is signed, and
/// nothing else -- no '+', whitespace, exponent or suffix. Returns
/// nullopt for any other text and for a number outside [min(T), Max].
/// The command-line front ends parse every numeric flag with it.
template <typename T>
std::optional<T> parseDecimal(std::string_view Text,
                              T Max = std::numeric_limits<T>::max()) {
  static_assert(std::is_integral_v<T>, "parseDecimal parses integers");
  T Value{};
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  if (Ec != std::errc() || Ptr != End || Value > Max)
    return std::nullopt;
  return Value;
}

/// Escapes \p Text for embedding in a JSON string literal (quotes,
/// backslashes, and control characters; no surrounding quotes added).
std::string jsonEscape(std::string_view Text);

/// Converts the ASCII string \p Text into its character codes, one int64
/// per character. Used to feed textual inputs to Siml programs, whose only
/// value type is int64.
std::vector<int64_t> encodeString(std::string_view Text);

/// Inverse of encodeString for values in the printable range; values
/// outside [32, 126] are rendered as "\xNN".
std::string decodeString(const std::vector<int64_t> &Codes);

} // namespace eoe

#endif // EOE_SUPPORT_STRINGUTILS_H
