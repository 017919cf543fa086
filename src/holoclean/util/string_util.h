#ifndef HOLOCLEAN_UTIL_STRING_UTIL_H_
#define HOLOCLEAN_UTIL_STRING_UTIL_H_

#include <cstddef>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "holoclean/util/status.h"

namespace holoclean {

/// Splits `input` on `delim`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view input, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// ASCII lower-casing (data values in this library are ASCII by convention).
std::string ToLower(std::string_view s);

/// True when `s` parses fully as a finite double.
bool IsNumeric(std::string_view s);

/// Parses `s` as double; returns `fallback` when not numeric.
double ParseDoubleOr(std::string_view s, double fallback);

/// Checked parse of an untrusted number, e.g. a command-line flag value:
/// all of `s` must be one T in [min, max] — no surrounding whitespace, no
/// trailing characters, no sign on unsigned types, no overflow, no NaN or
/// infinity. Otherwise returns InvalidArgument naming `what` and the
/// accepted range. Instantiated for int, long, long long, unsigned long,
/// unsigned long long and double.
template <typename T>
Result<T> ParseNumber(std::string_view what, std::string_view s,
                      T min = std::numeric_limits<T>::lowest(),
                      T max = std::numeric_limits<T>::max());

/// Levenshtein edit distance between `a` and `b`.
size_t EditDistance(std::string_view a, std::string_view b);

/// Normalized similarity in [0,1]: 1 - dist/max(|a|,|b|); 1.0 for two empty
/// strings. Used for the ≈ (similarity) predicate in denial constraints and
/// for approximate dictionary matching.
double Similarity(std::string_view a, std::string_view b);

/// Case/whitespace-insensitive canonical form used by the similarity matcher.
std::string NormalizeForMatch(std::string_view s);

}  // namespace holoclean

#endif  // HOLOCLEAN_UTIL_STRING_UTIL_H_
