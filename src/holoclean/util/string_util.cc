#include "holoclean/util/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <type_traits>

namespace holoclean {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool IsNumeric(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) return false;
  double value = 0.0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  return ec == std::errc() && ptr == end && std::isfinite(value);
}

double ParseDoubleOr(std::string_view s, double fallback) {
  s = StripWhitespace(s);
  double value = 0.0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) return fallback;
  return value;
}

namespace {

template <typename T>
std::string FormatBound(T value) {
  if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", static_cast<double>(value));
    return buf;
  } else {
    return std::to_string(value);
  }
}

}  // namespace

template <typename T>
Result<T> ParseNumber(std::string_view what, std::string_view s, T min,
                      T max) {
  T value{};
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, value);
  // The negated comparison also rejects NaN.
  if (ec != std::errc() || ptr != end || !(value >= min && value <= max)) {
    return Status::InvalidArgument(std::string(what) + ": \"" +
                                   std::string(s) + "\" is not a number in [" +
                                   FormatBound(min) + ", " + FormatBound(max) +
                                   "]");
  }
  return value;
}

template Result<int> ParseNumber(std::string_view, std::string_view, int,
                                 int);
template Result<long> ParseNumber(std::string_view, std::string_view, long,
                                  long);
template Result<long long> ParseNumber(std::string_view, std::string_view,
                                       long long, long long);
template Result<unsigned long> ParseNumber(std::string_view, std::string_view,
                                           unsigned long, unsigned long);
template Result<unsigned long long> ParseNumber(std::string_view,
                                                std::string_view,
                                                unsigned long long,
                                                unsigned long long);
template Result<double> ParseNumber(std::string_view, std::string_view,
                                    double, double);

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  // Single-row dynamic program; a is the shorter string.
  std::vector<size_t> row(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) row[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    size_t prev_diag = row[0];
    row[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t insert_or_delete = std::min(row[i], row[i - 1]) + 1;
      size_t substitute = prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      prev_diag = row[i];
      row[i] = std::min(insert_or_delete, substitute);
    }
  }
  return row[a.size()];
}

double Similarity(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistance(a, b)) /
                   static_cast<double>(longest);
}

std::string NormalizeForMatch(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool pending_space = false;
  for (char raw : std::string(StripWhitespace(s))) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isspace(c)) {
      pending_space = true;
      continue;
    }
    if (pending_space && !out.empty()) out.push_back(' ');
    pending_space = false;
    out.push_back(static_cast<char>(std::tolower(c)));
  }
  return out;
}

}  // namespace holoclean
