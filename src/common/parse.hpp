// Strict number parsing and token splitting for the text codecs: fault
// plans and traces, chaos scenarios, retry policies, and the service's
// request, response and op-trace lines.
//
// A number parses only when the whole token is one: no leading '+' or
// whitespace, no trailing characters, no '-' on an unsigned type, nothing
// out of range. (strtoull reads "-1" as 2^64 - 1; stoull reads "12abc" as
// 12.)
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>
#include <vector>

namespace tcast {

/// Parses all of `text` as a base-10 integer into `out`. On failure `out`
/// may hold a partial value; callers reject the whole input.
template <typename Int>
bool parse_int(std::string_view text, Int& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// Parses all of `text` as a decimal or scientific double into `out`
/// ("inf" and "nan" included; range checks are the caller's).
bool parse_double(std::string_view text, double& out);

/// Splits `text` at every `sep`; "" gives one empty part, "a," two parts.
std::vector<std::string_view> split(std::string_view text, char sep);

}  // namespace tcast
