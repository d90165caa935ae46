#pragma once
// Minimal string utilities shared by the QASM parser, report printers and
// bench harnesses.

#include <string>
#include <string_view>
#include <vector>

namespace qucp {

/// Split on a delimiter; empty tokens are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// Strip leading/trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// True when `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Fixed-precision double formatting (printf "%.*f").
[[nodiscard]] std::string fmt_double(double v, int precision);

/// Percentage formatting: fmt_percent(0.123, 1) == "12.3%".
[[nodiscard]] std::string fmt_percent(double fraction, int precision);

}  // namespace qucp
