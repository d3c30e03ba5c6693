// Text helpers shared by benches, examples and the exporters: fixed-width
// table rendering (every bench prints paper-style rows through
// TablePrinter), numeric formatting and string escaping.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace viator {

/// Escaping styles the text writers share. All styles escape backslash and
/// newline; kJson additionally escapes the double quote, carriage return,
/// tab and all other control characters (as \uXXXX); kPrometheusLabel
/// additionally escapes only the double quote; kPrometheusHelp escapes
/// nothing further (HELP text per the exposition format).
enum class EscapeStyle { kJson, kPrometheusHelp, kPrometheusLabel };

/// Appends `text` to `out`, escaped per `style` — the one escaping
/// implementation behind the trace log and the JSONL and Prometheus
/// exporters.
void AppendEscaped(std::string& out, std::string_view text,
                   EscapeStyle style);

/// Convenience form returning the escaped copy.
std::string Escaped(std::string_view text, EscapeStyle style);

/// Formats `value` with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits = 2);

/// Human-readable byte count ("1.5 KiB", "3.2 MiB").
std::string FormatBytes(std::uint64_t bytes);

/// Human-readable simulated duration given nanoseconds ("1.25 ms").
std::string FormatNanos(std::uint64_t nanos);

/// Renders aligned ASCII tables; used by every experiment harness so bench
/// output has one consistent shape.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Adds a data row; must match the header arity.
  void AddRow(std::vector<std::string> cells);

  /// Renders the table (with a rule under the header) to `out`.
  void Print(std::ostream& out) const;

  /// Convenience: renders to a string.
  std::string ToString() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace viator
