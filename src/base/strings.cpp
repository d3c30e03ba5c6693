#include "base/strings.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace viator {

void AppendEscaped(std::string& out, std::string_view text,
                   EscapeStyle style) {
  const bool json = style == EscapeStyle::kJson;
  const bool quotes = json || style == EscapeStyle::kPrometheusLabel;
  for (const char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '"':
        out += quotes ? "\\\"" : "\"";
        break;
      case '\r':
        out += json ? "\\r" : "\r";
        break;
      case '\t':
        out += json ? "\\t" : "\t";
        break;
      default:
        if (json && static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string Escaped(std::string_view text, EscapeStyle style) {
  std::string out;
  out.reserve(text.size());
  AppendEscaped(out, text, style);
  return out;
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string FormatBytes(std::uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  if (unit == 0) return std::to_string(bytes) + " B";
  return FormatDouble(v, 2) + " " + kUnits[unit];
}

std::string FormatNanos(std::uint64_t nanos) {
  if (nanos < 1000ULL) return std::to_string(nanos) + " ns";
  if (nanos < 1000000ULL)
    return FormatDouble(static_cast<double>(nanos) / 1e3, 2) + " us";
  if (nanos < 1000000000ULL)
    return FormatDouble(static_cast<double>(nanos) / 1e6, 2) + " ms";
  return FormatDouble(static_cast<double>(nanos) / 1e9, 3) + " s";
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "| " : " | ");
      out << row[c];
      out << std::string(widths[c] - row[c].size(), ' ');
    }
    out << " |\n";
  };
  print_row(headers_);
  out << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << '|';
  }
  out << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string TablePrinter::ToString() const {
  std::ostringstream oss;
  Print(oss);
  return oss.str();
}

}  // namespace viator
