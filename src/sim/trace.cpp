#include "sim/trace.h"

#include <cstdio>
#include <ostream>

#include "base/strings.h"

namespace viator::sim {

std::string_view TraceLevelName(TraceLevel level) {
  switch (level) {
    case TraceLevel::kDebug: return "DEBUG";
    case TraceLevel::kInfo: return "INFO";
    case TraceLevel::kWarn: return "WARN";
    case TraceLevel::kError: return "ERROR";
  }
  return "?";
}

void TraceSink::Log(TimePoint time, TraceLevel level, std::string component,
                    std::string message) {
  if (level < min_level_) return;
  if (echo_) {
    std::printf("[%s] %-5s %-18s %s\n", FormatNanos(time).c_str(),
                std::string(TraceLevelName(level)).c_str(), component.c_str(),
                message.c_str());
  }
  entries_.push_back(Entry{time, level, std::move(component),
                           std::move(message)});
  while (entries_.size() > capacity_) entries_.pop_front();
}

namespace {

// Minimal JSON string escaping: quotes, backslashes and control characters.
void AppendJsonEscaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

void TraceSink::WriteJsonl(std::ostream& out) const {
  std::string line;
  for (const auto& e : entries_) {
    line.clear();
    line += "{\"t\":";
    line += std::to_string(e.time);
    line += ",\"level\":\"";
    line += TraceLevelName(e.level);
    line += "\",\"component\":\"";
    AppendJsonEscaped(line, e.component);
    line += "\",\"message\":\"";
    AppendJsonEscaped(line, e.message);
    line += "\"}\n";
    out << line;
  }
}

std::size_t TraceSink::CountContaining(std::string_view needle) const {
  std::size_t n = 0;
  for (const auto& e : entries_) {
    if (e.message.find(needle) != std::string::npos) ++n;
  }
  return n;
}

std::vector<TraceSink::Entry> TraceSink::ForComponent(
    std::string_view component) const {
  std::vector<Entry> out;
  for (const auto& e : entries_) {
    if (e.component == component) out.push_back(e);
  }
  return out;
}

}  // namespace viator::sim
