#include "sim/trace.h"

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
  entries_.push_back(Entry{time, level, std::move(component),
                           std::move(message)});
  while (entries_.size() > kCapacity) entries_.pop_front();
}

void TraceSink::WriteJsonl(std::ostream& out) const {
  std::string line;
  for (const auto& e : entries_) {
    line.clear();
    line += "{\"t\":";
    line += std::to_string(e.time);
    line += ",\"level\":\"";
    line += TraceLevelName(e.level);
    line += "\",\"component\":\"";
    AppendEscaped(line, e.component, EscapeStyle::kJson);
    line += "\",\"message\":\"";
    AppendEscaped(line, e.message, EscapeStyle::kJson);
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
