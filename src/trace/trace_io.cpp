#include "trace/trace_io.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/id_index.hpp"
#include "common/parse_int.hpp"

namespace avmon::trace {
namespace {

constexpr const char* kMagic = "avmon-trace-v1";

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error("malformed trace: " + what);
}

// Reads the fields of input line `number`; every failure names the line
// and the field.
struct LineReader {
  std::size_t number;

  [[noreturn]] void fail(const std::string& field,
                         const std::string& what) const {
    malformed("line " + std::to_string(number) + ": " + field + ": " + what);
  }

  std::uint64_t unsignedField(const char* field, const std::string& v,
                              std::uint64_t max) const {
    std::uint64_t x = 0;
    const std::string error = readUInt(v, max, x);
    if (!error.empty()) fail(field, error);
    return x;
  }

  SimTime timeField(const char* field, const std::string& v) const {
    std::int64_t x = 0;
    const std::string error = readInt(v, x);
    if (!error.empty()) fail(field, error);
    return x;
  }
};

}  // namespace

void saveCsv(const AvailabilityTrace& trace, std::ostream& out) {
  out << kMagic << ',' << trace.horizon() << '\n';
  for (const NodeTrace& node : trace.nodes()) {
    out << node.id.ip() << ',' << node.id.port() << ',' << node.birth << ','
        << (node.death ? *node.death : SimTime{-1}) << ','
        << (node.isControl ? 1 : 0) << ',';
    for (std::size_t i = 0; i < node.sessions.size(); ++i) {
      if (i > 0) out << '|';
      out << node.sessions[i].start << ':' << node.sessions[i].end;
    }
    out << '\n';
  }
  if (!out) throw std::runtime_error("trace write failed");
}

void saveCsvFile(const AvailabilityTrace& trace, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open for write: " + path);
  saveCsv(trace, f);
}

AvailabilityTrace loadCsv(std::istream& in) {
  std::string text;
  std::size_t number = 0;
  const auto nextLine = [&] {
    if (!std::getline(in, text)) return false;
    ++number;
    if (!text.empty() && text.back() == '\r') text.pop_back();  // CRLF files
    return true;
  };
  if (!nextLine()) malformed("empty input");

  const LineReader header{number};
  std::istringstream head(text);
  std::string magic;
  std::string horizon;
  if (!std::getline(head, magic, ',') || magic != kMagic)
    header.fail("magic", "expected avmon-trace-v1");
  std::getline(head, horizon);
  AvailabilityTrace trace;
  trace.setHorizon(header.timeField("horizon", horizon));

  // Ids must be distinct: a node's trace position is its global index in
  // every run (ScenarioRunner relies on it), and a repeated id cannot
  // have two.
  IdIndex seen;
  std::vector<std::size_t> lineOfNode;
  while (nextLine()) {
    if (text.empty()) continue;
    const LineReader line{number};
    std::istringstream row(text);
    const auto next = [&](const char* field) {
      std::string value;
      if (!std::getline(row, value, ',')) line.fail(field, "missing");
      return value;
    };

    NodeTrace node;
    const auto ip = static_cast<std::uint32_t>(
        line.unsignedField("ip", next("ip"), 0xFFFFFFFFu));
    const auto port = static_cast<std::uint16_t>(
        line.unsignedField("port", next("port"), 0xFFFFu));
    node.id = NodeId(ip, port);
    node.birth = line.timeField("birth", next("birth"));
    const SimTime death = line.timeField("death", next("death"));
    if (death >= 0) node.death = death;
    node.isControl = line.unsignedField("control", next("control"), 1) == 1;

    std::string sessions;
    std::getline(row, sessions);  // remainder of line
    std::istringstream spans(sessions);
    std::string span;
    while (std::getline(spans, span, '|')) {
      const auto colon = span.find(':');
      if (colon == std::string::npos)
        line.fail("session", "expected start:end, got '" + span + "'");
      Interval iv;
      iv.start = line.timeField("session start", span.substr(0, colon));
      iv.end = line.timeField("session end", span.substr(colon + 1));
      node.sessions.push_back(iv);
    }
    std::string why;
    if (!node.validate(&why)) line.fail("sessions", why);

    const IdIndex::Insertion id = seen.insert(node.id);
    if (!id.inserted) {
      line.fail("node id", node.id.toString() + " repeats line " +
                               std::to_string(lineOfNode[id.index]));
    }
    lineOfNode.push_back(number);
    trace.add(std::move(node));
  }
  return trace;
}

AvailabilityTrace loadCsvFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open for read: " + path);
  return loadCsv(f);
}

}  // namespace avmon::trace
