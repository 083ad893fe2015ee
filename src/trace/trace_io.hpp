// CSV persistence for availability traces.
//
// Format, one node per line after a header:
//
//   avmon-trace-v1,<horizon_ms>
//   <ip_u32>,<port>,<birth_ms>,<death_ms|-1>,<is_control 0|1>,s1:e1|s2:e2|...
//
// Every field is a whole decimal integer (ip and port unsigned, at most
// 2^32-1 and 65535; times signed 64-bit), and no two lines share an
// (ip, port) id. The format is plain text so real availability traces
// (e.g. converted PlanetLab all-pairs-ping data) can be dropped in without
// code changes.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/availability_trace.hpp"

namespace avmon::trace {

/// Writes the trace; throws std::runtime_error on I/O failure.
void saveCsv(const AvailabilityTrace& trace, std::ostream& out);
void saveCsvFile(const AvailabilityTrace& trace, const std::string& path);

/// Reads a trace; throws std::runtime_error on malformed input, with a
/// message "malformed trace: line N: <field>: ...".
AvailabilityTrace loadCsv(std::istream& in);
AvailabilityTrace loadCsvFile(const std::string& path);

}  // namespace avmon::trace
