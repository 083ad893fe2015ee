#include "stats/table_printer.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace avmon::stats {

namespace {

// Columns a UTF-8 cell occupies: continuation bytes take none, so "±"
// pads like one character.
std::size_t displayWidth(const std::string& cell) {
  std::size_t width = 0;
  for (const char c : cell) {
    if ((static_cast<unsigned char>(c) & 0xC0) != 0x80) ++width;
  }
  return width;
}

}  // namespace

std::string TablePrinter::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void TablePrinter::print(std::ostream& out) const {
  out << "== " << title_ << " ==\n";

  // Column widths over header + all rows.
  std::vector<std::size_t> widths;
  const auto grow = [&](const std::vector<std::string>& cells) {
    if (cells.size() > widths.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i)
      widths[i] = std::max(widths[i], displayWidth(cells[i]));
  };
  if (!header_.empty()) grow(header_);
  for (const auto& row : rows_) grow(row);

  const auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      out << cells[i];
      if (i + 1 < cells.size())
        out << std::string(widths[i] - displayWidth(cells[i]) + 2, ' ');
    }
    out << '\n';
  };

  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (std::size_t w : widths) total += w + 2;
    out << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  }
  for (const auto& row : rows_) emit(row);
  out << '\n';
}

}  // namespace avmon::stats
