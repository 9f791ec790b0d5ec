#include "src/metrics/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/sim/check.h"

namespace aql {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
  AQL_CHECK(!header_.empty());
}

void TextTable::AddRow(std::vector<std::string> row) {
  AQL_CHECK(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

std::string TextTable::ToString() const {
  std::vector<size_t> width(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (size_t c = 0; c < row.size(); ++c) {
      os << " " << row[c] << std::string(width[c] - row[c].size(), ' ') << " |";
    }
    os << "\n";
  };
  auto emit_sep = [&] {
    os << "+";
    for (size_t c = 0; c < width.size(); ++c) {
      os << std::string(width[c] + 2, '-') << "+";
    }
    os << "\n";
  };
  emit_sep();
  emit_row(header_);
  emit_sep();
  for (const auto& row : rows_) {
    emit_row(row);
  }
  emit_sep();
  return os.str();
}

std::string TextTable::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace aql
