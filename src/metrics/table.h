// Plain-text table rendering for bench/example output.

#ifndef AQLSCHED_SRC_METRICS_TABLE_H_
#define AQLSCHED_SRC_METRICS_TABLE_H_

#include <string>
#include <vector>

namespace aql {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);
  std::string ToString() const;

  // Structured access for machine-readable (JSON) emission.
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& row_data() const { return rows_; }

  // Numeric formatting helpers.
  static std::string Num(double v, int precision = 2);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_METRICS_TABLE_H_
