#pragma once
// Plain-text table rendering + CSV export for the benchmark harnesses.
// Every table/figure binary prints its rows through this so the output
// format is uniform and machine-scrapable.

#include <iosfwd>
#include <string>
#include <vector>

namespace lhd {

class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  /// Set the header row. Must be called before add_row.
  void set_header(std::vector<std::string> header);

  /// Append a data row; must match the header width.
  void add_row(std::vector<std::string> row);

  /// Convenience: format doubles/ints into cells.
  static std::string cell(double v, int precision = 2);
  static std::string cell(long long v);

  /// Render as an aligned ASCII table.
  std::string to_text() const;

  /// Render as CSV (header + rows).
  std::string to_csv() const;

  /// Print to stream (text form).
  void print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace lhd
