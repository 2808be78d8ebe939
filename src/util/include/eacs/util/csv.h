#pragma once
// Minimal CSV table reader/writer for trace persistence.
//
// Traces (throughput, signal strength, accelerometer) are stored as CSV so a
// user can substitute real recorded traces for the synthetic generators: any
// file with the same header columns round-trips through this module.

#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace eacs {

/// In-memory CSV table: a header row plus rows of string cells.
class CsvTable {
 public:
  CsvTable() = default;
  explicit CsvTable(std::vector<std::string> header);

  const std::vector<std::string>& header() const noexcept { return header_; }
  std::size_t num_rows() const noexcept { return rows_.size(); }
  std::size_t num_cols() const noexcept { return header_.size(); }

  /// Index of a named column. Throws std::out_of_range if missing.
  std::size_t column_index(std::string_view name) const;
  bool has_column(std::string_view name) const noexcept;

  void add_row(std::vector<std::string> row);

  const std::string& cell(std::size_t row, std::size_t col) const;
  const std::string& cell(std::size_t row, std::string_view col_name) const;

  double cell_as_double(std::size_t row, std::string_view col_name) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Parses CSV text (RFC-4180 subset: quoted fields, embedded commas/quotes,
/// \n or \r\n line endings). First row is the header. Throws
/// std::runtime_error on ragged rows.
CsvTable parse_csv(std::string_view text);

/// Serialises a table to CSV text (quoting cells that need it).
std::string to_csv(const CsvTable& table);

/// File helpers. Throw std::runtime_error on I/O failure.
CsvTable read_csv_file(const std::filesystem::path& path);
void write_csv_file(const std::filesystem::path& path, const CsvTable& table);

/// Formats a double with enough digits to round-trip.
std::string format_double(double value);

}  // namespace eacs
