#include "eacs/util/csv.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace eacs {

CsvTable::CsvTable(std::vector<std::string> header) : header_(std::move(header)) {}

std::size_t CsvTable::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  throw std::out_of_range("CsvTable: no column named '" + std::string(name) + "'");
}

bool CsvTable::has_column(std::string_view name) const noexcept {
  for (const auto& column : header_) {
    if (column == name) return true;
  }
  return false;
}

void CsvTable::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::runtime_error("CsvTable: row width " + std::to_string(row.size()) +
                             " != header width " + std::to_string(header_.size()));
  }
  rows_.push_back(std::move(row));
}

const std::string& CsvTable::cell(std::size_t row, std::size_t col) const {
  return rows_.at(row).at(col);
}

const std::string& CsvTable::cell(std::size_t row, std::string_view col_name) const {
  return rows_.at(row).at(column_index(col_name));
}

double CsvTable::cell_as_double(std::size_t row, std::string_view col_name) const {
  const std::string& text = cell(row, col_name);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || text.empty() || errno == ERANGE) {
    throw std::runtime_error("CsvTable: row " + std::to_string(row) + ", column '" +
                             std::string(col_name) + "': cell '" + text +
                             "' is not a double");
  }
  return value;
}

namespace {

/// Raw rows plus the 1-based input line each row started on (quoted cells may
/// span lines, so a row's number is where it *begins*).
struct RawRows {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::size_t> lines;
};

RawRows parse_rows(std::string_view text) {
  RawRows raw;
  std::vector<std::string> row;
  std::string cell;
  bool in_quotes = false;
  bool row_has_content = false;
  std::size_t line = 1;
  std::size_t row_start_line = 1;
  std::size_t quote_open_line = 1;

  const auto flush_cell = [&] {
    row.push_back(std::move(cell));
    cell.clear();
  };
  const auto flush_row = [&] {
    flush_cell();
    raw.rows.push_back(std::move(row));
    raw.lines.push_back(row_start_line);
    row.clear();
    row_has_content = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++line;
        cell.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        quote_open_line = line;
        row_has_content = true;
        break;
      case ',':
        flush_cell();
        row_has_content = true;
        break;
      case '\r':
        break;  // handled with the following \n
      case '\n':
        if (row_has_content || !cell.empty() || !row.empty()) flush_row();
        ++line;
        row_start_line = line;
        break;
      default:
        cell.push_back(c);
        row_has_content = true;
        break;
    }
  }
  if (in_quotes) {
    throw std::runtime_error("parse_csv: line " + std::to_string(quote_open_line) +
                             ": unterminated quoted field");
  }
  if (row_has_content || !cell.empty() || !row.empty()) flush_row();
  return raw;
}

bool needs_quoting(std::string_view cell) {
  return cell.find_first_of(",\"\n\r") != std::string_view::npos;
}

void append_quoted(std::string& out, std::string_view cell) {
  out.push_back('"');
  for (char c : cell) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

}  // namespace

CsvTable parse_csv(std::string_view text) {
  auto raw = parse_rows(text);
  if (raw.rows.empty()) throw std::runtime_error("parse_csv: empty input");
  CsvTable table(std::move(raw.rows.front()));
  for (std::size_t i = 1; i < raw.rows.size(); ++i) {
    if (raw.rows[i].size() != table.num_cols()) {
      throw std::runtime_error(
          "parse_csv: line " + std::to_string(raw.lines[i]) + ": row has " +
          std::to_string(raw.rows[i].size()) + " cells but the header has " +
          std::to_string(table.num_cols()));
    }
    table.add_row(std::move(raw.rows[i]));
  }
  return table;
}

std::string to_csv(const CsvTable& table) {
  std::string out;
  const auto write_row = [&out](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) out.push_back(',');
      if (needs_quoting(row[i])) {
        append_quoted(out, row[i]);
      } else {
        out += row[i];
      }
    }
    out.push_back('\n');
  };
  write_row(table.header());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<std::string> row;
    row.reserve(table.num_cols());
    for (std::size_t c = 0; c < table.num_cols(); ++c) row.push_back(table.cell(r, c));
    write_row(row);
  }
  return out;
}

CsvTable read_csv_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_csv_file: cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_csv(buffer.str());
}

void write_csv_file(const std::filesystem::path& path, const CsvTable& table) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("write_csv_file: cannot open " + path.string());
  out << to_csv(table);
  if (!out) throw std::runtime_error("write_csv_file: write failed for " + path.string());
}

std::string format_double(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

}  // namespace eacs
