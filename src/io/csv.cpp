#include "io/csv.h"

#include <fstream>
#include <sstream>

#include "common/error.h"

namespace kcc {

CsvWriter::CsvWriter(std::vector<std::string> header)
    : header_(std::move(header)) {
  require(!header_.empty(), "CsvWriter: header must not be empty");
}

void CsvWriter::add_row(std::vector<std::string> row) {
  require(row.size() == header_.size(), "CsvWriter::add_row: arity mismatch");
  rows_.push_back(std::move(row));
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string CsvWriter::to_string() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << ',';
      os << escape(row[i]);
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void CsvWriter::save(const std::string& path) const {
  std::ofstream out(path);
  require(out.good(), "CsvWriter::save: cannot open '", path, "'");
  out << to_string();
  require(out.good(), "CsvWriter::save: write failed for '", path, "'");
}

}  // namespace kcc
