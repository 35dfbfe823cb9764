#include "report/table.hpp"

#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace uvmsim {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: no headers");
}

Table& Table::row() {
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

Table& Table::cell(const std::string& v) {
  if (rows_.empty()) throw std::logic_error("Table: cell() before row()");
  rows_.back().push_back(v);
  return *this;
}

Table& Table::cell(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return cell(os.str());
}

Table& Table::cell(std::uint64_t v) { return cell(std::to_string(v)); }

void Table::validate() const {
  for (const auto& r : rows_) {
    if (r.size() != headers_.size())
      throw std::logic_error("Table: row arity mismatch");
  }
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

std::string Table::to_csv() const {
  validate();
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c != 0) os << ',';
      os << csv_escape(cells[c]);
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& r : rows_) emit(r);
  return os.str();
}

}  // namespace uvmsim
