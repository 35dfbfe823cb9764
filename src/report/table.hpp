// Small result-table builder: collects labelled rows and renders them as
// CSV. The figure CSVs (report/figures.hpp) go through it, and downstream
// users can use it for their own experiment harnesses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace uvmsim {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Start a new row; fill it with the chained cell() calls.
  Table& row();
  Table& cell(const std::string& v);
  Table& cell(double v, int precision = 3);
  Table& cell(std::uint64_t v);

  /// The header line, then one line per row; quotes cells with , " or \n.
  [[nodiscard]] std::string to_csv() const;

  /// Throws std::logic_error if any row has a different arity than the
  /// header (call before rendering when assembling dynamically).
  void validate() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace uvmsim
