#include "bench_util/bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace iqro::bench {

TablePrinter::TablePrinter(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::printf("\n== %s ==\n", title_.c_str());
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::string sep;
  for (size_t c = 0; c < headers_.size(); ++c) {
    sep += std::string(widths[c], '-') + "  ";
  }
  std::printf("%s\n", sep.c_str());
  for (const auto& row : rows_) print_row(row);
}

JsonObj TablePrinter::ToJson() const {
  JsonObj o;
  o.Put("title", title_);
  JsonArr headers;
  for (const std::string& h : headers_) headers.Add(h);
  o.Put("headers", headers);
  JsonArr rows;
  for (const auto& row : rows_) {
    JsonArr cells;
    for (const std::string& c : row) cells.Add(c);
    rows.Add(cells);
  }
  o.Put("rows", rows);
  return o;
}

JsonObj BenchRoot(const std::string& name, const JsonObj& metrics,
                  std::initializer_list<const TablePrinter*> tables) {
  JsonObj root;
  root.Put("bench", name).Put("metrics", metrics);
  JsonArr table_arr;
  for (const TablePrinter* t : tables) table_arr.Add(t->ToJson());
  root.Put("tables", table_arr);
  return root;
}

std::string Num(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

double OnceMs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

double MedianMs(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) times.push_back(OnceMs(fn));
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

std::unique_ptr<QueryContext> MakeContext(const TpchFixture& fixture,
                                          const std::string& query_name) {
  // MakeTpchQuery interns string literals; the catalog is logically const
  // otherwise.
  Catalog& catalog = const_cast<Catalog&>(fixture.catalog);
  return MakeQueryContext(&fixture.catalog, MakeTpchQuery(&catalog, query_name),
                          fixture.stats);
}

}  // namespace iqro::bench
