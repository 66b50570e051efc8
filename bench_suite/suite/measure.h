// Timing, percentiles, process memory and the result line. Everything the
// suite uses to measure lives here, under the benchmark's own directory, so
// that no change to the program under test can change how it is measured.
#ifndef BENCH_SUITE_SUITE_MEASURE_H_
#define BENCH_SUITE_SUITE_MEASURE_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace bench_suite {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Nearest-rank percentile: the smallest sample such that at least a share
/// `p` (0 < p <= 1) of all samples is less than or equal to it. 0 when empty.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

/// A bag of measurements of one quantity.
class Samples {
 public:
  void Add(double x) { v_.push_back(x); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  void Reserve(size_t n) { v_.reserve(n); }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double P(double p) const { return Percentile(v_, p); }
  double Median() const { return P(0.5); }
  double Sum() const {
    double s = 0;
    for (double x : v_) s += x;
    return s;
  }
  /// The same samples in another unit (each multiplied by `k`).
  Samples Scaled(double k) const {
    Samples s;
    s.v_.reserve(v_.size());
    for (double x : v_) s.v_.push_back(x * k);
    return s;
  }

 private:
  std::vector<double> v_;
};

/// Samples of one quantity over a timed run, grouped by when they were taken
/// into windows of equal length that tile the run.
///
/// A host shared with other tenants runs some stretches of a run slower
/// than others, for seconds at a time. So each statistic is computed per
/// window, and the run reports its lower quartile across windows (for a
/// rate, the upper quartile): a slow stretch covering up to three quarters
/// of the run leaves it unmoved, while a change to the program moves every
/// window, and so the result, by its full amount.
class WindowedSamples {
 public:
  /// Windows of about `window_s` seconds tiling [start_ns, start_ns +
  /// seconds); at least one.
  WindowedSamples(int64_t start_ns, double seconds, double window_s)
      : start_ns_(start_ns),
        windows_(std::max<size_t>(1, static_cast<size_t>(seconds / window_s))),
        window_ns_(seconds * 1e9 / static_cast<double>(windows_.size())) {}

  /// Adds `x`, taken at `at_ns`; a sample outside the run is dropped.
  void Add(int64_t at_ns, double x) {
    const double i = static_cast<double>(at_ns - start_ns_) / window_ns_;
    if (i >= 0 && i < static_cast<double>(windows_.size())) {
      windows_[static_cast<size_t>(i)].Add(x);
    }
  }
  /// Merges samples taken over the same run (the same windows).
  void Append(const WindowedSamples& o) {
    for (size_t i = 0; i < windows_.size() && i < o.windows_.size(); ++i) {
      windows_[i].Append(o.windows_[i]);
    }
  }

  size_t size() const {
    size_t n = 0;
    for (const Samples& w : windows_) n += w.size();
    return n;
  }
  size_t windows() const { return windows_.size(); }

  /// Lower quartile across windows of each window's percentile `p`.
  double P(double p) const {
    return Across(0.25, [p](const Samples& w) { return w.P(p); });
  }
  /// Upper quartile across windows of the window's samples per second of
  /// their summed value, for samples that are op times in ms: ops per
  /// second of op time.
  double PerSecondOfSum() const {
    return Across(0.75, [](const Samples& w) {
      const double ms = w.Sum();
      return ms > 0 ? 1e3 * static_cast<double>(w.size()) / ms : 0.0;
    });
  }
  /// Upper quartile across windows of the window's samples per second.
  double PerSecond() const {
    Samples rates;
    for (const Samples& w : windows_) rates.Add(static_cast<double>(w.size()) / (window_ns_ / 1e9));
    return rates.P(0.75);
  }

 private:
  /// Quantile `q` across the non-empty windows of `stat` of each window.
  template <typename Stat>
  double Across(double q, Stat stat) const {
    Samples per_window;
    for (const Samples& w : windows_) {
      if (!w.empty()) per_window.Add(stat(w));
    }
    return per_window.P(q);
  }

  int64_t start_ns_;
  std::vector<Samples> windows_;
  double window_ns_;
};

/// Peak resident set of this process, in MiB (getrusage ru_maxrss).
inline double MaxRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

inline double SafeRatio(double num, double den) { return den != 0 ? num / den : 0; }

/// Named metrics in insertion order; the value of a repeated name is
/// replaced.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0;
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }
  bool Has(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return true;
    }
    return false;
  }
  double Get(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return e.value;
    }
    return 0;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace bench_suite

#endif  // BENCH_SUITE_SUITE_MEASURE_H_
