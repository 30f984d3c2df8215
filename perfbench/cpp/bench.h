// Shared types of perfbench: run options, the metric record, the
// seeded generator, order statistics and the in-memory span log.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gpu/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Taken by a static initializer of perfbench's main translation unit, so
/// setup_s counts everything from the process's start (allocator
/// registration, device construction, stack builds) as cold set-up.
Clock::time_point process_start();

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main(): op counts, failed checks,
/// the end-to-end metrics, the per-layer metrics every workload reports,
/// and per-stack / per-stage layer detail that only some workloads have.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< a non-empty list fails the run
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<Metric> detail;

  void fail(std::string msg) {
    if (errors.size() < 32) errors.push_back(std::move(msg));
  }
};

/// SplitMix64: every input of every workload is a function of --seed.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
inline std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ mix64(b));
}
/// Uniform request size in [lo, hi] drawn from key.
inline std::uint32_t size_from(std::uint64_t key, std::uint32_t lo,
                               std::uint32_t hi) {
  return lo + static_cast<std::uint32_t>(mix64(key) % (hi - lo + 1));
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}
/// Nearest-rank percentile, p in (0, 100].
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(std::max(x, 1e-300));
  return std::exp(s / static_cast<double>(v.size()));
}

/// Metric-name form of a stack spec: '+' and '>' become '_'.
inline std::string metric_label(std::string_view spec) {
  std::string s(spec);
  for (char& c : s) {
    if (c == '+' || c == '>') c = '_';
  }
  return s;
}

/// In-memory span log for traced runs: one record per call perfbench makes
/// into a layer (name, start, end, parent span, step id). Disabled, open()
/// takes no clock reading and records nothing. Single-threaded: only the
/// main thread opens spans.
class SpanLog {
 public:
  struct Span {
    const char* name = "";  ///< a string literal
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;
    std::uint64_t step = 0;
  };

  class Scope {
   public:
    Scope(SpanLog* log, std::int64_t idx) : log_(log), idx_(idx) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (log_ != nullptr) log_->close(idx_);
    }

   private:
    SpanLog* log_;
    std::int64_t idx_;
  };

  explicit SpanLog(bool on) : on_(on), epoch_(process_start()) {}

  [[nodiscard]] bool on() const { return on_; }

  [[nodiscard]] Scope open(const char* name, std::uint64_t step) {
    if (!on_) return {nullptr, -1};
    const auto idx = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0,
                      open_.empty() ? -1 : open_.back(), step});
    open_.push_back(idx);
    return {this, idx};
  }

  /// Summed duration of every span named `name`, in milliseconds.
  [[nodiscard]] double total_ms(std::string_view name) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Writes the spans and the run's layer metrics as one JSON document.
  void write(const std::string& path, const std::vector<Metric>& layers) const;

 private:
  void close(std::int64_t idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    open_.pop_back();
  }
  [[nodiscard]] std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }

  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

}  // namespace perfbench
