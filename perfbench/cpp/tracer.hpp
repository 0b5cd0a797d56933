// In-memory span recorder for the traced benchmark run.
//
// Spans wrap every public call the benchmark makes into the system (world
// construction, group formation, engine runs, LWG sends and joins, fault
// calls, convergence polls). Each span has a name "<layer>.<call>", start
// and end (steady_clock), the span that encloses it, and the slice it ran
// in (one id per closed-loop slice or heal cycle). Totals and self times
// are aggregated online; raw spans are kept up to a cap for the Chrome
// trace-event file written at exit.
//
// When no tracer is installed (the untraced runs that carry the end-to-end
// numbers) a Span costs one well-predicted branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + sys, all threads), nanoseconds.
[[nodiscard]] std::int64_t process_cpu_ns();

class Tracer {
 public:
  struct Agg {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t count = 0;
  };

  /// A counter sample in the Chrome file ("ph":"C"), taken at a slice
  /// boundary.
  struct CounterSample {
    std::int64_t ts_ns;
    std::string name;
    double value;
  };

  static constexpr std::size_t kMaxKeptSpans = 100'000;

  int begin(const char* name);
  void end(int handle);
  void set_slice(std::uint32_t slice) { slice_ = slice; }
  void counter(const std::string& name, double value) {
    counters_.push_back({now_ns(), name, value});
  }

  [[nodiscard]] const std::map<std::string, Agg>& aggregates() const {
    return aggs_;
  }
  [[nodiscard]] std::size_t dropped_spans() const { return dropped_; }

  /// Write kept spans and counter samples as Chrome trace-event JSON.
  bool write_chrome(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t kept;  // index into spans_, -1 when dropped
  };
  struct Kept {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint32_t slice;
  };

  std::vector<Open> stack_;
  std::vector<Kept> spans_;
  std::vector<CounterSample> counters_;
  std::map<std::string, Agg> aggs_;
  std::size_t dropped_ = 0;
  std::uint32_t slice_ = 0;
};

/// The active tracer; null in untraced runs.
extern Tracer* g_tracer;

/// RAII span around one call into the system.
class Span {
 public:
  explicit Span(const char* name)
      : handle_(g_tracer != nullptr ? g_tracer->begin(name) : -1) {}
  ~Span() {
    if (handle_ >= 0) g_tracer->end(handle_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int handle_;
};

}  // namespace perfbench
