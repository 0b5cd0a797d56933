#include "tracer.hpp"

#include <ctime>
#include <fstream>

namespace perfbench {

Tracer* g_tracer = nullptr;

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int Tracer::begin(const char* name) {
  Open open{name, now_ns(), 0, -1};
  if (spans_.size() < kMaxKeptSpans) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().kept;
    open.kept = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, open.start_ns, open.start_ns, parent, slice_});
  } else {
    ++dropped_;
  }
  stack_.push_back(open);
  return static_cast<int>(stack_.size() - 1);
}

void Tracer::end(int handle) {
  const Open open = stack_[static_cast<std::size_t>(handle)];
  stack_.resize(static_cast<std::size_t>(handle));
  const std::int64_t end = now_ns();
  const std::int64_t dur = end - open.start_ns;
  Agg& agg = aggs_[open.name];
  agg.total_ns += dur;
  agg.self_ns += dur - open.child_ns;
  ++agg.count;
  if (open.kept >= 0) spans_[static_cast<std::size_t>(open.kept)].end_ns = end;
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Kept& s = spans_[i];
    out << (first ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << std::string(s.name).substr(0, std::string(s.name).find('.'))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - t0) / 1000.0
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"slice\":" << s.slice << "}}";
    first = false;
  }
  for (const CounterSample& c : counters_) {
    out << (first ? "" : ",\n") << "{\"name\":\"" << c.name
        << "\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(c.ts_ns - t0) / 1000.0
        << ",\"args\":{\"value\":" << c.value << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
