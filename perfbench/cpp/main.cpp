// plwg_perfbench: one workload, one seed, a wall-clock budget.
//
//   plwg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--size full|tiny] [--out-dir <dir>]
//
// Untraced (--trace 0) runs carry the end-to-end metrics: episode 0 always
// runs to completion, further episodes of the same seed run until the
// budget is spent. Every episode must reproduce episode 0's simulated
// results (trace digest, per-layer counts, tallies) slice for slice.
// Every workload runs on one engine thread. wan1000 also runs the thread
// check: the 16-segment WAN world at 1 and at 4 engine threads, which must
// match.
//
// Traced (--trace 1) runs carry the per-layer metrics: one untraced
// episode, a second, warm untraced episode, then the same seed traced
// (spans around every call into the system; counters read at slice
// boundaries), which must match the first. The traced wall minus the warm
// untraced one is the tracing overhead. heal-cycles also runs the seed
// traced with the oracle off to price the oracle hooks.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. A details file and the Chrome trace go to --out-dir.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "tracer.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_PLWG_ROOT
#define PERFBENCH_PLWG_ROOT "unknown"
#endif

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  Size size = Size::kFull;
  std::string out_dir = ".";
};

// ---------------------------------------------------------------------------
// Statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The highest percentile with at least ten samples beyond it; 1.0 (the
/// maximum) when there are fewer than twenty samples.
double tail_q(std::size_t n) {
  static const double kQs[] = {0.99999, 0.99995, 0.9999, 0.9995, 0.999,
                               0.995,   0.99,    0.95,   0.9,    0.75, 0.5};
  for (double q : kQs) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) return q;
  }
  return 1.0;
}

std::string q_label(double q) {
  if (q >= 1.0) return "max";
  std::ostringstream os;
  os << "p" << q * 100;
  return os.str();
}

template <class T>
std::vector<double> as_double(const std::vector<T>& v, double scale) {
  std::vector<double> out;
  out.reserve(v.size());
  for (T x : v) out.push_back(static_cast<double>(x) * scale);
  return out;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

// ---------------------------------------------------------------------------
// Host speed

/// The probe time that defines the reference host. Host times in the
/// end-to-end metrics are scaled to it: a value is what the time would be
/// on a host that runs host_probe_ns() in exactly this long.
constexpr double kReferenceProbeMs = 1.0;

/// Host speed probe: the wall time of one fixed unit of synthetic work
/// (hash-map inserts and lookups, a sort, small allocations) that runs none
/// of the program's code, so it measures the host, not the change under
/// test. The fastest of three tries, nanoseconds.
std::int64_t host_probe_ns() {
  static volatile std::uint64_t sink = 0;
  std::int64_t best = INT64_MAX;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const std::int64_t t0 = now_ns();
    std::uint64_t x = 88172645463325252ull;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (int i = 0; i < 4096; ++i) map[next() & 0xFFFF] = x;
    std::uint64_t acc = 0;
    for (int i = 0; i < 16384; ++i) {
      auto it = map.find(next() & 0xFFFF);
      if (it != map.end()) acc += it->second;
    }
    std::vector<std::uint64_t> v(8192);
    for (auto& e : v) e = next();
    std::sort(v.begin(), v.end());
    std::vector<std::vector<std::uint8_t>> bufs;
    for (int i = 0; i < 2048; ++i) bufs.emplace_back(16 + (next() & 127), 1);
    sink = sink + acc + v[4096] + bufs.size();
    best = std::min(best, now_ns() - t0);
  }
  return best;
}

/// Factor that scales a host time measured now to the reference host. The
/// shared hosts this runs on drift in speed by tens of per cent over
/// minutes; the probe moves with them, so scaled times move much less.
double host_speed() {
  return kReferenceProbeMs * 1e6 / static_cast<double>(host_probe_ns());
}

// ---------------------------------------------------------------------------
// Episodes

struct Episode {
  bool formed = false;
  bool complete = false;
  double build_s = 0;
  double form_s = 0;
  double wall_s = 0;
  std::vector<double> slice_wall_s;      // absolute wall per slice
  std::vector<double> slice_wall_per_sim;
  std::vector<double> slice_cpu_per_sim;
  std::vector<double> slice_speed;       // host speed factor before each slice
  double setup_speed = 1;                // ... before the world was built
  std::vector<std::uint64_t> checkpoints;
  SimTally tally;
  Counters measured{};
  Counters before_measured{};  // formation and warmup
  double measured_wall_s = 0;
  std::int64_t measured_sim_us = 0;
  WorldProbe probe;  // end of the measured phase; after the drain if complete
  std::map<std::string, Tracer::Agg> aggs_all;
  std::map<std::string, Tracer::Agg> aggs_measured;
  std::size_t dropped_spans = 0;
};

std::map<std::string, Tracer::Agg> diff(
    const std::map<std::string, Tracer::Agg>& end,
    const std::map<std::string, Tracer::Agg>& start) {
  std::map<std::string, Tracer::Agg> out = end;
  for (auto& [name, agg] : out) {
    auto it = start.find(name);
    if (it == start.end()) continue;
    agg.total_ns -= it->second.total_ns;
    agg.self_ns -= it->second.self_ns;
    agg.count -= it->second.count;
  }
  return out;
}

/// Run one episode of `w`. With `deadline_ns` > 0 the episode stops after
/// the first slice that ends past it (at least one slice always runs).
/// With `setup_only` it stops after the set-up.
Episode run_episode(std::unique_ptr<Workload> w, bool traced,
                    std::int64_t deadline_ns, const std::string& chrome_path,
                    bool setup_only = false) {
  Episode e;
  Tracer tracer;
  if (traced) g_tracer = &tracer;
  const std::int64_t t_start = now_ns();
  {
    Span episode("bench.episode");
    e.setup_speed = host_speed();
    {
      Span s("harness.build");
      const std::int64_t t0 = now_ns();
      w->build();
      e.build_s = static_cast<double>(now_ns() - t0) / 1e9;
    }
    {
      Span s("harness.form");
      const std::int64_t t0 = now_ns();
      e.formed = w->form();
      e.form_s = static_cast<double>(now_ns() - t0) / 1e9;
    }
    if (e.formed && !setup_only) {
      {
        Span s("bench.warmup");
        w->warmup();
      }
      Counters prev = w->counters();
      e.before_measured = prev;
      const auto aggs_start = tracer.aggregates();
      std::size_t k = 0;
      for (; k < w->num_slices(); ++k) {
        if (deadline_ns > 0 && k > 0 && now_ns() > deadline_ns) break;
        tracer.set_slice(static_cast<std::uint32_t>(k + 1));
        e.slice_speed.push_back(host_speed());
        const std::int64_t c0 = process_cpu_ns();
        const std::int64_t t0 = now_ns();
        plwg::Duration sim_us = 0;
        {
          Span s("bench.slice");
          sim_us = w->run_slice(k);
        }
        const std::int64_t t1 = now_ns();
        const std::int64_t c1 = process_cpu_ns();
        const double sim_s = static_cast<double>(sim_us) / 1e6;
        const double wall = static_cast<double>(t1 - t0) / 1e9;
        const double cpu = static_cast<double>(c1 - c0) / 1e9;
        e.slice_wall_s.push_back(wall);
        e.slice_wall_per_sim.push_back(wall / sim_s);
        e.slice_cpu_per_sim.push_back(cpu / sim_s);
        e.measured_wall_s += wall;
        e.measured_sim_us += sim_us;
        Span s("bench.counters");
        const Counters cur = w->counters();
        std::uint64_t h = fnv(1469598103934665603ull, w->probe().digest);
        for (std::size_t i = 0; i < kCounterCount; ++i) {
          // A restart rebuilds a node and zeroes its stats: clamp, so the
          // sums are lower bounds rather than wrapped garbage.
          e.measured[i] += cur[i] > prev[i] ? cur[i] - prev[i] : 0;
          h = fnv(h, cur[i]);
        }
        prev = cur;
        e.checkpoints.push_back(fnv(h, w->tally_fingerprint()));
        if (traced) {
          tracer.counter("engine.events", static_cast<double>(e.measured[kEngineEvents]));
          tracer.counter("net.frames", static_cast<double>(e.measured[kNetFrames]));
          tracer.counter("lwg.data_delivered",
                         static_cast<double>(e.measured[kLwgDataDelivered]));
          tracer.counter("vsync.views_installed",
                         static_cast<double>(e.measured[kVsyncViewsInstalled]));
        }
      }
      e.aggs_measured = diff(tracer.aggregates(), aggs_start);
      e.probe = w->probe();
      if (k == w->num_slices()) {
        Span s("bench.drain");
        w->finish();
        e.complete = true;
        e.probe = w->probe();
      }
    }
  }
  e.wall_s = static_cast<double>(now_ns() - t_start) / 1e9;
  e.tally = w->tally();
  w.reset();  // tear the world down outside the timed span
  e.aggs_all = tracer.aggregates();
  e.dropped_spans = tracer.dropped_spans();
  g_tracer = nullptr;
  if (traced && !chrome_path.empty() && !tracer.write_chrome(chrome_path)) {
    std::fprintf(stderr, "warning: could not write %s\n", chrome_path.c_str());
  }
  return e;
}

/// Episode `b` replays `a`'s seed: identical checkpoints over the slices
/// both ran, and identical simulated results when both completed.
std::string compare(const Episode& a, const Episode& b) {
  const std::size_t n = std::min(a.checkpoints.size(), b.checkpoints.size());
  if (n == 0) return "no common slice to compare";
  for (std::size_t k = 0; k < n; ++k) {
    if (a.checkpoints[k] != b.checkpoints[k]) {
      std::ostringstream os;
      os << "checkpoint of slice " << k << " differs";
      return os.str();
    }
  }
  if (!a.complete || !b.complete) return "";
  const SimTally& x = a.tally;
  const SimTally& y = b.tally;
  if (a.probe.digest != b.probe.digest) return "final trace digest differs";
  if (a.measured != b.measured) return "per-layer counts differ";
  if (x.latencies_us != y.latencies_us || x.recoveries_us != y.recoveries_us ||
      x.multicasts != y.multicasts || x.app_deliveries != y.app_deliveries ||
      x.sends_lost != y.sends_lost || x.sends_late != y.sends_late ||
      x.oracle_violations != y.oracle_violations ||
      a.probe.hwg_memberships != b.probe.hwg_memberships ||
      a.probe.db_bytes != b.probe.db_bytes)
    return "simulated metrics differ";
  return "";
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count, tail percentile, ...
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "") + json_str(ms[i].name) + ": {\"value\": " +
           num(ms[i].value) + ", \"unit\": " + json_str(ms[i].unit) + "}";
  }
  return out + "}";
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

/// Failed operations: sends skipped, refused, lost or late, and heals that
/// did not converge before the next cut.
std::uint64_t failed_ops(const SimTally& t) {
  return t.sends_skipped + t.sends_refused + t.sends_lost + t.sends_late +
         t.heals_failed;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int usage() {
  std::fprintf(stderr,
               "usage: plwg_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--size full|tiny] "
               "[--out-dir <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::stoull(val);
    else if (key == "--seconds") opt.seconds = std::stod(val);
    else if (key == "--trace") opt.trace = std::stoi(val);
    else if (key == "--size") opt.size = val == "tiny" ? Size::kTiny : Size::kFull;
    else if (key == "--out-dir") opt.out_dir = val;
    else return usage();
  }
  if (argc % 2 == 0 || !known_workload(opt.workload) || opt.seconds <= 0 ||
      (opt.trace != 0 && opt.trace != 1))
    return usage();

  // Host and build guard.
  const long nproc_l = sysconf(_SC_NPROCESSORS_ONLN);
  const std::size_t nproc = nproc_l > 0 ? static_cast<std::size_t>(nproc_l) : 1;
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
#ifdef PLWG_ORACLE_DISABLED
  const char* oracle_hooks = "OFF";
#else
  const char* oracle_hooks = "ON";
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf("host: nproc=%zu compiler=\"%s\" build=%s asserts=%s "
              "PLWG_ORACLE=%s\n",
              nproc, PERFBENCH_COMPILER, build_type.c_str(),
              asserts ? "on" : "off", oracle_hooks);
  std::printf("library: %s/src\n", PERFBENCH_PLWG_ROOT);
  if (asserts || build_type != "Release") {
    std::fprintf(stderr, "refusing to report: build is %s with asserts %s; "
                         "timings need a Release (NDEBUG) build\n",
                 build_type.c_str(), asserts ? "on" : "off");
    return 3;
  }

  Params params;
  params.workload = opt.workload;
  params.seed = opt.seed;
  params.size = opt.size;
  params.oracle = default_oracle(opt.workload);
  const std::size_t check_threads = std::min(kThreadCheckThreads, nproc);
  std::printf("workload: %s seed=%llu size=%s seconds=%g trace=%d "
              "engine_threads=%zu thread_check_threads=%zu%s oracle=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.size == Size::kTiny ? "tiny" : "full", opt.seconds, opt.trace,
              params.threads, check_threads,
              check_threads < kThreadCheckThreads
                  ? (" (clamped from " + std::to_string(kThreadCheckThreads) +
                     " to nproc)").c_str()
                  : "",
              params.oracle ? "on" : "off");

  const std::int64_t t_begin = now_ns();
  const std::int64_t deadline =
      t_begin + static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           std::to_string(opt.trace);

  std::vector<std::string> gate_failures;
  std::vector<std::string> notes;
  auto gate = [&](bool ok, const std::string& what) {
    std::printf("gate %-44s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) gate_failures.push_back(what);
  };
  const bool strict = opt.workload != "heal-cycles";

  // Episode 0: always complete, untraced.
  Episode e0 = run_episode(make_workload(params), false, 0, "");
  gate(e0.formed, "world formed");
  if (e0.formed) gate(e0.complete, "episode completed");
  if (strict && e0.complete) {
    gate(e0.tally.conservation_errors == 0,
         "delivery conservation" +
             (e0.tally.first_conservation_error.empty()
                  ? std::string()
                  : " (" + e0.tally.first_conservation_error + ")"));
  }
  if (!e0.complete) {
    std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
                "\"metrics\": {}}\n");
    return 1;
  }

  std::vector<Episode> timed;  // episodes at the workload's thread count
  std::vector<Metric> metrics;
  std::vector<Metric> extra;  // printed and recorded, not in the JSON line
  std::string layer_table;

  if (opt.trace == 0) {
    timed.push_back(e0);
    timed.back().tally = SimTally{};
    if (opt.workload == "wan1000" && check_threads > 1) {
      // Not timed: multi-threaded wall time on shared hosts is too unsteady
      // to gate on, but the results must not depend on the thread count.
      Params many = params;
      many.threads = check_threads;
      const Episode one = run_episode(make_thread_check_world(params), false, 0, "");
      const Episode more = run_episode(make_thread_check_world(many), false, 0, "");
      const std::string d = compare(one, more);
      gate(d.empty() && one.complete && more.complete,
           "16-segment world at 1 thread == at " +
               std::to_string(check_threads) + (d.empty() ? "" : " (" + d + ")"));
    }
    // At least one replay (of at least one slice) always runs, so the
    // same-seed gate holds even when episode 0 used up the budget.
    int replays = 0;
    bool same = true;
    std::string why;
    std::int64_t setup_ns = 0;
    bool formed_again = true;
    do {
      Episode ek = run_episode(make_workload(params), false, deadline, "");
      const std::string d = compare(e0, ek);
      if (!d.empty() && same) {
        same = false;
        why = d;
      }
      ++replays;
      ek.tally = SimTally{};  // only episode 0's simulated results are kept
      timed.push_back(std::move(ek));
      // Extra set-ups, up to a tenth of the time so far, give setup_s more
      // samples than there are episodes, spread over the run.
      while (now_ns() < deadline && setup_ns < (now_ns() - t_begin) / 10) {
        const std::int64_t t0 = now_ns();
        Episode es = run_episode(make_workload(params), false, 0, "",
                                 /*setup_only=*/true);
        setup_ns += now_ns() - t0;
        formed_again = formed_again && es.formed;
        timed.push_back(std::move(es));
      }
    } while (now_ns() < deadline);
    gate(formed_again, "every extra set-up formed");
    gate(same, "replays of the seed identical (" + std::to_string(replays) +
                   ")" + (why.empty() ? "" : " " + why));

    std::vector<double> wall;
    std::vector<double> cpu;
    std::vector<double> setup;
    std::vector<double> raw_wall;
    std::vector<double> raw_setup;
    std::vector<double> speed;
    for (const Episode& e : timed) {
      raw_setup.push_back(e.build_s + e.form_s);
      speed.push_back(e.setup_speed);
      if (!e.complete) continue;
      for (std::size_t k = 0; k < e.slice_wall_per_sim.size(); ++k) {
        raw_wall.push_back(e.slice_wall_per_sim[k]);
        wall.push_back(e.slice_wall_per_sim[k] * e.slice_speed[k]);
        cpu.push_back(e.slice_cpu_per_sim[k] * e.slice_speed[k]);
        speed.push_back(e.slice_speed[k]);
      }
    }
    // One set-up can last seconds (wan1000), longer than the host holds one
    // speed, so a single probe before it is a poor scale. Set-ups are
    // scaled by the median of every probe of the run instead.
    const double run_speed = median(speed);
    for (double s : raw_setup) setup.push_back(s * run_speed);
    extra.push_back({"raw_wall_s_per_sim_s", median(raw_wall), "s/s",
                     "host wall, not scaled"});
    extra.push_back({"raw_setup_s", median(raw_setup), "s",
                     "host wall, not scaled"});
    extra.push_back({"host_probe_ms", kReferenceProbeMs / median(speed), "ms",
                     "median of " + std::to_string(speed.size()) + " probes"});
    const SimTally& t = e0.tally;
    const double sim_s = static_cast<double>(t.measured_sim_us) / 1e6;
    const auto lat = as_double(t.latencies_us, 1e-3);
    const auto rec = as_double(t.recoveries_us, 1e-3);
    auto tail_note = [](const std::vector<double>& v, const char* what) {
      const double q = tail_q(v.size());
      std::ostringstream os;
      os << what << " n=" << v.size() << ", " << q_label(q) << "="
         << quantile(v, q);
      return os.str();
    };
    metrics.push_back({"wall_s_per_sim_s", median(wall), "s/s",
                       tail_note(wall, "median of slices;")});
    metrics.push_back({"cpu_s_per_sim_s", median(cpu), "s/s",
                       tail_note(cpu, "median of slices;")});
    metrics.push_back({"setup_s", median(setup), "s",
                       tail_note(setup, "median of set-ups;")});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB", "process ru_maxrss"});
    metrics.push_back({"sim_msgs_per_s", ratio(static_cast<double>(t.multicasts), sim_s),
                       "1/s", std::to_string(t.multicasts) + " multicasts"});
    const double lq = tail_q(lat.size());
    metrics.push_back({"sim_latency_p50_ms", median(lat), "ms",
                       "n=" + std::to_string(lat.size())});
    metrics.push_back({"sim_latency_tail_ms", quantile(lat, lq), "ms",
                       q_label(lq) + " of n=" + std::to_string(lat.size())});
    const double rq = tail_q(rec.size());
    const std::string rec_what =
        strict ? "formation start -> converged" : "heal -> converged";
    metrics.push_back({"sim_recovery_p50_ms", median(rec), "ms",
                       rec_what + ", n=" + std::to_string(rec.size())});
    metrics.push_back({"sim_recovery_tail_ms", quantile(rec, rq), "ms",
                       q_label(rq) + " of n=" + std::to_string(rec.size())});
    metrics.push_back({"availability_pct",
                       100.0 * ratio(static_cast<double>(t.avail_hits),
                                     static_cast<double>(t.avail_samples)),
                       "%", std::to_string(t.avail_samples) + " samples"});
    extra.push_back({"failed_ops_pct",
                     100.0 * ratio(static_cast<double>(failed_ops(t)),
                                   static_cast<double>(t.sends_attempted + t.heals)),
                     "%",
                     std::to_string(t.sends_skipped) + " skipped + " +
                         std::to_string(t.sends_refused) + " refused + " +
                         std::to_string(t.sends_lost) + " lost + " +
                         std::to_string(t.sends_late) + " late sends, " +
                         std::to_string(t.heals_failed) + "/" +
                         std::to_string(t.heals) + " heals unconverged"});
  } else {
    // Episode 0 ran with cold caches and a fresh heap; the overhead is taken
    // against an untraced episode that runs warm, right before the traced
    // one.
    const Episode warm = run_episode(make_workload(params), false, 0, "");
    const Episode e1 =
        run_episode(make_workload(params), true, 0, stem + ".chrome.json");
    const std::string d = compare(e0, e1);
    gate(d.empty() && e1.complete,
         "traced run == untraced run" + (d.empty() ? "" : " (" + d + ")"));
    const Counters& m = e1.measured;
    const auto& ag = e1.aggs_all;
    const auto& am = e1.aggs_measured;
    auto secs = [](const std::map<std::string, Tracer::Agg>& a, const char* n) {
      auto it = a.find(n);
      return it == a.end() ? 0.0 : static_cast<double>(it->second.total_ns) / 1e9;
    };
    auto calls = [](const std::map<std::string, Tracer::Agg>& a, const char* n) {
      auto it = a.find(n);
      return it == a.end() ? 0.0 : static_cast<double>(it->second.count);
    };
    auto cnt = [&](Counter c) { return static_cast<double>(m[c]); };
    // Naming works mostly while groups form: count from world construction.
    auto all = [&](Counter c) {
      return static_cast<double>(m[c] + e1.before_measured[c]);
    };
    const double wall = e1.measured_wall_s;
    const double engine_s = secs(am, "engine.run");
    const double sim_us = static_cast<double>(e1.measured_sim_us);

    metrics = {
        {"harness.build_s", e1.build_s, "s", ""},
        {"harness.form_s", e1.form_s, "s", ""},
        {"harness.fault_calls", static_cast<double>(e1.tally.fault_calls), "count", ""},
        {"engine.run_s", engine_s, "s", "measured phase"},
        {"engine.events", cnt(kEngineEvents), "count", ""},
        {"engine.events_per_delivery", ratio(cnt(kEngineEvents), cnt(kNetDeliveries)), "ratio", ""},
        {"engine.events_per_wall_s", ratio(cnt(kEngineEvents), wall), "1/s", ""},
        {"engine.deliveries_per_wall_s", ratio(cnt(kLwgDataDelivered), wall), "1/s", ""},
        {"net.frames", cnt(kNetFrames), "count", ""},
        {"net.messages", cnt(kNetMessages), "count", ""},
        {"net.deliveries", cnt(kNetDeliveries), "count", ""},
        {"net.bytes_on_wire", cnt(kNetBytesOnWire), "bytes", ""},
        {"net.frames_per_app_delivery", ratio(cnt(kNetFrames), cnt(kLwgDataDelivered)), "ratio", ""},
        {"net.bus_busy_frac",
         ratio(cnt(kNetBusBusyUs), sim_us * static_cast<double>(e1.probe.sites)),
         "frac", ""},
        {"net.drops", cnt(kNetDrops), "count", ""},
        {"net.link_blocked", cnt(kNetLinkBlocked), "count", ""},
        {"net.stale_epoch_drops", cnt(kNetStaleEpochDrops), "count", ""},
        {"transport.msgs_per_frame", ratio(cnt(kTransportMessages), cnt(kTransportFrames)), "ratio", ""},
        {"transport.piggybacked_acks", cnt(kTransportPiggybackedAcks), "count", ""},
        {"transport.backpressure_held", cnt(kTransportBackpressureHeld), "count", ""},
        {"transport.malformed_frames", cnt(kTransportMalformedFrames), "count", ""},
        {"transport.decode_errors", cnt(kTransportDecodeErrors), "count", ""},
        {"vsync.msgs_delivered", cnt(kVsyncMsgsDelivered), "count", ""},
        {"vsync.views_installed", cnt(kVsyncViewsInstalled), "count", ""},
        {"vsync.flushes_started", cnt(kVsyncFlushesStarted), "count", ""},
        {"vsync.merges_led", cnt(kVsyncMergesLed), "count", ""},
        {"vsync.nacks_sent", cnt(kVsyncNacksSent), "count", ""},
        {"vsync.hwg_memberships", static_cast<double>(e1.probe.hwg_memberships),
         "count", "at end"},
        {"lwg.send_s", secs(am, "lwg.send"), "s", "measured phase"},
        {"lwg.send_calls", calls(am, "lwg.send"), "count", "measured phase"},
        {"lwg.join_s", secs(ag, "lwg.join"), "s", "formation"},
        {"lwg.useful_ratio",
         ratio(cnt(kLwgDataDelivered),
               cnt(kLwgDataDelivered) + cnt(kLwgDataFiltered) + cnt(kLwgDataSuperseded)),
         "ratio", ""},
        {"lwg.data_resent", cnt(kLwgDataResent), "count", ""},
        {"lwg.switches_completed", cnt(kLwgSwitchesCompleted), "count", ""},
        {"lwg.lwg_merges", cnt(kLwgMerges), "count", ""},
        {"lwg.conflict_callbacks", cnt(kLwgConflictCallbacks), "count", ""},
        {"lwg.views_installed", cnt(kLwgViewsInstalled), "count", ""},
        {"names.requests", all(kNamesRequests), "count", "from construction"},
        {"names.syncs_sent", all(kNamesSyncsSent), "count", "from construction"},
        {"names.full_syncs", all(kNamesFullSyncs), "count", "from construction"},
        {"names.delta_syncs", all(kNamesDeltaSyncs), "count", "from construction"},
        {"names.callbacks_sent", all(kNamesCallbacksSent), "count", "from construction"},
        {"names.db_bytes", static_cast<double>(e1.probe.db_bytes), "bytes",
         "largest server, at end"},
        {"oracle.check_s", secs(ag, "oracle.check"), "s", "whole episode"},
        {"oracle.checks", calls(ag, "oracle.check"), "count", "whole episode"},
        {"oracle.violations", static_cast<double>(e1.tally.oracle_violations), "count", ""},
    };

    // Self time per layer over the whole traced episode.
    std::map<std::string, Tracer::Agg> layers;
    for (const auto& [name, agg] : ag) {
      Tracer::Agg& l = layers[name.substr(0, name.find('.'))];
      l.total_ns += agg.total_ns;
      l.self_ns += agg.self_ns;
      l.count += agg.count;
    }
    const double ep_ns = static_cast<double>(ag.at("bench.episode").total_ns);
    std::ostringstream table;
    table << "per-layer self time (traced episode, " << e1.wall_s << " s wall):\n";
    char line[160];
    std::snprintf(line, sizeof line, "  %-10s %12s %12s %8s %10s\n", "layer",
                  "span_s", "self_s", "share", "spans");
    table << line;
    for (const char* layer : {"bench", "harness", "engine", "lwg", "oracle"}) {
      const Tracer::Agg& l = layers[layer];
      std::snprintf(line, sizeof line, "  %-10s %12.6f %12.6f %7.2f%% %10llu\n",
                    layer, static_cast<double>(l.total_ns) / 1e9,
                    static_cast<double>(l.self_ns) / 1e9,
                    100.0 * static_cast<double>(l.self_ns) / ep_ns,
                    static_cast<unsigned long long>(l.count));
      table << line;
      metrics.push_back({std::string(layer) + ".self_frac",
                         static_cast<double>(l.self_ns) / ep_ns, "frac",
                         "share of the traced episode"});
    }
    layer_table = table.str();
    metrics.push_back({"bench.trace_overhead_frac",
                       (e1.wall_s - warm.wall_s) / warm.wall_s, "frac",
                       "traced minus warm untraced episode wall, over untraced"});
    extra.push_back({"harness.fault_call_s", secs(am, "harness.fault"), "s",
                     "wall inside cut_wan/heal/crash/restart"});
    if (e1.tally.restarts > 0) {
      notes.push_back("a restart rebuilt " + std::to_string(e1.tally.restarts) +
                      " node stack(s) and zeroed their stats: per-layer counts "
                      "are lower bounds");
    }
    if (e1.dropped_spans > 0) {
      notes.push_back(std::to_string(e1.dropped_spans) +
                      " spans beyond the in-memory cap were aggregated but not "
                      "written to the Chrome trace");
    }
    if (params.oracle) {
      Params off = params;
      off.oracle = false;
      // Bounded to a few seconds of slices: the difference only needs the
      // slices both runs completed.
      const Episode e2 =
          run_episode(make_workload(off), true, now_ns() + 5'000'000'000, "");
      const std::size_t n = std::min(e1.slice_wall_s.size(), e2.slice_wall_s.size());
      double on_s = 0;
      double off_s = 0;
      for (std::size_t k = 0; k < n; ++k) {
        on_s += e1.slice_wall_s[k];
        off_s += e2.slice_wall_s[k];
      }
      extra.push_back({"oracle.hook_s", on_s - off_s, "s",
                       "traced wall oracle on minus off over the first " +
                           std::to_string(n) + " slices"});
    }
  }

  // Human-readable report.
  std::printf("\n%-30s %16s %-6s %s\n", "metric", "value", "unit", "notes");
  for (const Metric& mt : metrics) {
    std::printf("%-30s %16.6f %-6s %s\n", mt.name.c_str(), mt.value,
                mt.unit.c_str(), mt.note.c_str());
  }
  for (const Metric& mt : extra) {
    std::printf("%-30s %16.6f %-6s %s\n", mt.name.c_str(), mt.value,
                mt.unit.c_str(), mt.note.c_str());
  }
  if (!layer_table.empty()) std::printf("\n%s", layer_table.c_str());
  const SimTally& t = e0.tally;
  if (t.first_failed_heal >= 0) {
    std::printf("\nfirst unconverged heal: cycle %d; convergence failure and "
                "liveness report:\n%s\n",
                t.first_failed_heal, t.first_failed_heal_report.c_str());
  }
  for (const std::string& n : notes) std::printf("note: %s\n", n.c_str());

  // Details file.
  {
    std::ofstream out(stem + ".json");
    out << "{\"workload\": " << json_str(opt.workload) << ", \"seed\": " << opt.seed
        << ", \"trace\": " << opt.trace << ",\n \"host\": {\"nproc\": " << nproc
        << ", \"compiler\": " << json_str(PERFBENCH_COMPILER)
        << ", \"build_type\": " << json_str(build_type)
        << ", \"plwg_root\": " << json_str(PERFBENCH_PLWG_ROOT)
        << ", \"plwg_oracle\": " << json_str(oracle_hooks)
        << ", \"engine_threads\": " << params.threads
        << ", \"thread_check_threads\": " << check_threads
        << "},\n \"metrics\": [";
    bool first = true;
    for (const auto* list : {&metrics, &extra}) {
      for (const Metric& mt : *list) {
        out << (first ? "\n  " : ",\n  ") << "{\"name\": " << json_str(mt.name)
            << ", \"value\": " << num(mt.value) << ", \"unit\": " << json_str(mt.unit)
            << ", \"note\": " << json_str(mt.note) << "}";
        first = false;
      }
    }
    out << "],\n \"episodes\": [";
    for (std::size_t i = 0; i < timed.size(); ++i) {
      out << (i ? ", " : "") << "{\"complete\": " << (timed[i].complete ? "true" : "false")
          << ", \"setup_s\": " << num(timed[i].build_s + timed[i].form_s)
          << ", \"slices\": " << timed[i].slice_wall_s.size() << "}";
    }
    out << "],\n \"digest\": \"" << std::hex << e0.probe.digest << std::dec
        << "\", \"sends_attempted\": " << t.sends_attempted
        << ", \"sends_skipped\": " << t.sends_skipped
        << ", \"sends_refused\": " << t.sends_refused
        << ", \"sends_lost\": " << t.sends_lost
        << ", \"sends_late\": " << t.sends_late << ", \"heals\": " << t.heals
        << ", \"heals_failed\": " << t.heals_failed
        << ", \"first_failed_heal\": " << t.first_failed_heal
        << ", \"first_failed_heal_report\": " << json_str(t.first_failed_heal_report)
        << ",\n \"gate_failures\": [";
    for (std::size_t i = 0; i < gate_failures.size(); ++i)
      out << (i ? ", " : "") << json_str(gate_failures[i]);
    out << "], \"notes\": [";
    for (std::size_t i = 0; i < notes.size(); ++i)
      out << (i ? ", " : "") << json_str(notes[i]);
    out << "]}\n";
  }

  const bool correct = gate_failures.empty();
  const std::uint64_t attempted = std::max<std::uint64_t>(1, t.sends_attempted + t.heals);
  const std::uint64_t failed = failed_ops(t);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
