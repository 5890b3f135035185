// Benchmark program for the Virtual-Link simulator. It runs one workload
// through the simulator's public entry points (workloads::run,
// traffic::run_spec, traffic::run_sharded), repeats it for a host-time
// budget, checks every repetition's outputs, optionally makes one traced
// pass, and prints one JSON object of raw measurements as the last line of
// stdout. run.py, beside this file, builds the binary, runs it and turns
// the raw measurements into named metrics.
//
//   vlbench --workload paper-kernels|qos-flood|mesh-diurnal --seed N
//           --seconds S --trace 0|1 [--t0 NS] [--setup-only]
//
// --t0 is the caller's CLOCK_MONOTONIC reading in nanoseconds, taken just
// before it started this process, so set-up time includes exec and static
// initialisation. Without it, set-up time starts at main().
//
// Exit status: 0 when every correctness check passed, 1 when one failed
// (the JSON is still printed), 2 on a usage error (nothing printed).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "obs/hooks.hpp"
#include "obs/tracer.hpp"
#include "runtime/machine.hpp"
#include "runtime/qos_supervisor.hpp"
#include "squeue/factory.hpp"
#include "traffic/engine.hpp"
#include "traffic/scenario.hpp"
#include "traffic/sharded_engine.hpp"
#include "workloads/runner.hpp"

#ifndef VLBENCH_BUILD_TYPE
#define VLBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define VLBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define VLBENCH_COMPILER "gcc " __VERSION__
#else
#define VLBENCH_COMPILER "unknown"
#endif

namespace {

using namespace vl;
using squeue::Backend;

// --- host clocks ---------------------------------------------------------------

double mono_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- reference speed -------------------------------------------------------------
//
// A shared host's speed drifts by tens of percent over minutes, more than
// the differences the host metrics must resolve. On a workload that runs on
// one host thread, every slice of a timed repetition therefore sits between
// two runs of a fixed reference kernel. Host times are reported at the
// reference speed: t * kReferenceSeconds / (mean of the reference runs
// before and after).
// The kernel uses no simulator code, so a change to the simulator moves the
// workload's time and not the reference's. Its mix of heap operations,
// hash-map updates and small allocations resembles the event loop's.
//
// The 4-thread mesh workload is measured raw: reference runs on 4 threads
// and on one tracked its drift poorly (correlation about 0.4, against about
// 0.6-0.7 for the single-threaded workloads) and widened its spread.

/// Nominal duration of one reference run: the median measured on a 4-CPU
/// Xeon development host. Only ratios matter; this keeps the reported
/// seconds close to raw seconds there.
constexpr double kReferenceSeconds = 0.09;
constexpr int kReferenceOps = 230000;

std::uint64_t reference_kernel() {
  std::uint64_t x = 88172645463325252ull, acc = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  using Item = std::pair<std::uint64_t, std::uint64_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::vector<std::unique_ptr<std::uint64_t[]>> live(4096);
  for (int i = 0; i < kReferenceOps; ++i) {
    const std::uint64_t r = next();
    heap.push({r & 0xffffff, static_cast<std::uint64_t>(i)});
    if (heap.size() > 20000) {
      acc += heap.top().first;
      heap.pop();
    }
    table[r & 0x3ffff] += static_cast<std::uint64_t>(i);
    auto& slot = live[r & 4095];
    slot = std::make_unique<std::uint64_t[]>(1 + (r >> 60));
    slot[0] = r;
    acc += slot[0] & 1;
  }
  return acc + table.size();
}

/// Wall seconds of one reference run.
double reference_run() {
  const double t0 = mono_s();
  const std::uint64_t v = reference_kernel();
  const double dt = mono_s() - t0;
  if (v == 0) std::fprintf(stderr, "vlbench: reference kernel returned 0\n");
  return dt;
}

// --- JSON output -----------------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Append-only JSON object writer; keys keep insertion order.
class JsonObj {
 public:
  JsonObj& num(const std::string& k, double v) { return raw(k, fmt_num(v)); }
  JsonObj& str(const std::string& k, const std::string& v) {
    return raw(k, quote(v));
  }
  JsonObj& nums(const std::string& k, const std::vector<double>& vs) {
    std::string a = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i) a += ',';
      a += fmt_num(vs[i]);
    }
    return raw(k, a + "]");
  }
  JsonObj& strs(const std::string& k, const std::vector<std::string>& vs) {
    std::string a = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i) a += ',';
      a += quote(vs[i]);
    }
    return raw(k, a + "]");
  }
  JsonObj& raw(const std::string& k, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += quote(k);
    body_ += ':';
    body_ += json;
    return *this;
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double pct(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0.0;
}

// FNV-1a over a string: the run digests that the report prints.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// --- correctness checks ------------------------------------------------------------

class Checks {
 public:
  /// Records one check; returns `ok` so callers can also count failures.
  bool expect(bool ok, const std::string& what) {
    ++run_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 32) failures_.push_back(what);
    }
    return ok;
  }
  bool all_ok() const { return failed_ == 0; }
  std::string json() const {
    return JsonObj()
        .num("run", static_cast<double>(run_))
        .num("failed", static_cast<double>(failed_))
        .strs("failures", failures_)
        .json();
  }

 private:
  std::uint64_t run_ = 0, failed_ = 0;
  std::vector<std::string> failures_;
};

// --- trace folding -------------------------------------------------------------------

/// Folds Chrome-trace B/E spans into time per "cat.name" (simulated ticks):
/// self time is a span's duration minus the durations of the spans nested
/// directly inside it on the same lane; total time keeps them. Instants are
/// counted apart.
struct TraceFold {
  std::map<std::string, std::uint64_t> self_ticks, total_ticks, instants;
  std::uint64_t unbalanced = 0;  ///< E without a matching B, or B never closed.

  void add(const obs::TraceBuffer& buf) {
    struct Open {
      const obs::TraceEvent* ev;
      std::uint64_t child_ticks;
    };
    std::map<std::uint32_t, std::vector<Open>> lanes;
    for (const obs::TraceEvent& e : buf.events()) {
      if (e.ph == 'i') {
        ++instants[key(e)];
        continue;
      }
      std::vector<Open>& stack = lanes[e.tid];
      if (e.ph == 'B') {
        stack.push_back({&e, 0});
        continue;
      }
      if (stack.empty() || std::strcmp(stack.back().ev->cat, e.cat) != 0 ||
          std::strcmp(stack.back().ev->name, e.name) != 0) {
        ++unbalanced;
        continue;
      }
      const Open o = stack.back();
      stack.pop_back();
      const std::uint64_t dur = e.ts - o.ev->ts;
      const std::string k = key(e);
      self_ticks[k] += dur - std::min(dur, o.child_ticks);
      total_ticks[k] += dur;
      if (!stack.empty()) stack.back().child_ticks += dur;
    }
    for (const auto& [tid, stack] : lanes) unbalanced += stack.size();
  }

  std::string json() const {
    auto obj = [](const std::map<std::string, std::uint64_t>& m) {
      JsonObj o;
      for (const auto& [k, v] : m) o.num(k, static_cast<double>(v));
      return o.json();
    };
    return JsonObj()
        .raw("self_ticks", obj(self_ticks))
        .raw("total_ticks", obj(total_ticks))
        .raw("instants", obj(instants))
        .num("unbalanced", static_cast<double>(unbalanced))
        .json();
  }

 private:
  static std::string key(const obs::TraceEvent& e) {
    return std::string(e.cat) + "." + e.name;
  }
};

// --- workloads -----------------------------------------------------------------------

/// Host seconds of one repetition of the timed calls, at the reference
/// speed and raw.
struct Rep {
  double wall_s = 0, cpu_s = 0, raw_wall_s = 0, raw_cpu_s = 0;
  std::map<std::string, double> backend_wall_s;  ///< paper-kernels cells only
};

/// What run.py reads besides the host timings.
struct Outputs {
  JsonObj sim;       ///< end-to-end simulated metrics + latency sample counts
  JsonObj layers;    ///< deterministic per-layer metrics
  JsonObj fidelity;  ///< simulated value -> paper reference
};

struct TracedPass {
  double wall_s = 0;
  TraceFold fold;
  std::vector<std::string> perturbations;  ///< traced run != untraced run
  JsonObj extra;                           ///< workload-specific fields
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Whether the timed calls run on one host thread, so that host times
  /// are taken at the reference speed (see reference_run()).
  virtual bool single_threaded() const { return true; }
  /// A short untimed run, so allocator pools, page faults and lazily built
  /// tables are settled before the first timed call.
  virtual void warm_up() = 0;
  /// Slices one repetition of the timed calls is cut into. A reference run
  /// follows each slice, so a long repetition samples the host's speed
  /// more than twice.
  virtual int slices() const { return 1; }
  /// Slice `i` of one repetition, with its correctness checks; adds the
  /// raw host seconds of each backend's calls to `backend_wall_s`.
  virtual void run_slice(int i, std::map<std::string, double>& backend_wall_s,
                         Checks& checks) = 0;
  virtual void report(Outputs& out) const = 0;
  /// The separate traced pass, after the timed repetitions.
  virtual void traced(TracedPass& tp, Checks& checks) = 0;

  std::uint64_t attempted = 0;  ///< messages the timed runs tried to deliver
  std::uint64_t failed = 0;     ///< ...not delivered, or in a failed run
};

void report_mem(JsonObj& o, const char* backend, const mem::MemStats& ms) {
  const std::string b = backend;
  o.num("mem.snoops." + b, static_cast<double>(ms.snoops))
      .num("mem.dram_txns." + b, static_cast<double>(ms.mem_txns()))
      .num("mem.c2c." + b, static_cast<double>(ms.c2c_transfers))
      .num("mem.l1_miss_pct." + b,
           pct(static_cast<double>(ms.l1_misses),
               static_cast<double>(ms.l1_hits + ms.l1_misses)));
}

void report_vlrd(JsonObj& o, const vlrd::VlrdStats& v) {
  auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  o.num("vlrd.pushes", d(v.pushes))
      .num("vlrd.push_nack_pct", pct(d(v.push_nacks), d(v.pushes)))
      .num("vlrd.quota_nack_pct", pct(d(v.push_quota_nacks), d(v.pushes)))
      .num("vlrd.fetch_nack_pct", pct(d(v.fetch_nacks), d(v.fetches)))
      .num("vlrd.inject_retry_pct",
           pct(d(v.inject_retry), d(v.inject_ok + v.inject_retry)));
}

// paper-kernels: the seven Table II kernels on all five backends, in the
// Fig. 11 configuration (scale 1, 15 bitonic workers). Seedless.

const char* const kKernels[] = {"ping-pong", "halo",    "sweep",   "incast",
                                "FIR",       "bitonic", "pipeline"};

struct BackendKey {
  Backend backend;
  const char* key;
};
const BackendKey kBackends[] = {{Backend::kBlfq, "blfq"},
                                {Backend::kZmq, "zmq"},
                                {Backend::kVl, "vl64"},
                                {Backend::kVlIdeal, "vlideal"},
                                {Backend::kCaf, "caf"}};

/// Messages each kernel moves at scale 1, from the kernels' definitions.
std::uint64_t expected_messages(const std::string& kernel) {
  if (kernel == "ping-pong") return 2 * 200;       // 200 round trips
  if (kernel == "halo") return 48 * 10;            // 48 grid edges x 10 iters
  if (kernel == "sweep") return 4 * 4 * 3 * 10;    // 4x4 grid: 48 links x 10
  if (kernel == "incast") return 15 * 600;         // 15 producers x 600
  if (kernel == "FIR") return 31 * 60;             // 31 stage links x 60
  if (kernel == "bitonic") return 2 * 15 * 36;     // 2/worker/phase, 36 phases
  if (kernel == "pipeline") return 4 * 40;         // 4 hops x 40 packets
  return 0;
}

workloads::RunConfig cell_config(const char* kernel, Backend b) {
  workloads::RunConfig rc = workloads::default_config(kernel);
  rc.backend = b;
  rc.scale = 1;
  rc.bitonic_workers = 15;
  return rc;
}

class PaperKernels : public Workload {
 public:
  void warm_up() override {
    for (const char* k : kKernels) workloads::run(k, cell_config(k, Backend::kVl));
  }

  // One slice per kernel, on all five backends.
  int slices() const override { return static_cast<int>(std::size(kKernels)); }

  void run_slice(int i, std::map<std::string, double>& backend_wall_s,
                 Checks& checks) override {
    const char* k = kKernels[i];
    const std::uint64_t want = expected_messages(k);
    for (const BackendKey& bk : kBackends) {
      const double t0 = mono_s();
      const workloads::WorkloadResult r =
          workloads::run(k, cell_config(k, bk.backend));
      backend_wall_s[bk.key] += mono_s() - t0;

      const std::string cell = std::string(k) + "/" + bk.key;
      bool ok = checks.expect(r.workload == k,
                              cell + ": kernel reported '" + r.workload + "'");
      ok &= checks.expect(r.messages == want,
                          cell + ": " + std::to_string(r.messages) +
                              " messages, expected " + std::to_string(want));
      const auto [it, first] = results_.emplace(cell, r);
      if (!first)
        ok &= checks.expect(r.digest() == it->second.digest(),
                            cell + ": digest '" + r.digest() +
                                "' differs from the first run's '" +
                                it->second.digest() + "'");
      attempted += want;
      if (!ok) failed += want;
    }
  }

  void report(Outputs& out) const override {
    std::vector<double> speedups, mem_cuts;
    double vl_msgs = 0, vl_ns = 0;
    for (const char* k : kKernels) {
      const auto& blfq = at(k, "blfq");
      const auto& vl = at(k, "vl64");
      const double s = blfq.ns / vl.ns;
      speedups.push_back(s);
      out.layers.num(std::string("workloads.") + k + ".vl_speedup_x", s);
      const double base = static_cast<double>(blfq.mem.mem_txns());
      if (base > 0)
        mem_cuts.push_back(100.0 *
                           (1.0 - static_cast<double>(vl.mem.mem_txns()) / base));
      vl_msgs += static_cast<double>(vl.messages);
      vl_ns += vl.ns;
    }
    double cut_sum = 0;
    for (double c : mem_cuts) cut_sum += c;
    const double geo = geomean(speedups);
    const double cut = cut_sum / static_cast<double>(mem_cuts.size());
    out.sim.num("vl_speedup_x", geo)
        .num("mem_traffic_cut_pct", cut)
        .num("sim_msgs_per_us", vl_msgs / (vl_ns / 1000.0));

    const double pp = at("ping-pong", "caf").ns / at("ping-pong", "vl64").ns;
    const double pipe = at("pipeline", "caf").ns / at("pipeline", "vl64").ns;
    out.layers.num("workloads.ping-pong.vl_over_caf_x", pp)
        .num("workloads.pipeline.vl_over_caf_x", pipe);
    out.fidelity.raw("vl_speedup_x", ref(geo, 2.09))
        .raw("mem_traffic_cut_pct", ref(cut, 61.0))
        .raw("workloads.ping-pong.vl_over_caf_x", ref(pp, 2.40))
        .raw("workloads.pipeline.vl_over_caf_x", ref(pipe, 1.22));

    std::string digests;
    for (const char* k : kKernels)
      for (const BackendKey& bk : kBackends) digests += at(k, bk.key).digest() + "\n";
    out.sim.str("digest_fnv1a", std::to_string(fnv1a(digests)));

    std::uint64_t events = 0, messages = 0, inj = 0, inj_rej = 0;
    vlrd::VlrdStats v;
    for (const BackendKey& bk : kBackends) {
      mem::MemStats ms;
      for (const char* k : kKernels) {
        const auto& r = at(k, bk.key);
        events += r.events;
        messages += r.messages;
        ms.snoops += r.mem.snoops;
        ms.dram_reads += r.mem.dram_reads;
        ms.dram_writes += r.mem.dram_writes;
        ms.c2c_transfers += r.mem.c2c_transfers;
        ms.l1_hits += r.mem.l1_hits;
        ms.l1_misses += r.mem.l1_misses;
        inj += r.mem.injections;
        inj_rej += r.mem.inject_rejects;
        if (bk.backend == Backend::kVl) add(v, r.vlrd);
      }
      report_mem(out.layers, bk.key, ms);
    }
    out.layers.num("mem.stash_accept_pct",
                   pct(static_cast<double>(inj), static_cast<double>(inj + inj_rej)));
    report_vlrd(out.layers, v);
    out.layers.num("sim.events", static_cast<double>(events))
        .num("sim.events_per_msg",
             static_cast<double>(events) / static_cast<double>(messages));
  }

  // workloads::run takes no hooks, so the traced pass builds each machine
  // through the same public calls run() makes and attaches the tracer to
  // its event queue.
  void traced(TracedPass& tp, Checks&) override {
    std::uint64_t ctx = 0, yields = 0;
    const double t0 = mono_s();
    for (const char* k : kKernels) {
      const workloads::WorkloadInfo* w = workloads::find_workload(k);
      for (const BackendKey& bk : kBackends) {
        const workloads::RunConfig rc = cell_config(k, bk.backend);
        sim::SystemConfig cfg = squeue::config_for(rc.backend);
        if (rc.backend == Backend::kVl && w->channel_count) {
          runtime::ChannelDemand d;
          d.relay_channels = w->channel_count(rc);
          cfg.vlrd.per_sqi_quota = runtime::size_quotas(cfg, d).per_sqi_quota;
        }
        runtime::Machine m(cfg);
        squeue::ChannelFactory f(m, rc.backend);
        obs::Tracer tracer;
        m.eq().set_trace(&tracer.buffer(0));
        const std::uint64_t ev0 = m.eq().executed();
        workloads::WorkloadResult r = w->kernel(m, f, rc);
        r.events = m.eq().executed() - ev0;
        m.eq().set_trace(nullptr);
        tp.fold.add(tracer.buffer(0));
        ctx += m.obs().value("core.ctx_switches");
        yields += m.obs().value("core.yields");

        const std::string cell = std::string(k) + "/" + bk.key;
        const std::string want = at(k, bk.key).digest();
        if (r.digest() != want)
          tp.perturbations.push_back(cell + ": traced '" + r.digest() +
                                     "' vs untraced '" + want + "'");
      }
    }
    tp.wall_s = mono_s() - t0;
    tp.extra.num("sim.ctx_switches", static_cast<double>(ctx))
        .num("sim.yields", static_cast<double>(yields));
  }

 private:
  const workloads::WorkloadResult& at(const char* kernel, const char* key) const {
    return results_.at(std::string(kernel) + "/" + key);
  }
  static std::string ref(double value, double paper) {
    return JsonObj()
        .num("value", value)
        .num("paper", paper)
        .num("error_pct", 100.0 * (value - paper) / paper)
        .json();
  }
  static void add(vlrd::VlrdStats& a, const vlrd::VlrdStats& b) {
    a.pushes += b.pushes;
    a.push_nacks += b.push_nacks;
    a.push_quota_nacks += b.push_quota_nacks;
    a.fetches += b.fetches;
    a.fetch_nacks += b.fetch_nacks;
    a.inject_ok += b.inject_ok;
    a.inject_retry += b.inject_retry;
  }

  std::map<std::string, workloads::WorkloadResult> results_;
};

// Shared by the two traffic workloads: conservation, latency and per-layer
// numbers from an EngineResult.

void check_conservation(const traffic::EngineResult& r, Checks& checks,
                        std::uint64_t& attempted, std::uint64_t& failed,
                        bool run_ok) {
  for (const traffic::TenantMetrics& t : r.metrics.tenants) {
    const bool ok =
        checks.expect(t.generated == t.delivered + t.dropped &&
                          t.sent == t.delivered,
                      "tenant " + t.tenant + ": generated=" +
                          std::to_string(t.generated) +
                          " sent=" + std::to_string(t.sent) +
                          " delivered=" + std::to_string(t.delivered) +
                          " dropped=" + std::to_string(t.dropped));
    attempted += t.generated;
    failed += ok && run_ok ? t.generated - std::min(t.generated, t.delivered)
                           : t.generated;
  }
}

const traffic::ClassAgg* latency_class(const std::vector<traffic::ClassAgg>& cs) {
  for (const traffic::ClassAgg& c : cs)
    if (c.cls == QosClass::kLatency) return &c;
  return nullptr;
}

void report_latency(JsonObj& sim, const traffic::LogHistogram& h,
                    const char* population) {
  const std::uint64_t p50 = h.percentile(50.0), p99 = h.percentile(99.0);
  sim.num("lat_p50_ticks", static_cast<double>(p50))
      .num("lat_p99_ticks", static_cast<double>(p99))
      .num("lat_samples", static_cast<double>(h.count()))
      .num("lat_beyond_p50", static_cast<double>(h.count() - h.count_le(p50)))
      .num("lat_beyond_p99", static_cast<double>(h.count() - h.count_le(p99)))
      .str("lat_population", population);
}

void report_traffic(Outputs& out, const traffic::EngineResult& r) {
  const StatSet& ds = r.device_stats;
  const auto classes = r.metrics.by_class();
  const traffic::ClassAgg* lat = latency_class(classes);
  out.sim.num("slo_attain_pct", lat ? lat->slo_attained_pct() : 0.0)
      .num("sim_msgs_per_us",
           static_cast<double>(r.metrics.total_delivered()) /
               (r.metrics.ns / 1000.0));

  const double delivered = static_cast<double>(r.metrics.total_delivered());
  std::uint64_t gen_lag = 0;
  for (const traffic::TenantMetrics& t : r.metrics.tenants)
    gen_lag += t.blocked_ticks;
  out.layers.num("sim.events", static_cast<double>(r.events))
      .num("sim.events_per_msg", static_cast<double>(r.events) / delivered)
      .num("sim.ctx_switches", static_cast<double>(ds.get("core.ctx_switches")))
      .num("sim.yields", static_cast<double>(ds.get("core.yields")))
      .num("traffic.gen_lag_ticks", static_cast<double>(gen_lag))
      .num("traffic.dropped", static_cast<double>(r.metrics.total_dropped()));

  mem::MemStats ms;
  ms.snoops = ds.get("mem.snoops");
  ms.dram_reads = ds.get("mem.dram_reads");
  ms.dram_writes = ds.get("mem.dram_writes");
  ms.c2c_transfers = ds.get("mem.c2c_transfers");
  ms.l1_hits = ds.get("mem.l1_hits");
  ms.l1_misses = ds.get("mem.l1_misses");
  report_mem(out.layers, "vl64", ms);
  const double inj = static_cast<double>(ds.get("mem.injections"));
  out.layers.num("mem.stash_accept_pct",
                 pct(inj, inj + static_cast<double>(ds.get("mem.inject_rejects"))));

  vlrd::VlrdStats v;
  v.pushes = ds.get("vlrd.pushes");
  v.push_nacks = ds.get("vlrd.push_nacks");
  v.push_quota_nacks = ds.get("vlrd.push_quota_nacks");
  v.fetches = ds.get("vlrd.fetches");
  v.fetch_nacks = ds.get("vlrd.fetch_nacks");
  v.inject_ok = ds.get("vlrd.inject_ok");
  v.inject_retry = ds.get("vlrd.inject_retry");
  report_vlrd(out.layers, v);
}

/// Traced run against the untraced one: events, ticks and per-tenant CSV.
void compare_runs(const traffic::EngineResult& traced,
                  const traffic::EngineResult& plain,
                  std::vector<std::string>& perturbations) {
  if (traced.events != plain.events)
    perturbations.push_back("events " + std::to_string(traced.events) +
                            " traced vs " + std::to_string(plain.events));
  if (traced.metrics.ticks != plain.metrics.ticks)
    perturbations.push_back("ticks " + std::to_string(traced.metrics.ticks) +
                            " traced vs " + std::to_string(plain.metrics.ticks));
  if (traced.csv() != plain.csv())
    perturbations.push_back("per-tenant CSV differs");
}

// qos-flood: qos-adversarial-bulk on VL64 through the classic engine, open
// loop, QoS supervisor on as the preset sets it, scaled to about 1 s.

constexpr int kQosScale = 20;

class QosFlood : public Workload {
 public:
  explicit QosFlood(std::uint64_t seed)
      : seed_(seed), spec_(*traffic::find_scenario("qos-adversarial-bulk")) {}

  void warm_up() override { traffic::run_spec(spec_, Backend::kVl, seed_, 1); }

  void run_slice(int, std::map<std::string, double>&, Checks& checks) override {
    traffic::EngineResult r =
        traffic::run_spec(spec_, Backend::kVl, seed_, kQosScale);
    const std::uint64_t digest = fnv1a(r.csv());
    const bool same =
        !first_ || checks.expect(digest == csv_digest_ &&
                                     r.events == first_->events,
                                 "csv digest or events differ from the first "
                                 "run");
    check_conservation(r, checks, attempted, failed, same);
    if (!first_) {
      first_ = std::make_unique<traffic::EngineResult>(std::move(r));
      csv_digest_ = digest;
    }
  }

  void report(Outputs& out) const override {
    const auto classes = first_->metrics.by_class();
    const traffic::ClassAgg* lat = latency_class(classes);
    report_latency(out.sim, lat->agg.latency, "latency class");
    report_traffic(out, *first_);
    out.sim.str("csv_fnv1a", std::to_string(csv_digest_));
  }

  void traced(TracedPass& tp, Checks&) override {
    obs::Tracer tracer;
    obs::RunHooks hooks;
    hooks.tracer = &tracer;
    const double t0 = mono_s();
    const traffic::EngineResult r =
        traffic::run_spec(spec_, Backend::kVl, seed_, kQosScale, &hooks);
    tp.wall_s = mono_s() - t0;
    tp.fold.add(tracer.buffer(0));
    compare_runs(r, *first_, tp.perturbations);
  }

 private:
  std::uint64_t seed_;
  traffic::ScenarioSpec spec_;
  std::unique_ptr<traffic::EngineResult> first_;
  std::uint64_t csv_digest_ = 0;
};

// mesh-diurnal: shard-diurnal on VL64, 8 shards stepped on 4 host threads
// through run_sharded.

constexpr int kMeshShards = 8;
constexpr int kMeshThreads = 4;
constexpr int kMeshScale = 4;

class MeshDiurnal : public Workload {
 public:
  explicit MeshDiurnal(std::uint64_t seed)
      : seed_(seed), spec_(*traffic::find_scenario("shard-diurnal")) {}

  bool single_threaded() const override { return false; }

  void warm_up() override {
    traffic::ShardedOptions o = opts(kMeshThreads);
    o.messages = 4096;
    traffic::run_sharded(spec_, Backend::kVl, seed_, o, 1);
  }

  void run_slice(int, std::map<std::string, double>&, Checks& checks) override {
    traffic::ShardedResult r = traffic::run_sharded(
        spec_, Backend::kVl, seed_, opts(kMeshThreads), kMeshScale);
    const std::uint64_t digest = fnv1a(r.engine.csv());
    const bool same =
        !first_ || checks.expect(digest == csv_digest_ &&
                                     r.shard_digests == first_->shard_digests &&
                                     r.engine.events == first_->engine.events,
                                 "csv digest, shard digests or events differ "
                                 "from the first run");
    check_conservation(r.engine, checks, attempted, failed, same);
    if (!first_) {
      first_ = std::make_unique<traffic::ShardedResult>(std::move(r));
      csv_digest_ = digest;
    }
  }

  void report(Outputs& out) const override {
    const traffic::EngineResult& e = first_->engine;
    traffic::TenantMetrics all;
    for (const traffic::TenantMetrics& t : e.metrics.tenants) all.merge(t);
    report_latency(out.sim, all.latency, "all tenants");
    report_traffic(out, e);
    const double delivered = static_cast<double>(e.metrics.total_delivered());
    out.layers.num("sim.epochs", static_cast<double>(first_->epochs))
        .num("sim.window_stalls", static_cast<double>(first_->window_stalls))
        .num("traffic.cross_shard_pct",
             pct(static_cast<double>(first_->cross_shard), delivered))
        .num("traffic.rebalanced", static_cast<double>(first_->rebalanced));
    std::vector<std::string> digests;
    for (std::uint64_t d : first_->shard_digests)
      digests.push_back(std::to_string(d));
    out.sim.str("csv_fnv1a", std::to_string(csv_digest_))
        .strs("shard_digests", digests);
  }

  // Traced pass on the threaded configuration, then one untraced pass on a
  // single host thread: its digests must equal the threaded ones.
  void traced(TracedPass& tp, Checks& checks) override {
    obs::Tracer tracer;
    obs::RunHooks hooks;
    hooks.tracer = &tracer;
    traffic::ShardedOptions o = opts(kMeshThreads);
    o.obs = &hooks;
    const double t0 = mono_s();
    const traffic::ShardedResult r =
        traffic::run_sharded(spec_, Backend::kVl, seed_, o, kMeshScale);
    tp.wall_s = mono_s() - t0;
    for (std::uint32_t pid = 0; pid <= kMeshShards; ++pid)
      tp.fold.add(tracer.buffer(pid));
    compare_runs(r.engine, first_->engine, tp.perturbations);
    if (r.shard_digests != first_->shard_digests)
      tp.perturbations.push_back("shard digests differ");

    const double s0 = mono_s();
    const traffic::ShardedResult seq =
        traffic::run_sharded(spec_, Backend::kVl, seed_, opts(1), kMeshScale);
    const double seq_wall = mono_s() - s0;
    checks.expect(seq.shard_digests == first_->shard_digests &&
                      seq.engine.csv() == first_->engine.csv(),
                  "1-thread shard digests or CSV differ from 4-thread");
    tp.extra.num("seq_wall_s", seq_wall);
  }

 private:
  static traffic::ShardedOptions opts(int threads) {
    traffic::ShardedOptions o;
    o.shards = kMeshShards;
    o.sim_threads = threads;
    return o;
  }

  std::uint64_t seed_;
  traffic::ScenarioSpec spec_;
  std::unique_ptr<traffic::ShardedResult> first_;
  std::uint64_t csv_digest_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper-kernels") return std::make_unique<PaperKernels>();
  if (name == "qos-flood") return std::make_unique<QosFlood>(seed);
  if (name == "mesh-diurnal") return std::make_unique<MeshDiurnal>(seed);
  return nullptr;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "vlbench: %s\nusage: vlbench --workload "
               "paper-kernels|qos-flood|mesh-diurnal --seed N --seconds S "
               "--trace 0|1 [--t0 NS] [--setup-only]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const double main_start = mono_s();
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false, setup_only = false;
  double t0 = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--setup-only") {
      setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") seconds = std::atof(v);
    else if (a == "--trace") trace = std::atoi(v) != 0;
    else if (a == "--t0") t0 = std::atof(v) * 1e-9;
    else return usage(("unknown flag " + a).c_str());
  }
  std::unique_ptr<Workload> w = make_workload(workload, seed);
  if (!w) return usage(("unknown workload '" + workload + "'").c_str());
  if (!(seconds > 0)) return usage("--seconds must be positive");

  w->warm_up();
  const double setup_raw = mono_s() - (t0 >= 0 ? t0 : main_start);

  // Host seconds at the reference speed, from the reference runs just
  // before and just after the measured interval; raw on the mesh workload.
  const bool paired = w->single_threaded();
  auto at_ref = [paired](double secs, double ref_before, double ref_after) {
    return paired ? secs * 2 * kReferenceSeconds / (ref_before + ref_after)
                  : secs;
  };
  auto ref_run = [paired] { return paired ? reference_run() : 0.0; };
  ref_run();  // the first run pays its page faults
  std::vector<double> refs = {ref_run()};
  const double setup_s = at_ref(setup_raw, refs[0], refs[0]);
  if (setup_only) {
    std::printf("%s\n", JsonObj()
                            .num("setup_s", setup_s)
                            .num("raw_setup_s", setup_raw)
                            .json()
                            .c_str());
    return 0;
  }

  // Timed repetitions: at least three, until the budget is spent. A
  // reference run follows each slice and precedes the next one.
  Checks checks;
  std::vector<Rep> reps;
  const double budget_start = mono_s();
  while (reps.size() < 3 || mono_s() - budget_start < seconds) {
    Rep rep;
    for (int i = 0; i < w->slices(); ++i) {
      std::map<std::string, double> backend_wall_s;
      const double w0 = mono_s(), c0 = cpu_s();
      w->run_slice(i, backend_wall_s, checks);
      const double cpu = cpu_s() - c0, wall = mono_s() - w0;
      refs.push_back(ref_run());
      auto norm = [&](double secs) {
        return at_ref(secs, refs[refs.size() - 2], refs.back());
      };
      rep.wall_s += norm(wall);
      rep.cpu_s += norm(cpu);
      rep.raw_wall_s += wall;
      rep.raw_cpu_s += cpu;
      for (const auto& [k, v] : backend_wall_s) rep.backend_wall_s[k] += norm(v);
    }
    reps.push_back(std::move(rep));
  }
  const double rss = peak_rss_mb();

  Outputs out;
  w->report(out);

  JsonObj result;
  result.str("workload", workload)
      .num("seed", static_cast<double>(seed))
      .num("setup_s", setup_s)
      .num("peak_rss_mb", rss);
  std::vector<double> wall, cpu, raw_wall, raw_cpu;
  std::map<std::string, std::vector<double>> by_backend;
  for (const Rep& r : reps) {
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
    raw_wall.push_back(r.raw_wall_s);
    raw_cpu.push_back(r.raw_cpu_s);
    for (const auto& [k, v] : r.backend_wall_s) by_backend[k].push_back(v);
  }
  JsonObj bw;
  for (const auto& [k, v] : by_backend) bw.nums(k, v);
  JsonObj rj;
  rj.nums("wall_s", wall)
      .nums("cpu_s", cpu)
      .raw("backend_wall_s", bw.json())
      .nums("raw_wall_s", raw_wall)
      .nums("raw_cpu_s", raw_cpu);
  if (paired) rj.num("ref_nominal_s", kReferenceSeconds).nums("ref_s", refs);
  result.raw("reps", rj.json());

  if (trace) {
    TracedPass tp;
    const double before = ref_run();
    w->traced(tp, checks);
    const double after = ref_run();
    result.raw("trace", tp.extra.num("wall_s", at_ref(tp.wall_s, before, after))
                            .strs("perturbations", tp.perturbations)
                            .raw("fold", tp.fold.json())
                            .json());
  }

  result.num("attempted", static_cast<double>(w->attempted))
      .num("failed", static_cast<double>(w->failed))
      .raw("checks", checks.json())
      .raw("sim", out.sim.json())
      .raw("layers", out.layers.json())
      .raw("fidelity", out.fidelity.json())
      .raw("build", JsonObj()
                        .str("compiler", VLBENCH_COMPILER)
                        .str("build_type", VLBENCH_BUILD_TYPE)
                        .json());
  std::printf("%s\n", result.json().c_str());
  return checks.all_ok() ? 0 : 1;
}
