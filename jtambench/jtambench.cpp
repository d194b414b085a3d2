// jtambench: the repository's benchmark harness.
//
//   jtambench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Runs one workload of the MD-vs-AM study through the driver entry points
// users call (driver::run_blocksize_sweep, driver::run_many,
// driver::run_workload_multi) and prints one JSON object on its last stdout
// line.  jtambench/run.py builds this binary, checks the simulation digests
// against the recorded ones and prints the benchmark's result line;
// jtambench/metrics.json declares every metric (unit, clock, layer).
//
// --trace 0 repeats untraced passes for --seconds and reports the
//   end-to-end metrics: pass wall and CPU (each driver call at its median
//   over the passes, summed), the median set-up time and the process's
//   peak RSS.  Times are rescaled by a reference loop run around each timed
//   call (see Reference), so that other tenants of a shared host move them
//   less.
// --trace 1 alternates untraced and traced passes and reports per-layer
//   metrics.  A traced pass times calls into each layer from this file:
//   single-node simulations compose the public calls the driver makes
//   (prepare_run, a TracePipeline with stage timing, Machine::run, the
//   workload oracle); multi-node simulations call run_workload_multi with
//   MultiOptions::host_profile, whose engine phase ledger splits the engine
//   wall.  Spans are kept in memory and written to --spans at exit.
//
// Every simulation's simulated statistics fold into a digest, so a traced
// simulation can be checked against its untraced twin and every pass
// against the recorded digests.

#include <sys/resource.h>
#if __has_include(<malloc.h>)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache_bank.h"
#include "cache/stack_sim.h"
#include "driver/experiment.h"
#include "driver/trace_buffer.h"
#include "mem/memory_map.h"
#include "metrics/granularity.h"
#include "obs/host.h"
#include "programs/registry.h"
#include "support/error.h"
#include "support/json.h"
#include "support/thread_pool.h"
#include "tamc/lower.h"

namespace {

using namespace jtam;  // NOLINT(build/namespaces)
using Clock = std::chrono::steady_clock;

/// The paper's §3.3 block-size sweep, as `bench_fig3 --blocks=all` runs it.
constexpr std::uint32_t kBlocks[] = {8, 16, 32, 64};

/// Set-up is measured at least kMinSetupReps times per run, after one
/// discarded warm-up repetition, and more while the repetitions stay within
/// kSetupShare of --seconds (at most kMaxSetupReps); its median is
/// reported.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 51;
constexpr double kSetupShare = 0.2;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return static_cast<double>(ns_between(t0, Clock::now())) / 1e9;
}

struct Usage {
  double cpu_s = 0;
  std::int64_t minor_faults = 0;
  double peak_rss_mb = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.minor_faults = ru.ru_minflt;
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

double median(std::vector<double> v) {
  JTAM_CHECK(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// --- digests ---------------------------------------------------------------

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add_cache_stats(Digest& d, const cache::CacheStats& s) {
  d.add(s.accesses);
  d.add(s.misses);
  d.add(s.writebacks);
}

void add_histogram(Digest& d, const obs::Histogram& h) {
  d.add(h.count());
  d.add(h.sum());
  d.add(h.min());
  d.add(h.max());
  for (int b = 0; b < obs::Histogram::kBuckets; ++b) d.add(h.bucket_count(b));
}

/// What one simulation produced.  `error` is empty when the machine halted
/// and the workload's oracle passed.
struct Outcome {
  std::string digest;
  std::string error;
  std::uint64_t instructions = 0;
  std::uint64_t cache_accesses = 0;  // references fed to the stack engine
  std::uint64_t trace_blocks = 0;    // traced single-node runs only
  std::uint64_t rounds = 0;
  std::uint64_t node_rounds = 0;     // rounds x nodes
  std::uint64_t inj_stall_cycles = 0;
  std::uint64_t messages = 0;
};

/// Single-node digest: run status, instruction count, granularity, access
/// counts and every cache configuration's I/D statistics, in ladder order.
Outcome single_outcome(mdp::RunStatus status, std::uint32_t halt_value,
                       std::uint64_t instructions,
                       const metrics::Granularity& g,
                       const metrics::AccessCounts& c,
                       const std::vector<driver::ConfigResult>& cache,
                       std::string error) {
  Digest d;
  d.add(static_cast<std::uint64_t>(status));
  d.add(halt_value);
  d.add(instructions);
  for (std::uint64_t v :
       {g.threads, g.inlets, g.quanta, g.activations, g.fp_calls,
        g.thread_instrs, g.inlet_instrs, g.sched_instrs, g.handler_instrs,
        g.quantum_instrs}) {
    d.add(v);
  }
  for (int l = 0; l < metrics::kNumLevels; ++l) {
    for (int r = 0; r < metrics::kNumRegions; ++r) {
      d.add(c.fetch[l][r]);
      d.add(c.read[l][r]);
      d.add(c.write[l][r]);
    }
  }
  Outcome o;
  std::uint32_t group_block = 0;
  for (const driver::ConfigResult& cr : cache) {
    d.add(cr.config.size_bytes);
    d.add(cr.config.block_bytes);
    d.add(cr.config.assoc);
    add_cache_stats(d, cr.icache);
    add_cache_stats(d, cr.dcache);
    // Every configuration of one block size sees the same two streams.
    if (cr.config.block_bytes != group_block) {
      group_block = cr.config.block_bytes;
      o.cache_accesses += cr.icache.accesses + cr.dcache.accesses;
    }
  }
  o.digest = d.hex();
  o.error = std::move(error);
  o.instructions = instructions;
  return o;
}

Outcome result_outcome(const std::vector<driver::RunResult>& rs) {
  const driver::RunResult& r0 = rs.front();
  std::vector<driver::ConfigResult> cache;
  std::string error;
  for (const driver::RunResult& r : rs) {
    cache.insert(cache.end(), r.cache.begin(), r.cache.end());
    if (error.empty() && !r.ok()) {
      error = r.check_error.empty() ? "run did not halt" : r.check_error;
    }
    if (error.empty() && r.instructions != r0.instructions) {
      error = "block-size slices disagree on the instruction count";
    }
  }
  return single_outcome(r0.status, r0.halt_value, r0.instructions, r0.gran,
                        r0.counts, cache, std::move(error));
}

/// Multi-node digest: run status, rounds, per-node instruction and stall
/// counts, and the whole NetStats block.
Outcome multi_outcome(const driver::MultiRunResult& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.status));
  d.add(r.halt_value);
  d.add(r.rounds);
  d.add(r.total_instructions);
  d.add(r.messages);
  d.add(r.injection_stall_cycles);
  d.add(r.stalled_sends);
  d.add(r.per_node_instructions.size());
  for (std::uint64_t v : r.per_node_instructions) d.add(v);
  for (std::uint64_t v : r.per_node_injection_stalls) d.add(v);
  const net::NetStats& ns = r.net_stats;
  d.add(ns.messages);
  d.add(ns.flits);
  d.add(ns.cycles);
  add_histogram(d, ns.hops);
  add_histogram(d, ns.latency);
  d.add(ns.links.size());
  for (const net::LinkStats& l : ns.links) {
    for (std::int64_t v : {std::int64_t{l.src}, std::int64_t{l.dst},
                           std::int64_t{l.dim}, std::int64_t{l.dir}}) {
      d.add(static_cast<std::uint64_t>(v));
    }
    d.add(l.flits);
    d.add(l.packets);
    d.add(l.peak_occupancy);
  }
  const net::AggStats& a = ns.agg;
  for (std::uint64_t v : {a.bundles, a.bundled_messages, a.bypass_messages,
                          a.relay_forwards, a.flush_size, a.flush_timeout}) {
    d.add(v);
  }
  add_histogram(d, a.bundle_messages);
  add_histogram(d, a.bundle_words);
  add_histogram(d, a.buffer_wait);

  Outcome o;
  o.digest = d.hex();
  if (!r.ok()) o.error = r.check_error.empty() ? "run failed" : r.check_error;
  o.instructions = r.total_instructions;
  o.rounds = r.rounds;
  o.node_rounds = r.rounds * static_cast<std::uint64_t>(r.num_nodes);
  o.inj_stall_cycles = r.injection_stall_cycles;
  o.messages = r.messages;
  return o;
}

// --- workloads -------------------------------------------------------------

enum class Kind { Sweep, Granularity, Multi };

struct Spec {
  const char* name;
  Kind kind;
};

// Why these three: each loads a different layer (jtambench/metrics.json
// records the layer -> metric -> workload mapping).
//   paper_sweep  the cache layer (stack engine) dominates;
//   granularity  the same inputs without the cache: interpreter, stats
//                replay and run_many scheduling;
//   multinode    both kEnsembles: ensemble construction and the round loop
//                on the ideal wire, and the only simulations where src/net
//                does real work on the mesh.
constexpr Spec kSpecs[] = {
    {"paper_sweep", Kind::Sweep},
    {"granularity", Kind::Granularity},
    {"multinode", Kind::Multi},
};

/// The multinode workload's ensembles.  The mesh shares a workload with the
/// 512-node ensemble rather than having one of its own: on a shared host
/// its network step slowed by a quarter for minutes at a time, beyond what
/// the reference loop corrects, while the 512-node runs, four fifths of the
/// pass, held steady.  27 nodes rather than 64, because the 64-node mesh
/// swung twice as much.
struct Ensemble {
  const char* tag;
  int nodes;
  net::NetKind net;
};
constexpr Ensemble kEnsembles[] = {
    {"ideal512", 512, net::NetKind::Ideal},
    {"mesh27", 27, net::NetKind::Mesh},
};

struct Sim {
  std::string id;  // "<program>/<MD|AM>", then "/<ensemble tag>" if multi-node
  programs::Workload w;
  driver::RunOptions opts;
  driver::MultiOptions multi;  // multi-node simulations only
};

/// The benchmark seed picks quicksort's input (the only seeded program);
/// seed 0 is the registry's default input.
std::uint32_t qs_seed(std::uint64_t seed) {
  return static_cast<std::uint32_t>(0x1234abcdULL +
                                    seed * 0x9E3779B97F4A7C15ULL);
}

std::vector<Sim> make_sims(const Spec& spec, std::uint64_t seed) {
  std::vector<programs::Workload> ws;
  if (spec.kind == Kind::Multi) {
    // bench_multinode's default scale.
    const programs::Scale s{16, 80, 12, 11, 16, 3, 60};
    ws.push_back(programs::make_mmt(s.mmt_n));
    ws.push_back(programs::make_quicksort(s.qs_n, qs_seed(seed)));
  } else {
    // The paper scale, in paper_workloads order.
    const programs::Scale s{};
    ws.push_back(programs::make_mmt(s.mmt_n));
    ws.push_back(programs::make_quicksort(s.qs_n, qs_seed(seed)));
    ws.push_back(programs::make_dtw(s.dtw_n));
    ws.push_back(programs::make_paraffins(s.paraffins_n));
    ws.push_back(programs::make_wavefront(s.wavefront_n, s.wavefront_steps));
    ws.push_back(programs::make_selection_sort(s.ss_n));
  }
  std::vector<Sim> sims;
  for (const programs::Workload& w : ws) {
    for (rt::BackendKind b :
         {rt::BackendKind::MessageDriven, rt::BackendKind::ActiveMessages}) {
      Sim s{w.name + (b == rt::BackendKind::MessageDriven ? "/MD" : "/AM"), w,
            {}, {}};
      s.opts.backend = b;
      s.opts.with_cache = spec.kind == Kind::Sweep;
      sims.push_back(std::move(s));
    }
  }
  if (spec.kind != Kind::Multi) return sims;
  std::vector<Sim> multi;
  for (const Ensemble& e : kEnsembles) {
    for (Sim s : sims) {
      s.id += std::string("/") + e.tag;
      s.multi.num_nodes = e.nodes;
      s.multi.net = e.net;
      multi.push_back(std::move(s));
    }
  }
  return multi;
}

/// Runs whose memo misses a pass must show: single-node simulations go
/// through the run memo (one miss each); multi-node runs are never memoized.
std::uint64_t expected_memo_misses(const Spec& spec, std::size_t sims) {
  return spec.kind == Kind::Multi ? 0 : sims;
}

/// Concurrency of a pass: run_many's worker count for the granularity batch,
/// one simulation at a time otherwise.
unsigned pass_workers(const Spec& spec, std::size_t sims) {
  if (spec.kind != Kind::Granularity) return 1;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::min<std::size_t>(hw, sims));
}

// --- host speed reference ----------------------------------------------------

/// The benchmark host may be shared: on a 4-vCPU Xeon guest, other tenants
/// slowed a fixed loop by up to half again, in spells from a fraction of a
/// second to minutes, with no steal time and no hardware counters to show
/// it.  So each timed call is bracketed by a reference loop that shares no
/// code with the simulator, and the call's time is rescaled to a host on
/// which that loop takes kReferenceSeconds (about its single-thread time on
/// that guest when quiet).  The rescaled time follows the simulator's own
/// cost, not the neighbours'; the raw times stay in the report line.
constexpr double kReferenceSeconds = 0.0055;
constexpr int kReferenceSteps = 400000;

/// The reference loop: switch dispatch over pseudo-random opcodes with a
/// dependent load from a small table on every step, so it is bound by
/// branch mispredictions and load latency, as the interpreter and the
/// network model's flit loop are.
class Reference {
 public:
  /// `threads` loops run at once per sample, one per thread the measured
  /// calls keep busy.
  explicit Reference(unsigned threads)
      : threads_(std::max(1u, threads)), table_(1u << 12) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint32_t& t : table_) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      t = static_cast<std::uint32_t>(x >> 32);
    }
    sample();  // fault the table in
  }

  /// Seconds of one reference loop per thread: their mean, which CPU time
  /// follows, and the slowest, which the wall of a parallel call follows.
  struct Sample {
    double mean = 0;
    double slowest = 0;
  };
  Sample sample() {
    if (threads_ == 1) {
      const double t = run_loop(0);
      return {t, t};
    }
    std::vector<double> t(threads_);
    {
      std::vector<std::jthread> ts;  // joined before `t` is read
      for (unsigned i = 0; i < threads_; ++i) {
        ts.emplace_back([this, &t, i] { t[i] = run_loop(i); });
      }
    }
    Sample s;
    for (double v : t) {
      s.mean += v / threads_;
      s.slowest = std::max(s.slowest, v);
    }
    return s;
  }

  /// `seconds` measured between reference samples `before` and `after`,
  /// rescaled to the reference host.
  static double rescale(double seconds, double before, double after) {
    return seconds * kReferenceSeconds / ((before + after) / 2);
  }

 private:
  double run_loop(unsigned salt) const {
    const auto t0 = Clock::now();
    const std::uint32_t mask = static_cast<std::uint32_t>(table_.size() - 1);
    std::uint64_t x = 88172645463325252ULL + salt, acc = 0;
    std::uint32_t p = 0;
    for (int i = 0; i < kReferenceSteps; ++i) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      p = table_[(p ^ static_cast<std::uint32_t>(x)) & mask];
      switch ((x ^ p) & 7) {
        case 0: acc += x >> 3; break;
        case 1: acc ^= x * 3; break;
        case 2: acc = (acc << 1) | (acc >> 63); break;
        case 3: acc -= p; break;
        case 4: acc += acc >> 5; break;
        case 5: acc ^= 0x5bd1e995; break;
        case 6: acc *= 0x2545F4914F6CDD1DULL; break;
        default: acc += static_cast<std::uint64_t>(i); break;
      }
    }
    sink_.fetch_add(acc, std::memory_order_relaxed);
    return seconds_since(t0);
  }

  unsigned threads_;
  std::vector<std::uint32_t> table_;
  mutable std::atomic<std::uint64_t> sink_{0};  // keeps the loops live
};

/// Threads a pass keeps busy: the run_many batch and the sweep's cache-bank
/// shards use every CPU; the multi-node engine runs serially.
unsigned busy_threads(const Spec& spec) {
  if (spec.kind == Kind::Multi) return 1;
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Host cost of one driver call of a pass: raw, and rescaled by the
/// reference samples taken just before and just after it.
struct Cost {
  double wall_s = 0;
  double cpu_s = 0;
  double ref_wall_s = 0;
  double ref_cpu_s = 0;
  double reference_s = 0;  // slowest thread, mean of the two samples
};

template <class F>
auto timed(std::vector<Cost>& costs, Reference& ref, F&& call) {
  const Reference::Sample before = ref.sample();
  const Usage u0 = usage_now();
  const auto t0 = Clock::now();
  auto result = call();
  const double wall = seconds_since(t0);
  const double cpu = usage_now().cpu_s - u0.cpu_s;
  const Reference::Sample after = ref.sample();
  costs.push_back(
      Cost{wall, cpu, Reference::rescale(wall, before.slowest, after.slowest),
           Reference::rescale(cpu, before.mean, after.mean),
           (before.slowest + after.slowest) / 2});
  return result;
}

/// One untraced pass: exactly the driver calls the bench binaries make,
/// each timed into `costs`.
std::vector<Outcome> untraced_pass(const Spec& spec,
                                   const std::vector<Sim>& sims,
                                   Reference& ref, std::vector<Cost>& costs) {
  std::vector<Outcome> out;
  switch (spec.kind) {
    case Kind::Sweep:
      for (const Sim& s : sims) {
        out.push_back(result_outcome(timed(costs, ref, [&] {
          return driver::run_blocksize_sweep(s.w, s.opts, kBlocks);
        })));
      }
      break;
    case Kind::Granularity: {
      std::vector<driver::RunRequest> reqs;
      for (const Sim& s : sims) reqs.push_back({s.w, s.opts});
      for (const driver::RunResult& r :
           timed(costs, ref, [&] { return driver::run_many(reqs); })) {
        out.push_back(result_outcome({r}));
      }
      break;
    }
    case Kind::Multi:
      for (const Sim& s : sims) {
        out.push_back(multi_outcome(timed(costs, ref, [&] {
          return driver::run_workload_multi(s.w, s.opts, s.multi);
        })));
      }
      break;
  }
  return out;
}

/// Host seconds to bring every simulation of a pass to its first simulated
/// instruction: prepare_run per single-node simulation, a one-round
/// run_workload_multi per multi-node one.
double setup_seconds(const Spec& spec, const std::vector<Sim>& sims) {
  const auto t0 = Clock::now();
  for (const Sim& s : sims) {
    if (spec.kind == Kind::Multi) {
      driver::RunOptions one_round = s.opts;
      one_round.max_instructions = 1;
      driver::run_workload_multi(s.w, one_round, s.multi);
    } else {
      driver::prepare_run(s.w, s.opts);
    }
  }
  return seconds_since(t0);
}

// --- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int sim = -1;  // index into the pass's simulations; -1 for the pass
};

/// In-memory span log of one traced pass; safe to append from the
/// granularity pass's worker threads.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  int open(const std::string& name, int parent, int sim) {
    const std::int64_t now = ns_between(epoch_, Clock::now());
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{name, now, now, parent, sim});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    const std::int64_t now = ns_between(epoch_, Clock::now());
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = now;
  }
  /// An interval a library observer measured (a stage or engine phase
  /// total): only its length is known, so it is laid at `start_ns`.
  int add(const std::string& name, int parent, int sim, std::int64_t start_ns,
          std::int64_t ns) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{name, start_ns, start_ns + ns, parent, sim});
    return static_cast<int>(spans_.size() - 1);
  }
  std::int64_t start_of(int id) const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_[static_cast<std::size_t>(id)].start_ns;
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Compile once outside the simulation, so the compile share of the driver
/// call that compiles internally can be laid inside its span.
std::int64_t compile_probe_ns(const Sim& s, const Spec& spec) {
  tamc::CompileOptions copts;
  copts.backend = s.opts.backend;
  copts.am_enabled_variant = s.opts.am_enabled_variant;
  copts.md = s.opts.md;
  if (spec.kind == Kind::Multi) {
    copts.multi_node = true;
    copts.node_shift = mem::node_shift_for_nodes(s.multi.num_nodes);
  }
  const auto t0 = Clock::now();
  tamc::compile(s.w.program, copts);
  return ns_between(t0, Clock::now());
}

/// One traced single-node simulation, composing the driver's public calls
/// the way run_workload does: prepare_run, then Machine::run streaming into
/// a TracePipeline (stats replay, and the stack-engine cache ladder when
/// `ladder` is given) with stage timing on, then the oracle.
Outcome traced_single(const Spec& spec, const Sim& s,
                      const std::vector<cache::CacheConfig>* ladder,
                      SpanLog& log, int parent, int sim) {
  const std::int64_t compile_ns = compile_probe_ns(s, spec);
  const int root = log.open("sim", parent, sim);
  const int prep_span = log.open("driver.prepare_run", root, sim);
  driver::PreparedRun prep = driver::prepare_run(s.w, s.opts);
  log.close(prep_span);
  log.add("tamc.compile", prep_span, sim, log.start_of(prep_span),
          compile_ns);
  mdp::Machine& m = *prep.machine;

  // run_workload's cache sharding: one shard per CPU on the shared pool.
  unsigned workers = s.opts.cache_workers;
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  metrics::StatsSink sink(s.opts.backend, nullptr);
  driver::TracePipeline pipe;
  driver::StatsReplay stats(&sink);
  pipe.add(&stats, "driver.stats_replay");
  std::optional<cache::StackSimBank> bank;
  std::optional<driver::StackBankConsumer> stack;
  if (ladder != nullptr) {
    bank.emplace(*ladder, workers);
    stack.emplace(&*bank,
                  workers > 1 ? &support::ThreadPool::shared() : nullptr);
    pipe.add(&*stack, "cache.stack");
  }
  pipe.enable_stage_timing();

  const int run_span = log.open("mdp.run", root, sim);
  mdp::TraceBuffer buf(&pipe);
  m.set_trace_buffer(&buf);
  const mdp::RunStatus status = m.run();
  buf.flush();
  m.set_trace_buffer(nullptr);
  log.close(run_span);
  std::int64_t at = log.start_of(run_span);
  for (const driver::TracePipeline::StageTime& st : pipe.stage_times()) {
    const auto ns = static_cast<std::int64_t>(st.ns);
    log.add(st.name, run_span, sim, at, ns);
    at += ns;
  }

  const int check_span = log.open("driver.check", root, sim);
  std::string error;
  if (status == mdp::RunStatus::Halted) {
    error = s.w.check(programs::CheckCtx{m, status, m.halt_value()});
  } else {
    error = std::string("machine did not halt: ") +
            mdp::run_status_name(status);
  }
  log.close(check_span);

  std::vector<driver::ConfigResult> cache;
  if (bank) {
    for (std::size_t i = 0; i < bank->size(); ++i) {
      cache.push_back(driver::ConfigResult{bank->configs()[i],
                                           bank->istats(i), bank->dstats(i)});
    }
  }
  Outcome o = single_outcome(status, m.halt_value(), m.instructions_executed(),
                             sink.granularity(), sink.counts(), cache,
                             std::move(error));
  o.trace_blocks = pipe.stage_times().front().blocks;
  log.close(root);
  return o;
}

const char* phase_span_name(int p) {
  switch (static_cast<mdp::EngineProfiler::Phase>(p)) {
    case mdp::EngineProfiler::Phase::NetStep:
      return "net.step";
    case mdp::EngineProfiler::Phase::NodeStep:
      return "mdp.node_step";
    default:
      return obs::HostReport::phase_name(p);
  }
}

/// One traced multi-node simulation: the driver call with the engine's
/// phase ledger attached.  Compile and the engine phases are laid inside
/// the call's span; its self time is ensemble construction, boot and
/// teardown.
Outcome traced_multi(const Spec& spec, const Sim& s, SpanLog& log, int parent,
                     int sim) {
  const std::int64_t compile_ns = compile_probe_ns(s, spec);
  const int root = log.open("sim", parent, sim);
  const int call = log.open("driver.run_workload_multi", root, sim);
  driver::MultiOptions mo = s.multi;
  mo.host_profile = true;
  const driver::MultiRunResult r = driver::run_workload_multi(s.w, s.opts, mo);
  log.close(call);
  std::int64_t at = log.start_of(call);
  log.add("tamc.compile", call, sim, at, compile_ns);
  at += compile_ns;
  JTAM_CHECK(r.host != nullptr, "host_profile produced no report");
  const obs::HostReport& hr = *r.host;
  const int engine = log.add("mdp.engine", call, sim, at,
                             static_cast<std::int64_t>(hr.engine_wall_ns));
  for (int p = 0; p < obs::HostReport::kNumPhases; ++p) {
    const auto ns = static_cast<std::int64_t>(hr.phase_ns[p]);
    if (ns == 0) continue;
    log.add(phase_span_name(p), engine, sim, at, ns);
    at += ns;
  }
  log.close(root);
  return multi_outcome(r);
}

std::vector<Outcome> traced_pass(const Spec& spec,
                                 const std::vector<Sim>& sims, SpanLog& log,
                                 int pass_span) {
  std::vector<Outcome> out(sims.size());
  switch (spec.kind) {
    case Kind::Sweep: {
      std::vector<cache::CacheConfig> ladder;
      for (std::uint32_t b : kBlocks) {
        const std::vector<cache::CacheConfig> part = cache::paper_ladder(b);
        ladder.insert(ladder.end(), part.begin(), part.end());
      }
      for (std::size_t i = 0; i < sims.size(); ++i) {
        out[i] = traced_single(spec, sims[i], &ladder, log, pass_span,
                               static_cast<int>(i));
      }
      break;
    }
    case Kind::Granularity: {
      // run_many's schedule: the caller plus workers - 1 pool threads.
      const unsigned w = pass_workers(spec, sims.size());
      const auto one = [&](std::size_t i) {
        out[i] = traced_single(spec, sims[i], nullptr, log, pass_span,
                               static_cast<int>(i));
      };
      if (w <= 1) {
        for (std::size_t i = 0; i < sims.size(); ++i) one(i);
      } else {
        support::ThreadPool pool(w - 1);
        pool.parallel_for(sims.size(), one);
      }
      break;
    }
    case Kind::Multi:
      for (std::size_t i = 0; i < sims.size(); ++i) {
        out[i] = traced_multi(spec, sims[i], log, pass_span,
                              static_cast<int>(i));
      }
      break;
  }
  return out;
}

/// Per-layer metrics of one traced pass: layer self times from the span
/// tree (a span's self time is its length minus its children's), plus the
/// simulated counts.
std::map<std::string, double> layer_metrics(
    const std::vector<Span>& spans, const std::vector<Outcome>& outs,
    unsigned workers, std::int64_t minor_faults) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& sp : spans) {
    if (sp.parent >= 0) {
      child_s[static_cast<std::size_t>(sp.parent)] +=
          static_cast<double>(sp.end_ns - sp.start_ns) / 1e9;
    }
  }
  std::map<std::string, double> dur, self;
  double longest_sim = 0;
  double pass_s = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e9;
    dur[spans[i].name] += d;
    self[spans[i].name] += d - child_s[i];
    if (spans[i].name == "sim") longest_sim = std::max(longest_sim, d);
    if (spans[i].parent < 0) pass_s += d;
  }
  std::map<std::string, double> m;
  m["tamc.compile_s"] = dur["tamc.compile"];
  m["mdp.prepare_s"] = self["driver.prepare_run"];
  m["mdp.interp_s"] = self["mdp.run"];
  m["driver.stats_replay_s"] = dur["driver.stats_replay"];
  m["cache.stack_s"] = dur["cache.stack"];
  m["mdp.ensemble_setup_s"] = self["driver.run_workload_multi"];
  m["mdp.engine_s"] = dur["mdp.engine"];
  m["mdp.node_step_s"] = dur["mdp.node_step"];
  m["net.step_s"] = dur["net.step"];

  const double claimed = m["tamc.compile_s"] + m["mdp.prepare_s"] +
                         m["mdp.interp_s"] + m["driver.stats_replay_s"] +
                         m["cache.stack_s"] + m["mdp.ensemble_setup_s"] +
                         m["mdp.node_step_s"] + m["net.step_s"];
  const double sim_total = dur["sim"];
  m["bench.unattributed_frac"] =
      sim_total > 0 ? 1.0 - claimed / sim_total : 0.0;
  const double ideal =
      std::max(longest_sim, sim_total / static_cast<double>(workers));
  m["driver.sched_ratio"] = ideal > 0 ? pass_s / ideal : 0.0;

  Outcome tot;
  for (const Outcome& o : outs) {
    tot.instructions += o.instructions;
    tot.cache_accesses += o.cache_accesses;
    tot.trace_blocks += o.trace_blocks;
    tot.rounds += o.rounds;
    tot.node_rounds += o.node_rounds;
    tot.inj_stall_cycles += o.inj_stall_cycles;
    tot.messages += o.messages;
  }
  const auto as_d = [](std::uint64_t v) { return static_cast<double>(v); };
  m["mdp.instructions"] = as_d(tot.instructions);
  m["mdp.ns_per_instr"] =
      tot.instructions > 0
          ? (m["mdp.interp_s"] + m["mdp.node_step_s"]) * 1e9 /
                as_d(tot.instructions)
          : 0.0;
  m["driver.trace_blocks"] = as_d(tot.trace_blocks);
  m["cache.accesses"] = as_d(tot.cache_accesses);
  m["cache.ns_per_access"] =
      tot.cache_accesses > 0
          ? m["cache.stack_s"] * 1e9 / as_d(tot.cache_accesses)
          : 0.0;
  m["mdp.rounds"] = as_d(tot.rounds);
  m["mdp.awake_frac"] =
      tot.node_rounds > 0
          ? as_d(tot.instructions + tot.inj_stall_cycles) /
                as_d(tot.node_rounds)
          : 0.0;
  m["net.messages"] = as_d(tot.messages);
  m["net.inj_stall_cycles"] = as_d(tot.inj_stall_cycles);
  m["mem.minor_faults"] = static_cast<double>(minor_faults);
  return m;
}

// --- run bookkeeping --------------------------------------------------------

/// Per-simulation tally over every pass of the run.  A simulation fails
/// when it did not halt, its oracle failed, its pass tripped the memo trap,
/// or its digest differs from the one its first pass produced.
struct Tally {
  std::string digest;
  std::string error;
  std::uint64_t runs = 0;
  std::uint64_t failed = 0;
};

void record(std::vector<Tally>& tally, const std::vector<Outcome>& outs,
            const std::string& pass_error) {
  for (std::size_t i = 0; i < outs.size(); ++i) {
    Tally& t = tally[i];
    const Outcome& o = outs[i];
    ++t.runs;
    if (t.digest.empty()) t.digest = o.digest;
    std::string err = !pass_error.empty() ? pass_error : o.error;
    if (err.empty() && o.digest != t.digest) {
      err = "digest changed between passes (" + t.digest + " -> " + o.digest +
            ")";
    }
    if (!err.empty()) {
      ++t.failed;
      if (t.error.empty()) t.error = err;
    }
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    JTAM_CHECK(i + 1 < argc, "flag " + k + " needs a value");
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      JTAM_CHECK(v == "0" || v == "1", "--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans_path = v;
    } else {
      throw Error("unknown flag " + k);
    }
  }
  JTAM_CHECK(!a.workload.empty(), "--workload is required");
  JTAM_CHECK(a.seconds > 0, "--seconds must be positive");
  return a;
}

const Spec& find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return s;
  }
  std::string known;
  for (const Spec& s : kSpecs) {
    known += std::string(known.empty() ? "" : ", ") + s.name;
  }
  throw Error("unknown workload '" + name + "' (known: " + known + ")");
}

void write_spans(const std::string& path, const Args& a,
                 const std::vector<Sim>& sims,
                 const std::vector<std::vector<Span>>& passes) {
  std::ofstream out(path);
  JTAM_CHECK(static_cast<bool>(out), "cannot write spans to " + path);
  out << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
      << ", \"clock\": \"host steady_clock ns since pass start\", \"sims\": [";
  for (std::size_t i = 0; i < sims.size(); ++i) {
    out << (i == 0 ? "" : ", ") << '"' << sims[i].id << '"';
  }
  out << "], \"passes\": [";
  for (std::size_t p = 0; p < passes.size(); ++p) {
    out << (p == 0 ? "\n" : ",\n") << " [";
    for (std::size_t i = 0; i < passes[p].size(); ++i) {
      const Span& s = passes[p][i];
      out << (i == 0 ? "\n  " : ",\n  ") << "{\"name\": \"" << s.name
          << "\", \"start\": " << s.start_ns << ", \"end\": " << s.end_ns
          << ", \"parent\": " << s.parent << ", \"sim\": " << s.sim << "}";
    }
    out << "]";
  }
  out << "\n]}\n";
}

void print_result(const Args& a, const std::vector<Sim>& sims,
                  const std::vector<Tally>& tally, std::uint64_t passes,
                  const std::map<std::string, double>& metrics,
                  const std::map<std::string, std::vector<double>>& samples) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
     << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"passes\": " << passes
     << ", \"provenance\": {\"build_type\": \"" << JTAMBENCH_BUILD_TYPE
     << "\", \"compiler\": \"" << json::escape(JTAMBENCH_COMPILER)
     << "\", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"reference_s\": " << kReferenceSeconds << "}, \"sims\": [";
  for (std::size_t i = 0; i < sims.size(); ++i) {
    const Tally& t = tally[i];
    os << (i == 0 ? "" : ", ") << "{\"id\": \"" << sims[i].id
       << "\", \"digest\": \"" << t.digest << "\", \"runs\": " << t.runs
       << ", \"failed\": " << t.failed << ", \"error\": \""
       << json::escape(t.error) << "\"}";
  }
  os << "], \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : metrics) {
    os << (first ? "" : ", ") << '"' << k << "\": " << v;
    first = false;
  }
  os << "}, \"samples\": {";
  first = true;
  for (const auto& [k, vs] : samples) {
    os << (first ? "" : ", ") << '"' << k << "\": [";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      os << (i == 0 ? "" : ", ") << vs[i];
    }
    os << "]";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(const Args& a) {
  const Spec& spec = find_spec(a.workload);
  const std::vector<Sim> sims = make_sims(spec, a.seed);
  const std::uint64_t want_misses = expected_memo_misses(spec, sims.size());
  std::vector<Tally> tally(sims.size());

  // The memo trap: a pass served from the run memo would time nothing.
  const auto memo_error = [&]() -> std::string {
    const std::uint64_t misses = driver::run_memo_stats().misses;
    if (misses == want_misses) return {};
    return "memo trap: " + std::to_string(misses) + " misses, expected " +
           std::to_string(want_misses);
  };
  Reference pass_ref(busy_threads(spec));
  // One untraced pass; returns the cost of each of its driver calls.
  const auto untraced = [&]() {
    driver::clear_run_memo();
    std::vector<Cost> costs;
    const std::vector<Outcome> outs = untraced_pass(spec, sims, pass_ref, costs);
    record(tally, outs, memo_error());
    return costs;
  };
  // Each driver call at its median over the run's passes, summed.
  const auto per_call_median = [](const std::vector<std::vector<Cost>>& passes,
                                  double Cost::*field) {
    double total = 0;
    for (std::size_t c = 0; c < passes.front().size(); ++c) {
      std::vector<double> vs;
      for (const std::vector<Cost>& p : passes) vs.push_back(p[c].*field);
      total += median(vs);
    }
    return total;
  };
  // Each driver call at its fastest over the run's passes, summed.
  const auto fastest = [](const std::vector<std::vector<Cost>>& passes,
                          double Cost::*field) {
    double total = 0;
    for (std::size_t c = 0; c < passes.front().size(); ++c) {
      double best = passes.front()[c].*field;
      for (const std::vector<Cost>& p : passes) {
        best = std::min(best, p[c].*field);
      }
      total += best;
    }
    return total;
  };
  const auto sum = [](const std::vector<Cost>& costs, double Cost::*field) {
    double total = 0;
    for (const Cost& c : costs) total += c.*field;
    return total;
  };

  std::map<std::string, double> metrics;
  std::map<std::string, std::vector<double>> samples;  // per pass / set-up
  std::uint64_t passes = 0;
  if (!a.trace) {
    // Set-up and passes share the run's --seconds.  Set-up comes first,
    // after a warm-up repetition: the first ensemble or machine of a process
    // pays page faults that later ones reuse from the allocator.  It runs on
    // the calling thread alone, so a one-thread reference loop brackets each
    // repetition.
    const auto t0 = Clock::now();
    Reference setup_ref(1);
    setup_seconds(spec, sims);
    std::vector<double> setups, ref_setups;
    double before = setup_ref.sample().mean;
    while (setups.size() < kMinSetupReps ||
           (setups.size() < kMaxSetupReps &&
            seconds_since(t0) < kSetupShare * a.seconds)) {
      setups.push_back(setup_seconds(spec, sims));
      const double after = setup_ref.sample().mean;
      ref_setups.push_back(Reference::rescale(setups.back(), before, after));
      before = after;
    }
    // A first full pass touches memory the set-up runs never reached; a
    // multi-node set-up already built every ensemble the passes build.
    if (spec.kind != Kind::Multi) untraced();
    std::vector<std::vector<Cost>> costs;
    std::vector<double> walls, cpus, references;
    double last = 0;
    while (passes == 0 || seconds_since(t0) + last <= a.seconds) {
      const auto p0 = Clock::now();
      costs.push_back(untraced());
      walls.push_back(sum(costs.back(), &Cost::wall_s));
      cpus.push_back(sum(costs.back(), &Cost::cpu_s));
      for (const Cost& c : costs.back()) references.push_back(c.reference_s);
      last = seconds_since(p0);
      ++passes;
    }
    metrics["wall_s"] = per_call_median(costs, &Cost::ref_wall_s);
    metrics["cpu_s"] = per_call_median(costs, &Cost::ref_cpu_s);
    metrics["setup_s"] = median(ref_setups);
    metrics["peak_rss_mb"] = usage_now().peak_rss_mb;
    samples = {{"wall_s", walls},
               {"cpu_s", cpus},
               {"setup_s", setups},
               {"reference_s", references}};
  } else {
    const unsigned workers = pass_workers(spec, sims.size());
    std::vector<std::vector<Cost>> plain;
    std::vector<double> traced_cpu;
    std::vector<std::map<std::string, double>> per_pass;
    std::vector<std::vector<Span>> span_passes;
    // Warm-up: the first pass of a process pays the page faults of every
    // allocation later passes reuse; untraced and traced passes compare
    // only after it.
    untraced();
    const auto t0 = Clock::now();
    double last = 0;
    while (passes == 0 || seconds_since(t0) + last <= a.seconds) {
      const auto p0 = Clock::now();
      plain.push_back(untraced());

      driver::clear_run_memo();
      SpanLog log(Clock::now());
      const Usage u0 = usage_now();
      const int pass_span = log.open("pass", -1, -1);
      const std::vector<Outcome> outs =
          traced_pass(spec, sims, log, pass_span);
      log.close(pass_span);
      const Usage u1 = usage_now();
      // Composed passes bypass the memo entirely.
      record(tally, outs,
             driver::run_memo_stats().misses == 0 ? "" : "memo trap: traced "
                                                         "pass used the memo");
      traced_cpu.push_back(u1.cpu_s - u0.cpu_s);
      span_passes.push_back(log.spans());
      per_pass.push_back(layer_metrics(span_passes.back(), outs, workers,
                                       u1.minor_faults - u0.minor_faults));
      last = seconds_since(p0);
      ++passes;
    }
    for (const auto& [k, v] : per_pass.front()) {
      std::vector<double> vs;
      for (const auto& pm : per_pass) vs.push_back(pm.at(k));
      metrics[k] = median(vs);
    }
    const double plain_cpu = fastest(plain, &Cost::cpu_s);
    metrics["bench.trace_overhead_frac"] =
        plain_cpu > 0
            ? *std::min_element(traced_cpu.begin(), traced_cpu.end()) /
                      plain_cpu -
                  1.0
            : 0.0;
    if (!a.spans_path.empty()) {
      write_spans(a.spans_path, a, sims, span_passes);
    }
  }
  print_result(a, sims, tally, passes, metrics, samples);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Pin glibc's allocator to one policy for the whole run: every block
  // below 64 MiB (node memories are 16 MiB) comes from the heap and freed
  // memory is never returned to the kernel.  Left adaptive, the allocator
  // moves its mmap threshold after the first large free and trims the heap
  // depending on what the seeded input allocated, so identical set-ups
  // would pay ~1.7 GB of page faults in some runs and none in others.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "jtambench: " << e.what() << "\n";
    return 1;
  }
}
