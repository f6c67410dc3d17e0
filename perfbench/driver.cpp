// perfbench_driver: the timed half of the repository benchmark.
//
// Runs one workload as a closed loop (one caller, one api::run at a time)
// and prints one JSON record per line on stdout; perfbench/run.py starts
// it, times its set-up and folds the records into the benchmark result.
//
//   perfbench_driver --workload W --seed S --seconds T --trace 0|1 [--part k --parts K]
//
// One benchmark run is split over K driver processes started one after
// the other (part k takes run indices k, k+K, ...), so the set-up is
// timed K times and the runs are pooled over K memory placements.
//
// Records, in order:
//   {"kind":"env",...}    machine and build stamp
//   {"kind":"ready"}      set-up done: inputs generated, one untimed warm-up run
//   {"kind":"run",...}    one timed api::run and its correctness verdict
//   {"kind":"trace",...}  (--trace 1) one seed's per-layer numbers, measured by
//                         timing the public call of each layer from outside,
//                         and the fidelity verdict of that composition (layers
//                         the workload never enters are left out)
//   {"kind":"end",...}    peak RSS of this process and of its children
//
// Only public library headers are used; nothing inside the library is
// instrumented.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "aggregate/routing.hpp"
#include "drrg.hpp"
#include "net/multiproc.hpp"
#include "net/wire.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace drrg;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

bool bit_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string algorithm;
  api::Aggregate aggregate = api::Aggregate::kAve;
  std::uint32_t n = 0;
  sim::FaultSchedule faults{};
  api::Transport transport = api::Transport::kSim;
  /// Ave: largest accepted rel_error.  Max is checked bit-exact.
  double ave_tolerance = 0.0;
  /// drrg_cli flags of one run of this workload (the repro line; on a
  /// panel workload it reruns the protocol seed with the CLI's own values).
  std::string cli;
  /// Protocol seeds run once each per benchmark run (whatever --seconds
  /// says), --seed drawing only the node values; empty = a fresh protocol
  /// seed per run, for --seconds.  A panel is for a workload whose run
  /// time is a per-seed step function far wider than the run-to-run noise
  /// (the UDP timeouts), where the few runs that fit one benchmark run
  /// would give an unsteady median.  The panel keeps the known failures.
  std::vector<std::uint64_t> panel;
  /// Protocol seed of the warm-up run on a panel workload.
  std::uint64_t warmup_seed = 0;
};

Workload make_workload(std::string_view name) {
  Workload w;
  // The dense workloads run at n = 65536, not the 262144 of the profiles
  // in the ROADMAP.  At 262144 the ~75 MiB working set is most of the
  // shared L3, so run time follows the neighbours' cache pressure (ten
  // benchmark runs drifted from 267 to 355 ms), and a churn-stalled run
  // takes ~2.3 s, too few per benchmark run for a steady median.
  if (name == "dense-clean") {
    w.algorithm = "drr";
    w.n = 65536;
    w.ave_tolerance = 1e-6;
    w.cli = "--algo drr --agg ave --n 65536";
  } else if (name == "dense-faulty") {
    // Every run stalls both tree broadcasts (~3200 rounds against ~400
    // fault-free) and ends with consensus=false.
    w.algorithm = "drr";
    w.n = 65536;
    w.faults = sim::FaultSchedule{0.01, 0.05, {sim::CrashEvent{30, 0.02}}};
    w.ave_tolerance = 1e-2;
    w.cli = "--algo drr --agg ave --n 65536 --loss 0.01 --crash 0.05 --churn 30:0.02";
  } else if (name == "chord-routed") {
    w.algorithm = "chord-drr";
    w.n = 16384;
    w.ave_tolerance = 1e-2;
    w.cli = "--algo chord-drr --agg ave --n 16384";
  } else if (name == "udp-cluster") {
    w.algorithm = "drr";
    w.aggregate = api::Aggregate::kMax;
    w.n = 4;
    w.transport = api::Transport::kUdp;
    w.cli = "--algo drr --agg max --n 4 --transport udp";
    // Seed 1 misses the 30 s node deadline ("deadline before final value")
    // on every run.  Of the others (3.7 s to 8.1 s), seed 3 is the median
    // of the panel in time, rounds and messages alike; it repeats within
    // ~1%, while seeds 2 and 4 jump between 3.7 s and 4.3 s.
    w.panel = {1, 2, 3, 4, 5};
    w.warmup_seed = 2;
  } else {
    w.n = 0;
  }
  return w;
}

/// Protocol seed of timed run i (32 bits, so a repro line is short).
std::uint64_t run_seed(const Workload& w, std::uint64_t seed, std::uint64_t i) {
  if (!w.panel.empty()) return w.panel[i % w.panel.size()];
  return static_cast<std::uint32_t>(derive_seed(seed, 0xbe7cULL, i));
}

/// Node values of run i: a pure function of (--seed, run index).
std::vector<double> run_values(const Workload& w, std::uint64_t seed, std::uint64_t i) {
  if (!w.panel.empty()) return workload::make_values(w.n, derive_seed(seed, 0x0d9ULL, i));
  return workload::make_values(w.n, run_seed(w, seed, i));
}

api::RunSpec make_spec(const Workload& w, std::uint64_t protocol_seed,
                       std::vector<double> values) {
  api::RunSpec spec;
  spec.n = w.n;
  spec.aggregate = w.aggregate;
  spec.seed = protocol_seed;
  spec.faults = w.faults;
  spec.transport = w.transport;
  spec.values = std::move(values);
  return spec;
}

// ---------------------------------------------------------------------------
// Correctness of one run.

struct Verdict {
  bool ok = false;          ///< report.ok()
  bool consensus = false;
  bool accurate = false;    ///< value within the workload's check
  double truth = 0.0;       ///< recomputed here from the inputs
  double rel_error = 0.0;
  std::string reason;       ///< empty iff the run passed
};

/// Truth is recomputed from the inputs and the report's survivor mask,
/// independently of the library's own truth field.
Verdict check_run(const Workload& w, const api::RunReport& r,
                  const std::vector<double>& values) {
  Verdict v;
  v.ok = r.ok();
  v.consensus = r.consensus;
  const bool is_max = w.aggregate == api::Aggregate::kMax;
  double mx = -INFINITY;
  long double sum = 0.0L;
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!r.participating.empty() && !r.participating[i]) continue;
    mx = std::max(mx, values[i]);
    sum += values[i];
    ++count;
  }
  v.truth = is_max ? mx : (count == 0 ? 0.0 : static_cast<double>(sum / count));
  v.rel_error = std::fabs(r.value - v.truth) / std::max(1.0, std::fabs(v.truth));
  v.accurate = v.ok && (is_max ? bit_equal(r.value, v.truth)
                               : v.rel_error <= w.ave_tolerance);
  if (!v.ok)
    v.reason = "error: " + (r.error.empty() ? std::string{"unsupported"} : r.error);
  else if (!v.consensus)
    v.reason = "consensus=false";
  else if (!v.accurate)
    v.reason = is_max ? "max differs from truth" : "rel_error above tolerance";
  return v;
}

// ---------------------------------------------------------------------------
// JSON output.

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

void emit(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

/// Ordered per-layer numbers of one traced seed.
using Layers = std::map<std::string, double>;

void put_phase(Layers& l, const std::string& name, double ms, const sim::Counters& c) {
  l[name + ".ms"] = ms;
  l[name + ".msgs"] = static_cast<double>(c.sent);
  l[name + ".rounds"] = c.rounds;
  l[name + ".lost_frac"] = c.sent == 0 ? 0.0 : static_cast<double>(c.lost) / c.sent;
}

bool same(const sim::Counters& a, const sim::Counters& b) {
  return a.sent == b.sent && a.delivered == b.delivered && a.lost == b.lost &&
         a.bits == b.bits && a.rounds == b.rounds;
}

// ---------------------------------------------------------------------------
// Traced compositions.  Each replays its pipeline through the layers'
// public calls with the configuration api::run uses, times every call,
// and checks that the composition is the program api::run executed.

struct Traced {
  Layers layers;
  std::string fidelity;  ///< empty iff the composition matched the report
};

/// Algorithm 8 (dense Ave) as public calls, mirroring drr_gossip_ave with
/// the default DrrGossipConfig on the complete topology.
Traced trace_dense(const Workload& w, std::uint64_t seed, const std::vector<double>& values,
                   const api::RunReport& report, double api_ms) {
  const std::uint32_t n = w.n;
  const RngFactory rngs{seed};
  sim::Scenario sc{sim::Topology::complete_of(n), w.faults};
  const DrrGossipConfig cfg{};
  // Phase III budget scale on the complete topology (latency only).
  const double budget_scale = 1.0 + w.faults.latency.mean();

  auto t = Clock::now();
  const DrrResult drr = run_drr(n, rngs, sc, cfg.drr);
  const double drr_ms = ms_since(t);
  const Forest& forest = drr.forest;
  std::uint32_t clock = drr.rounds;

  t = Clock::now();
  const ConvergecastResult cc = run_convergecast(forest, values, ConvergecastOp::kSum, rngs,
                                                 sc.at_round(clock), cfg.convergecast);
  const double cc_ms = ms_since(t);
  clock += cc.rounds;

  std::vector<double> addr_payload(n, 0.0);
  for (NodeId r : forest.roots()) addr_payload[r] = static_cast<double>(r);
  BroadcastConfig addr_cfg = cfg.broadcast;
  addr_cfg.stream_tag = derive_seed(addr_cfg.stream_tag, 1);
  t = Clock::now();
  const BroadcastResult addr =
      run_broadcast(forest, addr_payload, rngs, sc.at_round(clock), addr_cfg);
  const double addr_ms = ms_since(t);
  clock += addr.rounds;

  std::vector<std::uint64_t> size_keys(n, kKeyBottom);
  for (NodeId r : forest.roots())
    size_keys[r] = encode_size_id(static_cast<std::uint32_t>(cc.weight[r]), r);
  GossipMaxConfig gm_cfg = cfg.gossip_max;
  gm_cfg.stream_tag = derive_seed(gm_cfg.stream_tag, 4);
  gm_cfg.round_budget_scale *= budget_scale;
  t = Clock::now();
  const GossipMaxResult election =
      run_gossip_max(forest, size_keys, rngs, sc.at_round(clock), gm_cfg);
  const double election_ms = ms_since(t);
  clock += election.rounds;

  std::vector<double> num0(n, 0.0), den0(n, 0.0);
  for (NodeId r : forest.roots()) {
    num0[r] = cc.aggregate[r];
    den0[r] = cc.weight[r];
  }
  PushSumConfig ps_cfg = cfg.push_sum;
  ps_cfg.stream_tag = derive_seed(ps_cfg.stream_tag, 5);
  ps_cfg.round_budget_scale *= budget_scale;
  t = Clock::now();
  const PushSumResult ps =
      run_root_push_sum(forest, num0, den0, rngs, sc.at_round(clock), ps_cfg);
  const double ps_ms = ms_since(t);
  clock += ps.rounds;

  std::vector<std::uint64_t> spread_init(n, kKeyBottom);
  for (NodeId r : forest.roots())
    if (election.key[r] == size_keys[r] && ps.den[r] > 0.0)
      spread_init[r] = encode_ordered(ps.num[r] / ps.den[r]);
  GossipMaxConfig spread_cfg = cfg.gossip_max;
  spread_cfg.stream_tag = derive_seed(spread_cfg.stream_tag, 6);
  spread_cfg.round_budget_scale *= budget_scale;
  t = Clock::now();
  const GossipMaxResult spread =
      run_gossip_max(forest, spread_init, rngs, sc.at_round(clock), spread_cfg);
  const double spread_ms = ms_since(t);
  clock += spread.rounds;

  std::vector<double> root_value(n, 0.0);
  for (NodeId r : forest.roots())
    root_value[r] = spread.key[r] == kKeyBottom ? 0.0 : decode_ordered(spread.key[r]);
  const double value = root_value[forest.largest_tree_root()];
  BroadcastConfig value_cfg = cfg.broadcast;
  value_cfg.stream_tag = derive_seed(value_cfg.stream_tag, 2);
  t = Clock::now();
  const BroadcastResult vb =
      run_broadcast(forest, root_value, rngs, sc.at_round(clock), value_cfg);
  const double vb_ms = ms_since(t);

  Traced out;
  Layers& l = out.layers;
  put_phase(l, "drr", drr_ms, drr.counters);
  l["forest.trees"] = forest.num_trees();
  l["forest.max_height"] = forest.max_tree_height();
  put_phase(l, "trees.convergecast", cc_ms, cc.counters);
  put_phase(l, "trees.addr_broadcast", addr_ms, addr.counters);
  put_phase(l, "rootgossip.election", election_ms, election.counters);
  put_phase(l, "rootgossip.push_sum", ps_ms, ps.counters);
  put_phase(l, "rootgossip.spread", spread_ms, spread.counters);
  put_phase(l, "trees.value_broadcast", vb_ms, vb.counters);
  const double phases_ms = drr_ms + cc_ms + addr_ms + election_ms + ps_ms + spread_ms + vb_ms;
  l["api.run_ms"] = api_ms;
  l["api.overhead_ms"] = api_ms - phases_ms;
  l["trace.phase_sum_ratio"] = phases_ms / api_ms;

  sim::Counters gossip = election.counters;
  gossip += ps.counters;
  const PhaseMetrics& p = report.phases;
  if (!same(drr.counters, p.drr)) out.fidelity += "drr counters differ; ";
  if (!same(cc.counters, p.convergecast)) out.fidelity += "convergecast counters differ; ";
  if (!same(addr.counters, p.root_broadcast)) out.fidelity += "root broadcast counters differ; ";
  if (!same(gossip, p.gossip)) out.fidelity += "gossip counters differ; ";
  if (!same(spread.counters, p.spread)) out.fidelity += "spread counters differ; ";
  if (!same(vb.counters, p.value_broadcast)) out.fidelity += "value broadcast counters differ; ";
  if (!bit_equal(value, report.value)) out.fidelity += "composed value differs; ";
  return out;
}

/// Written once per route loop so the compiler keeps the walk.
volatile std::uint64_t g_sink = 0;

/// Mean hops and ns per hop of begin_random + next_hop_fast routes.
void trace_routes(const ChordOverlay& overlay, std::uint64_t seed, Layers& l) {
  constexpr int kRoutes = 20000;
  const SparseRouter router = SparseRouter::on_chord(overlay);
  Rng rng{derive_seed(seed, 0x7077eULL)};
  const std::uint32_t cap = router.max_route_hops();
  std::uint64_t hops = 0, sink = 0;
  const auto t = Clock::now();
  for (int i = 0; i < kRoutes; ++i) {
    NodeId at = static_cast<NodeId>(rng.next_below(overlay.size()));
    RouteState st = router.begin_random(at, rng);
    for (std::uint32_t h = 0; h < cap; ++h) {
      const NodeId next = router.next_hop_fast(at, st);
      if (next == at) break;
      at = next;
      ++hops;
    }
    sink += at;
  }
  const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t).count();
  l["aggregate.route.ns_per_hop"] = hops == 0 ? 0.0 : ns / static_cast<double>(hops);
  l["aggregate.route.hops_per_route"] = static_cast<double>(hops) / kRoutes;
  g_sink = sink;
}

/// The §4 Chord pipeline: Phase I/II and the value broadcast as public
/// calls; routed Phase III has no public entry point, so its time is the
/// full pipeline call minus the public phases (derived).
Traced trace_chord(const Workload& w, std::uint64_t seed, const std::vector<double>& values,
                   const api::RunReport& report, double api_ms) {
  const std::uint32_t n = w.n;
  auto t = Clock::now();
  const ChordOverlay overlay(n, seed);
  const Graph links = overlay_graph(overlay);
  const double overlay_ms = ms_since(t);

  const RngFactory rngs{seed};
  const sim::Scenario sc{sim::Topology::complete(), w.faults};
  const SparseGossipConfig cfg{};

  t = Clock::now();
  const LocalDrrResult drr = run_local_drr(links, rngs, sc, cfg.local_drr);
  const double drr_ms = ms_since(t);
  const Forest& forest = drr.forest;
  std::uint32_t clock = drr.rounds;

  t = Clock::now();
  const ConvergecastResult cc = run_convergecast(forest, values, ConvergecastOp::kSum, rngs,
                                                 sc.at_round(clock), cfg.convergecast);
  const double cc_ms = ms_since(t);
  clock += cc.rounds;

  std::vector<double> addr_payload(n, 0.0);
  for (NodeId r : forest.roots()) addr_payload[r] = static_cast<double>(r);
  BroadcastConfig addr_cfg = cfg.broadcast;
  addr_cfg.simultaneous_children = true;
  addr_cfg.stream_tag = derive_seed(addr_cfg.stream_tag, 1);
  t = Clock::now();
  const BroadcastResult addr =
      run_broadcast(forest, addr_payload, rngs, sc.at_round(clock), addr_cfg);
  const double addr_ms = ms_since(t);

  t = Clock::now();
  const AggregateOutcome o = sparse_drr_gossip_ave(overlay, links, values, seed, sc, cfg);
  const double pipeline_ms = ms_since(t);

  // The value broadcast starts where routed Phase III stopped; roots keep
  // their own payload, so per_node holds every root's final value.
  const PhaseMetrics& m = o.metrics;
  const std::uint32_t vb_start =
      m.drr.rounds + m.convergecast.rounds + m.root_broadcast.rounds + m.gossip.rounds +
      m.spread.rounds;
  std::vector<double> root_value(n, 0.0);
  for (NodeId r : forest.roots()) root_value[r] = o.per_node.at(r);
  BroadcastConfig value_cfg = cfg.broadcast;
  value_cfg.simultaneous_children = true;
  value_cfg.stream_tag = derive_seed(value_cfg.stream_tag, 2);
  t = Clock::now();
  const BroadcastResult vb =
      run_broadcast(forest, root_value, rngs, sc.at_round(vb_start), value_cfg);
  const double vb_ms = ms_since(t);

  Traced out;
  Layers& l = out.layers;
  l["chord.overlay_ms"] = overlay_ms;
  put_phase(l, "drr.local", drr_ms, drr.counters);
  l["forest.trees"] = forest.num_trees();
  l["forest.max_height"] = forest.max_tree_height();
  put_phase(l, "trees.convergecast", cc_ms, cc.counters);
  put_phase(l, "trees.addr_broadcast", addr_ms, addr.counters);
  put_phase(l, "trees.value_broadcast", vb_ms, vb.counters);
  sim::Counters routed = m.gossip;
  routed += m.spread;
  put_phase(l, "aggregate.routed_phase3",
            pipeline_ms - (drr_ms + cc_ms + addr_ms + vb_ms), routed);
  trace_routes(overlay, seed, l);
  l["api.run_ms"] = api_ms;
  l["api.overhead_ms"] = api_ms - (overlay_ms + pipeline_ms);
  l["trace.phase_sum_ratio"] = (overlay_ms + pipeline_ms) / api_ms;

  const PhaseMetrics& p = report.phases;
  if (!same(drr.counters, p.drr)) out.fidelity += "local drr counters differ; ";
  if (!same(cc.counters, p.convergecast)) out.fidelity += "convergecast counters differ; ";
  if (!same(addr.counters, p.root_broadcast)) out.fidelity += "root broadcast counters differ; ";
  if (!same(vb.counters, p.value_broadcast)) out.fidelity += "value broadcast counters differ; ";
  if (!same(m.gossip, p.gossip) || !same(m.spread, p.spread))
    out.fidelity += "routed phase III counters differ; ";
  if (vb.received != o.per_node) out.fidelity += "value broadcast payloads differ; ";
  if (!bit_equal(o.value, report.value)) out.fidelity += "composed value differs; ";
  return out;
}

/// ns per frame of encode_frame / decode_frame over one frame of every
/// MsgId, entry lists filled to their format bounds.
void trace_wire(Layers& l, std::string& fidelity) {
  std::vector<net::Frame> frames;
  for (const net::MsgId id : net::kAllMsgIds) {
    net::Frame f;
    f.id = id;
    f.src = 1;
    f.dst = 2;
    f.seq = 7;
    f.a = 3;
    f.nonce = 0x1234;
    f.max = 9.5;
    f.min = -1.25;
    f.sum = 40.0;
    f.count = 4;
    f.ver = 5;
    if (id == net::MsgId::kMemberGossip) f.n_members = net::kMaxMemberEntries;
    if (id == net::MsgId::kRootExchange || id == net::MsgId::kRootAck)
      f.n_roots = net::kMaxRootEntries;
    frames.push_back(f);
  }
  constexpr int kReps = 20000;
  std::vector<std::vector<std::uint8_t>> bytes(frames.size());
  auto t = Clock::now();
  for (int rep = 0; rep < kReps; ++rep)
    for (std::size_t i = 0; i < frames.size(); ++i) {
      bytes[i].clear();  // encode_frame appends
      net::encode_frame(frames[i], bytes[i]);
    }
  const double enc_ns = std::chrono::duration<double, std::nano>(Clock::now() - t).count();
  std::vector<net::Frame> decoded(frames.size());
  std::size_t bad = 0;
  t = Clock::now();
  for (int rep = 0; rep < kReps; ++rep)
    for (std::size_t i = 0; i < frames.size(); ++i)
      bad += net::decode_frame(bytes[i], decoded[i]) != net::DecodeError::kOk;
  const double dec_ns = std::chrono::duration<double, std::nano>(Clock::now() - t).count();
  const double per = static_cast<double>(kReps) * static_cast<double>(frames.size());
  l["net.wire.encode_ns"] = enc_ns / per;
  l["net.wire.decode_ns"] = dec_ns / per;
  std::vector<std::uint8_t> again;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    again.clear();
    net::encode_frame(decoded[i], again);
    if (again != bytes[i]) bad += 1;
  }
  if (bad != 0) fidelity += "wire frames do not round-trip; ";
}

/// One cluster through net::run_cluster with the options api::run uses
/// for a fault-free drr/max run; per-layer numbers from the NodeReports.
Traced trace_udp(const Workload& w, std::uint64_t seed, const std::vector<double>& values,
                 const api::RunReport& report, double api_ms) {
  net::ClusterOptions copt;
  copt.n = w.n;
  copt.seed = seed;
  copt.faults = w.faults;
  copt.values = values;
  const auto t = Clock::now();
  const net::ClusterReport cluster = net::run_cluster(copt);
  const double cluster_ms = ms_since(t);

  Traced out;
  Layers& l = out.layers;
  std::vector<double> node_ms;
  double sent = 0, delivered = 0, bits = 0, retries = 0, backoff = 0;
  bool all_ok = cluster.ok;
  double fold = -INFINITY;
  for (const net::NodeReport& r : cluster.nodes) {
    sent += static_cast<double>(r.sent);
    delivered += static_cast<double>(r.delivered);
    bits += static_cast<double>(r.bits);
    retries += static_cast<double>(r.retries);
    backoff += static_cast<double>(r.backoff_ms_total);
    if (r.scheduled_crash) continue;
    node_ms.push_back(static_cast<double>(r.wall_ms));
    all_ok = all_ok && r.ok;
    fold = std::max(fold, r.max);
  }
  std::sort(node_ms.begin(), node_ms.end());
  const double slowest = node_ms.empty() ? 0.0 : node_ms.back();
  const std::size_t k = node_ms.size();
  l["net.node_ms_p50"] =
      k == 0 ? 0.0 : (k % 2 == 1 ? node_ms[k / 2] : (node_ms[k / 2 - 1] + node_ms[k / 2]) / 2);
  l["net.node_ms_max"] = slowest;
  l["net.cluster_overhead_ms"] = cluster_ms - slowest;
  l["net.sent_per_node"] = sent / w.n;
  l["net.retries_per_node"] = retries / w.n;
  l["net.delivered_frac"] = sent == 0 ? 0.0 : delivered / sent;
  l["net.bits_per_msg"] = sent == 0 ? 0.0 : bits / sent;
  l["net.backoff_ms_per_node"] = backoff / w.n;
  l["api.run_ms"] = api_ms;
  l["trace.phase_sum_ratio"] = cluster_ms / api_ms;
  trace_wire(l, out.fidelity);

  // Both runs of this seed must agree with the exact maximum whenever
  // they report success (a deadline miss is a failed run, not a mismatch).
  const double truth = *std::max_element(values.begin(), values.end());
  if (all_ok && !bit_equal(fold, truth)) out.fidelity += "cluster fold differs from truth; ";
  if (report.ok() && report.consensus && !bit_equal(report.value, truth))
    out.fidelity += "facade value differs from truth; ";
  return out;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t part = 0;
  std::uint64_t parts = 1;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload W --seed S "
               "--seconds T --trace 0|1 [--part k --parts K]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing flag value");
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") a.trace = std::string_view{v} == "1";
    else if (flag == "--part") a.part = std::strtoull(v, nullptr, 10);
    else if (flag == "--parts") a.parts = std::strtoull(v, nullptr, 10);
    else usage("unknown flag");
  }
  if (a.parts == 0 || a.part >= a.parts) usage("need 0 <= part < parts");
  return a;
}

void emit_env() {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  emit(std::string{"{\"kind\":\"env\",\"nproc\":"} +
       std::to_string(std::thread::hardware_concurrency()) +
       ",\"l2_bytes\":" + std::to_string(l2) + ",\"l3_bytes\":" + std::to_string(l3) +
       ",\"compiler\":\"" + json_escape(PERFBENCH_COMPILER) + "\",\"build_type\":\"" +
       json_escape(PERFBENCH_BUILD_TYPE) + "\"}");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload w = make_workload(args.workload);
  if (w.n == 0) usage("unknown workload");
#ifndef NDEBUG
  constexpr bool kOptimized = false;
#else
  constexpr bool kOptimized = true;
#endif
  if (std::string_view{PERFBENCH_BUILD_TYPE} != "Release" || !kOptimized) {
    std::fprintf(stderr, "perfbench_driver: built as '%s'; refusing to time a non-Release build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  emit_env();

  // Set-up: inputs of the first timed run plus one untimed warm-up run on
  // inputs no timed run uses (a fixed seed on panel workloads).
  std::vector<double> values = run_values(w, args.seed, args.part);
  {
    const std::uint64_t warm_seed =
        !w.panel.empty() ? w.warmup_seed
                         : static_cast<std::uint32_t>(derive_seed(args.seed, 0x3a7ULL));
    const auto warm = api::run(w.algorithm, make_spec(w, warm_seed, workload::make_values(
                                                                        w.n, warm_seed)));
    if (!warm.supported) usage("workload not supported by this build");
  }
  emit("{\"kind\":\"ready\"}");

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  // A panel workload runs its panel exactly once per benchmark run, so
  // every run times the same protocol seeds, known failures included.
  // The others run until the first run that ends past the deadline.
  const auto more = [&](std::uint64_t i) {
    return w.panel.empty() ? i == args.part || Clock::now() < deadline : i < w.panel.size();
  };
  for (std::uint64_t i = args.part; more(i); i += args.parts) {
    if (i != args.part) values = run_values(w, args.seed, i);
    const std::uint64_t seed = run_seed(w, args.seed, i);
    const api::RunSpec spec = make_spec(w, seed, values);
    const auto t = Clock::now();
    const api::RunReport report = api::run(w.algorithm, spec);
    const double ms = ms_since(t);
    const Verdict v = check_run(w, report, values);
    emit("{\"kind\":\"run\",\"seed\":" + std::to_string(seed) + ",\"ms\":" + num(ms) +
         ",\"ok\":" + (v.ok ? "true" : "false") +
         ",\"consensus\":" + (v.consensus ? "true" : "false") +
         ",\"accurate\":" + (v.accurate ? "true" : "false") +
         ",\"value\":" + num(report.value) + ",\"truth\":" + num(v.truth) +
         ",\"rel_error\":" + num(v.rel_error) + ",\"sent\":" + std::to_string(report.cost.sent) +
         ",\"bits\":" + std::to_string(report.cost.bits) +
         ",\"rounds\":" + std::to_string(report.rounds) + ",\"n\":" + std::to_string(w.n) +
         ",\"reason\":\"" + json_escape(v.reason) + "\",\"repro\":\"drrg_cli " + w.cli +
         " --seed " + std::to_string(seed) + "\"}");

    if (args.trace) {
      const Traced tr =
          w.transport == api::Transport::kUdp ? trace_udp(w, seed, values, report, ms)
          : w.algorithm == "chord-drr"        ? trace_chord(w, seed, values, report, ms)
                                              : trace_dense(w, seed, values, report, ms);
      std::string rec = "{\"kind\":\"trace\",\"seed\":" + std::to_string(seed) +
                        ",\"fidelity\":\"" + json_escape(tr.fidelity) + "\",\"layers\":{";
      for (const auto& [name, value] : tr.layers)
        rec += std::string{rec.back() == '{' ? "" : ","} + "\"" + name + "\":" + num(value);
      emit(rec + "}}");
    }
  }

  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  emit("{\"kind\":\"end\",\"rss_kib\":" + std::to_string(self.ru_maxrss) +
       ",\"children_rss_kib\":" + std::to_string(children.ru_maxrss) + "}");
  return 0;
}
