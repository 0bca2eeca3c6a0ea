// End-to-end benchmark of the partial lookup service.
//
//   pls_service_bench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--trace-out <file>]
//
// One run goes through these phases on one workload (see README.md):
//   setup           build the service and place the whole catalogue (timed),
//                   then a 2-shard ShardedRuntime with the same catalogue
//   serve           closed loop, one client, one op at a time, every call
//                   timed; after each round the round is replayed on the
//                   sharded runtime, submitted back to back and drained; at
//                   maintenance points spread over the phase the service is
//                   saved, loaded into a fresh service, and the copy goes
//                   through a graceful leave + join and a host loss with
//                   repair passes
//                   on a workload with episodes, the service, the runtime
//                   and the model are rebuilt from the catalogue every
//                   episode_rounds rounds
//   final checks    the sharded runtime agrees with the serve phase; a
//                   restored service re-saves to the same bytes and answers
//                   lookups exactly as the original
//
// Every lookup result is checked against the benchmark's own model of what
// each key holds; the last line of stdout is one JSON object with the
// metrics, the op counts and whether every check passed. With --trace 1
// the run also calls each layer's public entry point for a sample of the
// ops, records those calls as spans, writes them to --trace-out, and
// reports the per-layer metrics instead of the end-to-end ones.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "inputs.hpp"
#include "spans.hpp"
#include "pls/common/rng.hpp"
#include "pls/core/service.hpp"
#include "pls/net/repair.hpp"
#include "pls/runtime/sharded_runtime.hpp"
#include "pls/wire/snapshot.hpp"

namespace perfbench {
namespace {

namespace core = pls::core;
namespace net = pls::net;

/// The traced run shadows every kTraceEvery-th client op with layer calls.
constexpr std::int64_t kTraceEvery = 64;
/// Lookups replayed on the original and the restored service.
constexpr std::size_t kSnapshotLookups = 2000;
constexpr std::size_t kShards = 2;
/// save_service calls per maintenance point; the point's save time is the
/// fastest of them. The first save after a stretch of serving pays for
/// cold caches and fresh pages for its output buffer (800-1200 us against
/// about 450 us at 400 keys, varying from point to point and run to run);
/// the calls after it measure the save itself, and still get faster for a
/// few calls (at 1000 keys the fastest of 8 calls spread 0.02 between runs,
/// of the first 4 0.04).
constexpr std::size_t kSavesPerPoint = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0)) {
        return std::nullopt;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload) return std::nullopt;
  return a;
}

std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size = 0;
  std::size_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

/// Nearest-rank percentile (q in (0,1]) of `v`, reordering it.
double percentile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  const auto it = v.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(v.begin(), it, v.end());
  return static_cast<double>(*it);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Share of a series' samples the fast end is read at.
constexpr double kFastShare = 0.02;

/// The value a measurement series shows at its fast end: the mean of its
/// fastest kFastShare (at least one sample), the lowest values where lower
/// is better, the highest where higher is better. The mean, not a single
/// rank, so that a series of whole nanoseconds still reports every digit
/// it measured.
///
/// Why not the median: on a host shared with other tenants the speed of a
/// stretch of the run depends on their load, mostly through the shared L3
/// cache: an 8 MB random pointer chase moved between 11 and 110 ns per
/// access from one 10 ms stretch to the next. Co-tenants only ever add
/// time, so the fast end of a run tracks the program's own cost and moves
/// far less between runs than the median does.
double fast_end(std::vector<double> v, bool lower_is_better) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (!lower_is_better) std::reverse(v.begin(), v.end());
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(kFastShare * static_cast<double>(v.size()))));
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) sum += v[i];
  return sum / static_cast<double>(n);
}

/// Latency samples in the order they were taken are cut into consecutive
/// windows of this many calls; p99 of a window has 10 calls beyond it.
constexpr std::size_t kLatencyWindow = 1000;

/// Each full window's q-quantile, then the fast end over the windows.
/// Below 50 windows (runs of a second or two) the fast end would be the
/// fastest window alone, so the quantile of all samples is reported.
double windowed_quantile(const std::vector<std::uint32_t>& samples, double q) {
  if (samples.size() < 50 * kLatencyWindow) {
    std::vector<std::uint32_t> all = samples;
    return percentile(all, q);
  }
  std::vector<double> per_window;
  std::vector<std::uint32_t> window;
  for (std::size_t begin = 0; begin + kLatencyWindow <= samples.size();
       begin += kLatencyWindow) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(begin);
    window.assign(first, first + static_cast<std::ptrdiff_t>(kLatencyWindow));
    per_window.push_back(percentile(window, q));
  }
  return fast_end(per_window, true);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Counts check violations; prints the first few to stderr.
class Checker {
 public:
  void fail(const std::string& what) {
    if (violations_++ < 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  bool ok() const noexcept { return violations_ == 0; }
  std::uint64_t violations() const noexcept { return violations_; }

 private:
  std::uint64_t violations_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// One executed lookup, kept until the round's check.
struct LookupRecord {
  std::uint32_t begin = 0;  ///< first entry in the round's flat buffer
  std::uint32_t count = 0;
  std::uint32_t contacted = 0;
  std::uint64_t msgs = 0;  ///< Δprocessed of the transport over the call
  bool satisfied = false;
};

class Bench {
 public:
  /// `start` is taken first thing in main(), `inputs_begin` just before
  /// this constructor, which generates the inputs.
  Bench(const WorkloadSpec& w, const Args& args, Clock::time_point start,
        Clock::time_point inputs_begin)
      : w_(w),
        args_(args),
        start_(start),
        cat_(make_catalogue(w, args.seed)),
        oracle_(cat_),
        spans_(start),
        trace_rng_(stream(args.seed, 5).next()) {
    cfg_.num_servers = kNumServers;
    cfg_.strategy_policy = strategy_policy;
    cfg_.link = w.link;
    cfg_.expected_keys = cat_.names.size();
    cfg_.seed = stream(args.seed, 4).next();
    inputs_s_ = seconds_between(inputs_begin, Clock::now());
  }

  int run() {
    setup();
    const auto t0 = Clock::now();
    serve();
    const auto t1 = Clock::now();
    sharded_checks();
    snapshot_check();
    const auto t2 = Clock::now();
    std::printf("# phase seconds: setup+checks %.2f serve+sharded+maintenance %.2f "
                "final checks %.2f\n",
                seconds_between(start_, t0), seconds_between(t0, t1),
                seconds_between(t1, t2));
    return report();
  }

 private:
  // --- setup ---------------------------------------------------------------

  void setup() {
    const std::size_t rss0 = resident_bytes();
    build_served();
    // A cold set-up: from the start of the process's main(), input
    // generation excluded.
    setup_s_ = seconds_between(start_, Clock::now()) - inputs_s_;
    const std::size_t rss1 = resident_bytes();
    resident_per_key_ = static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) /
                        static_cast<double>(cat_.names.size());
    start_episode();
  }

  /// A fresh service with the whole catalogue placed.
  void build_served() {
    svc_ = std::make_unique<core::PartialLookupService>(cfg_);
    for (const std::uint32_t k : cat_.placement_order) {
      svc_->place(cat_.names[k], initial_entries(cat_, k));
    }
  }

  /// Everything an episode serves besides the service: the model, the
  /// repair process, the sharded runtime with the same catalogue, and the
  /// episode's op stream.
  void start_episode() {
    oracle_ = Model(cat_);
    check_.expect(svc_->num_keys() == cat_.names.size(), "setup: key count");
    check_complete_families(*svc_, "setup");
    repair_ = std::make_unique<net::RepairProcess>(
        svc_->cluster().failures(), net::RepairProcess::Config{1.0});
    for (std::size_t id = 0; id < svc_->num_keys(); ++id) {
      repair_->add_target(&svc_->strategy_at(static_cast<pls::KeyId>(id)));
    }
    // Control thread + kShards workers: 3 threads on a 4-core box.
    rt_ = std::make_unique<pls::sim::ShardedRuntime>(
        pls::sim::ShardedRuntimeConfig{.shards = kShards, .queue_capacity = 1024, .service = cfg_});
    for (const std::uint32_t k : cat_.placement_order) {
      rt_->place(cat_.names[k], initial_entries(cat_, k));
    }
    rt_->drain();
    gen_.emplace(w_, cat_, args_.seed, episodes_++);
    episode_rounds_ = 0;
  }

  /// Ends an episode: its last segment is replayed, the runtime's checks
  /// and totals are taken, and the served state is rebuilt.
  void next_episode() {
    replay_segment();
    retire_runtime();
    build_served();
    start_episode();
  }

  /// For the families that store every entry, the distinct entries on the
  /// cluster must be exactly the model's live entries.
  void check_complete_families(const core::PartialLookupService& svc,
                               const char* when) {
    for (std::size_t k = 0; k < cat_.names.size(); ++k) {
      if (!kFamilies[cat_.family[k]].stores_every_entry) continue;
      const std::size_t stored =
          svc.strategy(cat_.names[k]).placement().distinct_entries();
      check_.expect(stored == oracle_.live_count(k),
                   std::string(when) + ": " + cat_.names[k] + " stores " +
                       std::to_string(stored) + " distinct entries, model " +
                       std::to_string(oracle_.live_count(k)));
    }
  }

  /// Per key of the families that store every entry: how many distinct
  /// entries the cluster holds, and how many of them have their only copy
  /// on `host`. Hash-y and MultiProbe-y may draw the same host for several of
  /// an entry's y copies, so one host can hold an entry's only copy.
  struct Census {
    std::vector<std::size_t> distinct;
    std::vector<std::size_t> only_on_host;
  };

  Census census(const core::PartialLookupService& svc, pls::ServerId host) const {
    Census c;
    c.distinct.assign(cat_.names.size(), 0);
    c.only_on_host.assign(cat_.names.size(), 0);
    std::vector<pls::Entry> all;
    for (std::size_t k = 0; k < cat_.names.size(); ++k) {
      if (!kFamilies[cat_.family[k]].stores_every_entry) continue;
      const core::Placement p = svc.strategy(cat_.names[k]).placement();
      all.clear();
      for (const auto& server : p.servers) all.insert(all.end(), server.begin(), server.end());
      std::sort(all.begin(), all.end());
      for (std::size_t i = 0; i < all.size(); ++i) {
        if (i == 0 || all[i] != all[i - 1]) ++c.distinct[k];
      }
      for (const pls::Entry v : p.servers[host]) {
        const auto [lo, hi] = std::equal_range(all.begin(), all.end(), v);
        if (hi - lo == 1) ++c.only_on_host[k];
      }
    }
    return c;
  }

  // --- serve ---------------------------------------------------------------

  void serve() {
    std::vector<Op> round;
    std::vector<LookupRecord> records;
    std::vector<pls::Entry> flat;
    const double budget = kServeShare * args_.seconds;
    const auto serve_start = Clock::now();
    double elapsed = 0;
    std::size_t maintained = 0;
    do {
      if (w_.episode_rounds != 0 && episode_done()) next_episode();
      core::PartialLookupService& svc = *svc_;
      const net::TransportStats& stats = svc.total_transport();
      round.clear();
      gen_->next_round(round);
      records.clear();
      flat.clear();
      const auto round_start = Clock::now();
      for (std::size_t i = 0; i < round.size(); ++i) {
        const Op& op = round[i];
        const auto op_index = static_cast<std::int64_t>(ops_seen_ + i);
        const bool sampled = args_.trace && op_index % kTraceEvery == 0;
        const pls::Key& key = cat_.names[op.key];
        const std::uint64_t p0 = stats.processed;
        const std::uint64_t r0 = stats.retries;
        const std::uint64_t d0 = stats.dup_suppressed;
        switch (op.kind) {
          case OpKind::kLookup: {
            const auto t0 = Clock::now();
            const core::LookupResult res = svc.partial_lookup(key, op.t);
            const auto t1 = Clock::now();
            lookup_ns_.push_back(static_cast<std::uint32_t>(ns_between(t0, t1)));
            const std::uint64_t msgs = stats.processed - p0;
            records.push_back({.begin = static_cast<std::uint32_t>(flat.size()),
                               .count = static_cast<std::uint32_t>(res.entries.size()),
                               .contacted = static_cast<std::uint32_t>(res.servers_contacted),
                               .msgs = msgs,
                               .satisfied = res.satisfied});
            flat.insert(flat.end(), res.entries.begin(), res.entries.end());
            tally_.lookups += 1;
            tally_.satisfied += res.satisfied ? 1 : 0;
            tally_.servers_contacted += res.servers_contacted;
            tally_.entries_returned += res.entries.size();
            lookup_msgs_ += msgs;
            retries_ += stats.retries - r0;
            dup_suppressed_ += stats.dup_suppressed - d0;
            // The layer calls run after the op's counters are read, so
            // their traffic is not charged to the op.
            if (sampled) {
              const std::uint64_t parent =
                  spans_.record(SpanName::kServiceLookup, t0, t1, op_index);
              trace_lookup_layers(key, op.t, op_index, parent);
            }
            break;
          }
          case OpKind::kAdd:
          case OpKind::kErase: {
            const bool add = op.kind == OpKind::kAdd;
            if (sampled) {
              trace_update(key, add, op.value, op_index);
            } else {
              const auto t0 = Clock::now();
              if (add) {
                svc.add(key, op.value);
              } else {
                svc.erase(key, op.value);
              }
              const auto t1 = Clock::now();
              update_ns_.push_back(static_cast<std::uint32_t>(ns_between(t0, t1)));
            }
            update_msgs_ += stats.processed - p0;
            retries_ += stats.retries - r0;
            dup_suppressed_ += stats.dup_suppressed - d0;
            break;
          }
          case OpKind::kFail:
            svc.fail_server(static_cast<pls::ServerId>(op.value));
            break;
          case OpKind::kRecover:
            svc.recover_server(static_cast<pls::ServerId>(op.value));
            break;
          case OpKind::kRepair:
            (void)repair_->scan_once(static_cast<double>(op_index));
            break;
        }
      }
      const double wall = seconds_between(round_start, Clock::now());
      const auto round_client_ops = static_cast<std::uint64_t>(
          std::count_if(round.begin(), round.end(), is_client_op));
      round_rates_.push_back(static_cast<double>(round_client_ops) / wall);
      client_ops_ += round_client_ops;
      check_round(round, records, flat);
      segment_.insert(segment_.end(), round.begin(), round.end());
      ops_seen_ += round.size();
      ++rounds_;
      ++episode_rounds_;
      if (rounds_ % w_.sharded_segment_rounds == 0) replay_segment();
      elapsed = seconds_between(serve_start, Clock::now());
      // Maintenance points sit at the middles of maintenance_reps equal
      // slices of the budget, so each rep meets the host in another
      // stretch of the run. A point falls due there and runs at the end of
      // the episode, so every point meets a state that has served the same
      // number of rounds.
      if (maintained < w_.maintenance_reps && episode_done() &&
          elapsed >= budget * (static_cast<double>(maintained) + 0.5) /
                         static_cast<double>(w_.maintenance_reps)) {
        maintain(maintained++);
      }
    } while (elapsed < budget || !episode_done());
    replay_segment();
    while (maintained < w_.maintenance_reps) maintain(maintained++);
    retire_runtime();
  }

  /// Whether the rounds served so far end an episode; on a workload
  /// without episodes every round does.
  bool episode_done() const {
    return w_.episode_rounds == 0 || episode_rounds_ == w_.episode_rounds;
  }

  /// The traced run's extra calls for one sampled lookup: each layer's
  /// public entry point on the same key and t, one span each. They consume
  /// the program's random streams and add transport traffic, so a traced
  /// run's outputs differ from an untraced run's.
  void trace_lookup_layers(const pls::Key& key, std::size_t t,
                           std::int64_t op, std::uint64_t parent) {
    core::PartialLookupService& svc = *svc_;
    auto a = Clock::now();
    const auto id = svc.key_id(key);
    auto b = Clock::now();
    spans_.record(SpanName::kServiceResolve, a, b, op, parent);
    if (!id.has_value()) {
      check_.fail("trace: key " + key + " not interned");
      return;
    }
    core::Strategy& strategy = svc.strategy_at(*id);
    a = Clock::now();
    const core::LookupResult direct = strategy.partial_lookup(t);
    b = Clock::now();
    spans_.record(SpanName::kStrategyLookup, a, b, op, parent);
    check_.expect(direct.entries.size() <= t, "trace: strategy lookup over t");

    const auto up = svc.failures().up_servers();
    if (up.empty()) return;
    const pls::ServerId host = up[trace_rng_.uniform(up.size())];
    a = Clock::now();
    strategy.server_state(host).store().sample_into(t, trace_rng_, sample_buf_);
    b = Clock::now();
    spans_.record(SpanName::kStoreSample, a, b, op, parent);

    net::Message request = net::LookupRequest{static_cast<std::uint32_t>(t)};
    request.key = *id;
    net::Network& network = svc.cluster().network();
    a = Clock::now();
    {
      const net::Message reply = svc.cluster().host(host).on_rpc(request, network);
      b = Clock::now();
      check_.expect(std::holds_alternative<net::LookupReply>(reply),
                   "trace: host rpc did not answer a LookupRequest");
    }
    spans_.record(SpanName::kHostRpc, a, b, op, parent);
    a = Clock::now();
    {
      const net::CallResult call = network.client_call(
          host, request, network.retry_policy(), network.retry_policy().max_attempts);
      b = Clock::now();
      (void)call;
    }
    spans_.record(SpanName::kNetworkCall, a, b, op, parent);
  }

  /// A sampled update runs through the layers instead of the service call:
  /// resolve the key, then the strategy's add/erase. The op still happens
  /// exactly once.
  void trace_update(const pls::Key& key, bool add, pls::Entry v,
                    std::int64_t op) {
    core::PartialLookupService& svc = *svc_;
    const auto a = Clock::now();
    const auto id = svc.key_id(key);
    const auto b = Clock::now();
    if (!id.has_value()) {
      check_.fail("trace: key " + key + " not interned");
      return;
    }
    core::Strategy& strategy = svc.strategy_at(*id);
    const auto c = Clock::now();
    if (add) {
      strategy.add(v);
    } else {
      strategy.erase(v);
    }
    const auto d = Clock::now();
    update_ns_.push_back(static_cast<std::uint32_t>(ns_between(a, d)));
    const std::uint64_t parent = spans_.record(SpanName::kServiceUpdate, a, d, op);
    spans_.record(SpanName::kServiceResolve, a, b, op, parent);
    spans_.record(SpanName::kStrategyUpdate, c, d, op, parent);
  }

  /// Replays the round's updates on the model and checks every lookup
  /// against the model state at the moment it ran.
  void check_round(const std::vector<Op>& round,
                   const std::vector<LookupRecord>& records,
                   const std::vector<pls::Entry>& flat) {
    // Without transient failures every live entry is on an up host, and on
    // a lossy link the retry policy loses a send outright with probability
    // drop^max_attempts (1e-12 at 0.1% drop), so a lookup on a family that
    // stores every entry finds t entries whenever the key holds t.
    const bool live_only = !w_.failures;
    const bool exact = !w_.failures;
    const bool reliable = !w_.link.lossy();
    std::size_t li = 0;
    std::vector<pls::Entry> sorted;
    for (const Op& op : round) {
      if (op.kind == OpKind::kAdd) oracle_.add(op.key, op.value);
      if (op.kind == OpKind::kErase) oracle_.erase(op.key, op.value);
      if (op.kind != OpKind::kLookup) continue;
      const LookupRecord& r = records[li++];
      const pls::Entry* e = flat.data() + r.begin;
      const pls::Key& key = cat_.names[op.key];
      sorted.assign(e, e + r.count);
      std::sort(sorted.begin(), sorted.end());
      check_.expect(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
                   "lookup on " + key + " returned a duplicate entry");
      check_.expect(r.count <= op.t, "lookup on " + key + " returned more than t");
      check_.expect(r.satisfied == (r.count >= op.t),
                   "lookup on " + key + ": satisfied disagrees with |entries| >= t");
      std::size_t stale = 0;
      for (std::uint32_t j = 0; j < r.count; ++j) {
        check_.expect(oracle_.was_added(op.key, e[j]),
                     "lookup on " + key + " returned an entry never added");
        if (!oracle_.is_live(op.key, e[j])) ++stale;
      }
      if (live_only) {
        check_.expect(stale == 0, "lookup on " + key + " returned a deleted entry");
      } else if (stale > 0) {
        (op.probe ? probe_failures_ : stale_reads_) += 1;
      }
      if (exact && kFamilies[cat_.family[op.key]].stores_every_entry) {
        check_.expect(r.satisfied == (oracle_.live_count(op.key) >= op.t),
                     "lookup on " + key + " (t=" + std::to_string(op.t) +
                         ", live=" + std::to_string(oracle_.live_count(op.key)) +
                         "): satisfied disagrees with the model");
      }
      if (reliable) {
        check_.expect(r.msgs == r.contacted,
                     "lookup on " + key + ": servers_contacted " +
                         std::to_string(r.contacted) + " != transport Δprocessed " +
                         std::to_string(r.msgs));
      }
    }
  }

  // --- maintenance ---------------------------------------------------------

  /// One maintenance point between two rounds. The service is saved and
  /// loaded into a fresh service, and the copy — the served state, bit for
  /// bit — goes through a graceful leave and a join, then the permanent
  /// loss of a host and repair passes until a pass finds nothing to repair.
  /// The served service itself never changes membership, so the serve
  /// stream and its sharded replay stay free of maintenance.
  void maintain(std::size_t c) {
    std::vector<std::uint8_t> blob;
    double save_s = 0;
    for (std::size_t i = 0; i < kSavesPerPoint; ++i) {
      blob = std::vector<std::uint8_t>();  // each save starts without a buffer
      const auto sa = Clock::now();
      blob = pls::wire::save_service(*svc_);
      const auto sb = Clock::now();
      const double s = seconds_between(sa, sb);
      save_s = i == 0 ? s : std::min(save_s, s);
      if (args_.trace) spans_.record(SpanName::kSnapshotSave, sa, sb);
    }
    save_s_.push_back(save_s);
    auto copy = std::make_unique<core::PartialLookupService>(cfg_);
    const auto la = Clock::now();
    const auto err = pls::wire::load_service(*copy, blob);
    const auto lb = Clock::now();
    load_s_.push_back(seconds_between(la, lb));
    snapshot_bytes_ = static_cast<double>(blob.size());
    if (args_.trace) spans_.record(SpanName::kSnapshotLoad, la, lb);
    if (err.has_value()) {
      check_.fail("snapshot: load_service failed: " + *err);
      return;
    }

    core::PartialLookupService& svc = *copy;
    const net::TransportStats& stats = svc.total_transport();
    const net::TransportStats& repair_stats = svc.cluster().network().repair_stats();
    const net::FailureState& fs = svc.failures();
    // Rank 0 (Round-Robin's coordinator) neither leaves nor is wiped.
    const pls::ServerId leaver = fs.member_at(1 + c % (fs.member_count() - 1));
    const std::uint64_t p0 = stats.processed;
    const auto a = Clock::now();
    svc.remove_server(leaver, net::Loss::kGraceful);
    const auto b = Clock::now();
    (void)svc.add_server();
    const auto d = Clock::now();
    leave_s_.push_back(seconds_between(a, b));
    join_s_.push_back(seconds_between(b, d));
    migration_s_.push_back(seconds_between(a, d));
    migration_msgs_.push_back(static_cast<double>(stats.processed - p0));
    if (args_.trace) {
      spans_.record(SpanName::kClusterLeave, a, b);
      spans_.record(SpanName::kClusterJoin, b, d);
    }
    // With transient failures in the stream, stale copies (the known
    // resurrection fault) legitimately break this equality.
    if (!w_.failures) check_complete_families(svc, "after leave/join");

    net::RepairProcess repair(svc.cluster().failures(), net::RepairProcess::Config{1.0});
    for (std::size_t id = 0; id < svc.num_keys(); ++id) {
      repair.add_target(&svc.strategy_at(static_cast<pls::KeyId>(id)));
    }
    const pls::ServerId victim = fs.member_at(1 + (c + 1) % (fs.member_count() - 1));
    const Census before = census(svc, victim);
    lose_host(svc, victim);
    const std::uint64_t m0 = repair_stats.processed;
    std::uint64_t passes = 0;
    double now = 0;
    const auto ra = Clock::now();
    for (;;) {
      const std::uint64_t created = repair.replicas_created();
      const auto pa = Clock::now();
      const bool worked = repair.scan_once(now += 1.0);
      const auto pb = Clock::now();
      if (!worked) break;
      ++passes;
      pass_s_.push_back(seconds_between(pa, pb));
      if (args_.trace) spans_.record(SpanName::kRepairPass, pa, pb);
      if (repair.replicas_created() == created) break;
    }
    const auto rb = Clock::now();
    repair_s_.push_back(seconds_between(ra, rb));
    repair_passes_.push_back(static_cast<double>(passes));
    replicas_created_.push_back(static_cast<double>(repair.replicas_created()));
    repair_msgs_.push_back(static_cast<double>(repair_stats.processed - m0));
    check_.expect(passes >= 1, "repair: no pass ran after a host loss");
    // Repair keeps every entry that still had a copy elsewhere; only the
    // entries whose every copy sat on the wiped host are gone.
    const Census after = census(svc, victim);
    for (std::size_t k = 0; k < cat_.names.size(); ++k) {
      const std::size_t lost = before.only_on_host[k];
      entries_lost_ += lost;
      check_.expect(after.distinct[k] == before.distinct[k] - lost,
                   "after repair: " + cat_.names[k] + " stores " +
                       std::to_string(after.distinct[k]) + " distinct entries, expected " +
                       std::to_string(before.distinct[k]) + " - " + std::to_string(lost) +
                       " lost with host " + std::to_string(victim));
    }
  }

  /// Permanent loss: the host crashes and comes back with an empty disk.
  static void lose_host(core::PartialLookupService& svc, pls::ServerId host) {
    svc.fail_server(host);
    svc.cluster().wipe_host(host);
    svc.recover_server(host);
  }

  /// After the serve phase: a restored service must re-save to the same
  /// bytes and answer a batch of lookups exactly as the original does.
  void snapshot_check() {
    core::PartialLookupService& svc = *svc_;
    const std::vector<std::uint8_t> blob = pls::wire::save_service(svc);
    core::PartialLookupService restored(cfg_);
    const auto err = pls::wire::load_service(restored, blob);
    if (err.has_value()) {
      check_.fail("snapshot: load_service failed: " + *err);
      return;
    }
    check_.expect(pls::wire::save_service(restored) == blob,
                 "snapshot: save(load(blob)) is not byte-identical to blob");
    SplitMix64 rng = stream(args_.seed, 3);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < kSnapshotLookups; ++i) {
      const pls::Key& key = cat_.names[rng.below(cat_.names.size())];
      const std::size_t t = 1 + rng.below(kMaxT);
      if (svc.partial_lookup(key, t) != restored.partial_lookup(key, t)) ++mismatches;
    }
    check_.expect(mismatches == 0, "snapshot: " + std::to_string(mismatches) +
                                      " lookups differ between original and restored");
  }

  // --- sharded -----------------------------------------------------------------

  /// Replays the rounds served since the last segment on the sharded
  /// runtime: every op submitted back to back behind the bounded rings, then
  /// drain(), timed from the first submit to the end of the drain. Segments
  /// alternate with serve rounds, so both phases sample the same stretches
  /// of the run.
  void replay_segment() {
    if (segment_.empty()) return;
    pls::sim::ShardedRuntime& rt = *rt_;
    std::size_t index = ops_seen_ - segment_.size();
    std::uint64_t segment_ops = 0;
    const auto a = Clock::now();
    for (const Op& op : segment_) {
      const bool sampled = args_.trace &&
                           static_cast<std::int64_t>(index) % kTraceEvery == 0 &&
                           is_client_op(op);
      const auto s0 = sampled ? Clock::now() : Clock::time_point{};
      submit(rt, op, index);
      if (sampled) {
        spans_.record(SpanName::kRuntimeSubmit, s0, Clock::now(),
                      static_cast<std::int64_t>(index));
      }
      segment_ops += is_client_op(op) ? 1 : 0;
      ++index;
    }
    const auto b = Clock::now();
    rt.drain();
    const auto d = Clock::now();
    segment_rates_.push_back(static_cast<double>(segment_ops) / seconds_between(a, d));
    drain_ms_.push_back(1e3 * seconds_between(b, d));
    if (args_.trace) spans_.record(SpanName::kRuntimeDrain, b, d);
    segment_.clear();
  }

  /// Takes what the checks need from the episode's runtime and stops it.
  void retire_runtime() {
    pls::sim::ShardedRuntime& rt = *rt_;
    for (std::size_t s = 0; s < rt.shards(); ++s) {
      queue_peak_ = std::max(queue_peak_, rt.shard_queue_peak(s));
    }
    check_.expect(rt.shards_consistent(), "sharded: shard replicas diverged");
    rt_totals_.merge(rt.lookup_totals());
    rt_.reset();
  }

  void sharded_checks() {
    // The traced run's extra calls perturbed the sequential run, so only
    // an untraced run can be compared with the runtime.
    if (!args_.trace) {
      const auto& totals = rt_totals_;
      check_.expect(totals == tally_,
                   "sharded: folded lookup_totals differ from the serve phase (" +
                       std::to_string(totals.lookups) + "/" +
                       std::to_string(totals.satisfied) + "/" +
                       std::to_string(totals.servers_contacted) + "/" +
                       std::to_string(totals.entries_returned) + " vs " +
                       std::to_string(tally_.lookups) + "/" +
                       std::to_string(tally_.satisfied) + "/" +
                       std::to_string(tally_.servers_contacted) + "/" +
                       std::to_string(tally_.entries_returned) + ")");
    }
  }

  void submit(pls::sim::ShardedRuntime& rt, const Op& op, std::size_t i) const {
    switch (op.kind) {
      case OpKind::kLookup:
        rt.lookup(cat_.names[op.key], op.t);
        break;
      case OpKind::kAdd:
        rt.add(cat_.names[op.key], op.value);
        break;
      case OpKind::kErase:
        rt.erase(cat_.names[op.key], op.value);
        break;
      case OpKind::kFail:
        rt.fail_server(static_cast<pls::ServerId>(op.value));
        break;
      case OpKind::kRecover:
        rt.recover_server(static_cast<pls::ServerId>(op.value));
        break;
      case OpKind::kRepair:
        rt.repair_scan(static_cast<double>(i));
        break;
    }
  }

  // --- report ------------------------------------------------------------------

  std::vector<Metric> end_to_end() {
    const std::size_t lookups = lookup_ns_.size();
    const std::size_t updates = update_ns_.size();
    std::vector<Metric> m = {
        {"setup_s", setup_s_, "s"},
        {"lookup_p50_us", windowed_quantile(lookup_ns_, 0.50) / 1e3, "us"},
        {"lookup_p99_us", windowed_quantile(lookup_ns_, 0.99) / 1e3, "us"},
        {"update_p50_us", windowed_quantile(update_ns_, 0.50) / 1e3, "us"},
        {"update_p99_us", windowed_quantile(update_ns_, 0.99) / 1e3, "us"},
        {"serve_ops_per_s", fast_end(round_rates_, false), "ops/s"},
        {"sharded_ops_per_s", fast_end(segment_rates_, false), "ops/s"},
        {"resident_bytes_per_key", resident_per_key_, "B"},
        {"migration_s", median(migration_s_), "s"},
        {"repair_s", median(repair_s_), "s"},
        {"snapshot_save_s", median(save_s_), "s"},
        {"snapshot_load_s", median(load_s_), "s"},
    };
    std::printf("# samples: lookups=%zu updates=%zu client_ops=%llu rounds=%zu "
                "episodes=%llu sharded_segments=%zu stale_reads=%llu probe_failures=%llu "
                "entries_lost_with_wiped_hosts=%llu\n",
                lookups, updates, static_cast<unsigned long long>(client_ops_),
                rounds_, static_cast<unsigned long long>(episodes_), segment_rates_.size(),
                static_cast<unsigned long long>(stale_reads_),
                static_cast<unsigned long long>(probe_failures_),
                static_cast<unsigned long long>(entries_lost_));
    return m;
  }

  std::vector<Metric> per_layer() {
    const std::uint64_t updates = client_ops_ - tally_.lookups;
    return {
        {"core.service.resolve_ns", spans_.median_ns(SpanName::kServiceResolve), "ns"},
        {"core.strategy.lookup_ns", spans_.median_ns(SpanName::kStrategyLookup), "ns"},
        {"core.strategy.update_ns", spans_.median_ns(SpanName::kStrategyUpdate), "ns"},
        {"core.lookup.servers_per_lookup",
         ratio(tally_.servers_contacted, tally_.lookups), "servers"},
        {"core.lookup.satisfied_ratio", ratio(tally_.satisfied, tally_.lookups), "ratio"},
        {"core.entry_store.sample_ns", spans_.median_ns(SpanName::kStoreSample), "ns"},
        {"net.host.rpc_ns", spans_.median_ns(SpanName::kHostRpc), "ns"},
        {"net.network.call_ns", spans_.median_ns(SpanName::kNetworkCall), "ns"},
        {"net.network.msgs_per_lookup", ratio(lookup_msgs_, tally_.lookups), "msgs"},
        {"net.network.msgs_per_update", ratio(update_msgs_, updates), "msgs"},
        {"net.network.retries_per_op", ratio(retries_, client_ops_), "count"},
        {"net.network.dup_suppressed_per_op", ratio(dup_suppressed_, client_ops_), "count"},
        {"net.cluster.leave_s", median(leave_s_), "s"},
        {"net.cluster.join_s", median(join_s_), "s"},
        {"net.cluster.migration_msgs", median(migration_msgs_), "msgs"},
        {"net.repair.pass_s", median(pass_s_), "s"},
        {"net.repair.passes", median(repair_passes_), "count"},
        {"net.repair.replicas_created", median(replicas_created_), "count"},
        {"net.repair.msgs", median(repair_msgs_), "msgs"},
        {"runtime.submit_ns", spans_.median_ns(SpanName::kRuntimeSubmit), "ns"},
        {"runtime.drain_ms", median(drain_ms_), "ms"},
        {"runtime.queue_peak", static_cast<double>(queue_peak_), "count"},
        {"wire.snapshot.bytes_per_key",
         snapshot_bytes_ / static_cast<double>(cat_.names.size()), "B"},
    };
  }

  int report() {
    std::vector<Metric> e2e = end_to_end();
    std::printf("# end_to_end %s\n", metrics_json(e2e).c_str());
    std::vector<Metric> metrics = e2e;
    if (args_.trace) {
      metrics = per_layer();
      std::printf("# spans: %zu\n", spans_.size());
      if (!args_.trace_out.empty()) {
        const std::filesystem::path out(args_.trace_out);
        if (out.has_parent_path()) {
          std::filesystem::create_directories(out.parent_path());
        }
        check_.expect(spans_.write(args_.trace_out),
                     "could not write spans to " + args_.trace_out);
      }
    }
    // Serve and sharded phases each issue every client op once; the only
    // failures counted are the stale-delete probe's lookups (failover-repair).
    const std::uint64_t attempted = 2 * client_ops_;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                check_.ok() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(probe_failures_),
                metrics_json(metrics).c_str());
    std::fflush(stdout);
    if (!check_.ok()) {
      std::fprintf(stderr, "%llu check violations\n",
                   static_cast<unsigned long long>(check_.violations()));
      return 1;
    }
    return 0;
  }

  const WorkloadSpec& w_;
  const Args& args_;
  const Clock::time_point start_;
  const Catalogue cat_;
  core::ServiceConfig cfg_;
  Model oracle_;
  SpanLog spans_;
  pls::Rng trace_rng_;
  std::vector<pls::Entry> sample_buf_;
  Checker check_;

  std::unique_ptr<core::PartialLookupService> svc_;
  std::unique_ptr<net::RepairProcess> repair_;
  std::unique_ptr<pls::sim::ShardedRuntime> rt_;
  std::optional<StreamGenerator> gen_;
  std::uint64_t episodes_ = 0;
  /// Rounds served in the current episode.
  std::size_t episode_rounds_ = 0;
  /// lookup_totals() of the runtimes of the episodes served so far.
  pls::metrics::ShardLookupCounters rt_totals_;
  /// Served ops not yet replayed on the sharded runtime.
  std::vector<Op> segment_;
  /// Ops of the stream served so far, cluster events included.
  std::size_t ops_seen_ = 0;
  std::size_t rounds_ = 0;
  std::uint64_t client_ops_ = 0;

  double inputs_s_ = 0;
  double setup_s_ = 0;
  double resident_per_key_ = 0;
  std::vector<std::uint32_t> lookup_ns_;
  std::vector<std::uint32_t> update_ns_;
  /// Client ops per second of each serve round.
  std::vector<double> round_rates_;
  std::uint64_t entries_lost_ = 0;
  pls::metrics::ShardLookupCounters tally_;
  std::uint64_t lookup_msgs_ = 0;
  std::uint64_t update_msgs_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t dup_suppressed_ = 0;
  std::uint64_t stale_reads_ = 0;
  std::uint64_t probe_failures_ = 0;

  std::vector<double> leave_s_, join_s_, migration_s_, migration_msgs_;
  std::vector<double> repair_s_, pass_s_, repair_passes_, replicas_created_, repair_msgs_;
  std::vector<double> save_s_, load_s_;
  double snapshot_bytes_ = 0;

  /// Client ops per second of each sharded segment, and its final drain.
  std::vector<double> segment_rates_;
  std::vector<double> drain_ms_;
  std::uint64_t queue_peak_ = 0;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto start = perfbench::Clock::now();
  const auto args = perfbench::parse_args(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  const perfbench::WorkloadSpec* w = perfbench::find_workload(args->workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args->workload.c_str());
    return 2;
  }
  try {
    perfbench::Bench bench(*w, *args, start, perfbench::Clock::now());
    return bench.run();
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "benchmark aborted: %s\n", ex.what());
    return 1;
  }
}
