// Seeded inputs for the service benchmark: the workload table, the key
// catalogue with each key's placement family, and the op stream.
//
// Everything here is the benchmark's own code — its own generator, its own
// Zipf sampler, its own model of what each key holds — so a change to the
// library's pls::Rng or pls::workload cannot change what is measured. The
// same (workload, seed) always yields the same catalogue and op stream.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pls/core/strategy.hpp"
#include "pls/net/link_model.hpp"

namespace perfbench {

using pls::Entry;
using pls::Key;

/// SplitMix64 (Steele, Lea & Flood 2014): one 64-bit word of state, full
/// period, good enough for workload shaping.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); the modulo bias is below 2^-40 for every n used.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// One stream per (seed, purpose), so adding a draw to one purpose never
/// shifts another.
inline SplitMix64 stream(std::uint64_t seed, std::uint64_t purpose) {
  SplitMix64 mixer(seed ^ (purpose * 0xd1b54a32d192ed03ULL));
  return SplitMix64(mixer.next());
}

/// Zipf(theta) over ranks 0..n-1 by inverse CDF; theta == 0 is uniform.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double theta) : n_(n) {
    if (theta == 0.0) return;
    cdf_.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  std::size_t operator()(SplitMix64& rng) const {
    if (cdf_.empty()) return static_cast<std::size_t>(rng.below(n_));
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.unit());
    const auto rank = static_cast<std::size_t>(it - cdf_.begin());
    return rank < n_ ? rank : n_ - 1;
  }

 private:
  std::size_t n_;
  std::vector<double> cdf_;
};

// --- placement families ----------------------------------------------------

struct FamilySpec {
  std::string_view tag;
  pls::core::StrategyKind kind;
  std::size_t param;
  /// Every live entry is stored on some host (no subset sampling), so a
  /// lookup on a reliable, failure-free cluster is satisfied exactly when
  /// the key holds >= t live entries.
  bool stores_every_entry;
};

inline constexpr std::array<FamilySpec, 6> kFamilies{{
    {"full", pls::core::StrategyKind::kFullReplication, 1, true},
    {"fixed10", pls::core::StrategyKind::kFixed, 10, false},
    {"rs6", pls::core::StrategyKind::kRandomServer, 6, false},
    {"rr2", pls::core::StrategyKind::kRoundRobin, 2, true},
    {"hash2", pls::core::StrategyKind::kHash, 2, true},
    {"mp2", pls::core::StrategyKind::kMultiProbe, 2, true},
}};

/// Family of popularity rank r is kFamilyCycle[r % 20]: 10% Full
/// Replication, 15% Fixed-10, 15% RandomServer-6, 20% each Round-Robin-2,
/// Hash-2 and MultiProbe-2. Cycling by rank gives every seed the same mix,
/// also among the hottest keys, so seeds differ in key names and entry
/// counts but not in how much traffic each family serves.
inline constexpr std::array<std::uint8_t, 20> kFamilyCycle{
    0, 3, 4, 5, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5};

/// A key's name is "<family tag>/<hex>"; the family is read back from the
/// name, so the policy is a pure function of the key's content (it also
/// runs on the sharded runtime's worker threads).
inline std::optional<std::size_t> family_of(const Key& key) {
  const auto slash = key.find('/');
  if (slash == Key::npos) return std::nullopt;
  const std::string_view tag(key.data(), slash);
  for (std::size_t f = 0; f < kFamilies.size(); ++f) {
    if (kFamilies[f].tag == tag) return f;
  }
  return std::nullopt;
}

inline std::optional<pls::core::StrategyConfig> strategy_policy(
    const Key& key) {
  const auto f = family_of(key);
  if (!f.has_value()) return std::nullopt;
  pls::core::StrategyConfig cfg;
  cfg.kind = kFamilies[*f].kind;
  cfg.param = kFamilies[*f].param;
  return cfg;
}

// --- workloads -------------------------------------------------------------

/// Shared by every workload.
inline constexpr std::size_t kNumServers = 10;
/// Entries placed per key at setup: the counts kMinEntries..kMaxEntries in
/// turn, dealt to the keys in a seeded random order, so every seed places
/// the same total.
inline constexpr std::uint32_t kMinEntries = 8;
inline constexpr std::uint32_t kMaxEntries = 24;
/// Updates keep each key's live count inside [kMinLive, kMaxLive]: an
/// erase drawn at the floor becomes an add, an add at the ceiling an erase.
inline constexpr std::uint32_t kMinLive = 4;
inline constexpr std::uint32_t kMaxLive = 40;
/// Lookups draw t uniformly from 1..kMaxT.
inline constexpr std::uint32_t kMaxT = 15;
/// Client ops drawn per round.
inline constexpr std::size_t kRoundOps = 8192;
/// Share of --seconds the serve phase (rounds, their sharded replays and
/// the maintenance points) runs for, in whole rounds.
inline constexpr double kServeShare = 0.8;

struct WorkloadSpec {
  std::string_view name;
  std::size_t keys;
  double lookup_share;  ///< the rest splits evenly between add and erase
  double zipf_theta;    ///< key popularity; 0 = uniform
  pls::net::LinkModel link;
  /// Hosts fail and recover at fixed points of every round, a repair pass
  /// follows each recovery, and the stale-delete probe runs.
  bool failures;
  /// After every this many serve rounds, those rounds are replayed on the
  /// sharded runtime as one segment, timed from its first submit to the end
  /// of its drain().
  std::size_t sharded_segment_rounds;
  /// Maintenance points spread evenly over the serve phase; each saves a
  /// snapshot, loads it into a fresh service, and runs one leave/join
  /// cycle and one host loss with its repair passes on that copy.
  std::size_t maintenance_reps;
  /// After every this many rounds the served state is rebuilt from the
  /// catalogue (0 = never): a fresh service, sharded runtime and model,
  /// and the op stream of the next episode. Without it the entries that
  /// repair resurrects (see README.md) pile up for as long as the run
  /// lasts, so each op's cost would depend on how many rounds a run got
  /// through.
  std::size_t episode_rounds;
};

inline constexpr std::array<WorkloadSpec, 2> kWorkloads{{
    {.name = "write-lossy-small",
     .keys = 400,
     .lookup_share = 0.20, .zipf_theta = 0.0,
     .link = {.drop_probability = 0.001, .duplicate_probability = 0.01},
     .failures = false,
     .sharded_segment_rounds = 8,
     .maintenance_reps = 41,
     .episode_rounds = 0},
    {.name = "failover-repair",
     .keys = 1000,
     .lookup_share = 0.70, .zipf_theta = 0.8,
     .link = {},
     .failures = true,
     .sharded_segment_rounds = 4,
     .maintenance_reps = 31,
     .episode_rounds = 8},
}};

inline const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// --- catalogue ---------------------------------------------------------------

/// The keys of one run. Key index == popularity rank; keys are placed in a
/// seeded random order so the hot keys are not also the first-interned
/// (adjacent in memory) ones.
struct Catalogue {
  std::vector<Key> names;
  std::vector<std::uint8_t> family;
  std::vector<std::uint32_t> initial;  ///< entries placed at setup
  std::vector<Entry> base;             ///< entry values are base + counter
  std::vector<std::uint32_t> placement_order;
  /// Index of the stale-delete probe key (failover-repair only), else
  /// names.size().
  std::size_t probe = 0;
};

/// Fisher-Yates.
inline void shuffle(std::vector<std::uint32_t>& v, SplitMix64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// The probe key: Full Replication, entries 1..12, the same in every run
/// whatever the seed.
inline constexpr std::string_view kProbeKey = "full/stale-delete-probe";
inline constexpr std::uint32_t kProbeEntries = 12;
inline constexpr Entry kProbeVictim = 5;

inline Catalogue make_catalogue(const WorkloadSpec& w, std::uint64_t seed) {
  Catalogue c;
  SplitMix64 rng = stream(seed, 1);
  const std::size_t n = w.keys;
  std::vector<std::uint32_t> counts(n);
  for (std::size_t i = 0; i < n; ++i) {
    counts[i] = kMinEntries + static_cast<std::uint32_t>(i % (kMaxEntries - kMinEntries + 1));
  }
  shuffle(counts, rng);
  c.names.reserve(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t f = kFamilyCycle[i % kFamilyCycle.size()];
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(rng.next()));
    c.names.push_back(std::string(kFamilies[f].tag) + "/" + hex);
    c.family.push_back(f);
    c.initial.push_back(counts[i]);
    // 52-bit values: wide enough that a wrong entry is not a small integer
    // another key also holds.
    c.base.push_back((rng.next() & 0xffffffffULL) << 20);
  }
  c.probe = n;
  if (w.failures) {
    c.names.emplace_back(kProbeKey);
    c.family.push_back(0);
    c.initial.push_back(kProbeEntries);
    c.base.push_back(1);
  }
  c.placement_order.resize(c.names.size());
  for (std::size_t i = 0; i < c.placement_order.size(); ++i) {
    c.placement_order[i] = static_cast<std::uint32_t>(i);
  }
  shuffle(c.placement_order, rng);
  return c;
}

inline std::vector<Entry> initial_entries(const Catalogue& c, std::size_t k) {
  std::vector<Entry> out(c.initial[k]);
  for (std::uint32_t i = 0; i < c.initial[k]; ++i) out[i] = c.base[k] + i;
  return out;
}

// --- the model ---------------------------------------------------------------

/// What each key should hold, tracked from the ops the benchmark issues and
/// never read back from the service. Entry values of key k are base_k +
/// counter with counters issued in order, so "was ever added" is a range
/// test and needs no history.
class Model {
 public:
  explicit Model(const Catalogue& c) : keys_(c.names.size()) {
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      keys_[k].base = c.base[k];
      keys_[k].next = c.initial[k];
      keys_[k].live = initial_entries(c, k);
    }
  }

  std::size_t live_count(std::size_t k) const { return keys_[k].live.size(); }
  Entry live_at(std::size_t k, std::size_t i) const { return keys_[k].live[i]; }

  bool is_live(std::size_t k, Entry v) const {
    const auto& live = keys_[k].live;
    return std::find(live.begin(), live.end(), v) != live.end();
  }

  bool was_added(std::size_t k, Entry v) const {
    return v >= keys_[k].base && v - keys_[k].base < keys_[k].next;
  }

  /// A value never used for key k before.
  Entry fresh(std::size_t k) {
    return keys_[k].base + keys_[k].next++;
  }

  /// Records an add of v, which is either fresh(k) of a replica of this
  /// model or an entry added before.
  void add(std::size_t k, Entry v) {
    KeyState& s = keys_[k];
    if (v >= s.base && v - s.base >= s.next) s.next = v - s.base + 1;
    if (!is_live(k, v)) s.live.push_back(v);
  }

  void erase(std::size_t k, Entry v) {
    auto& live = keys_[k].live;
    const auto it = std::find(live.begin(), live.end(), v);
    if (it == live.end()) return;
    *it = live.back();
    live.pop_back();
  }

 private:
  struct KeyState {
    Entry base = 0;
    Entry next = 0;
    std::vector<Entry> live;
  };
  std::vector<KeyState> keys_;
};

// --- the op stream -----------------------------------------------------------

enum class OpKind : std::uint8_t {
  kLookup,
  kAdd,
  kErase,
  // Cluster events; not counted as operations.
  kFail,
  kRecover,
  kRepair,
};

struct Op {
  OpKind kind = OpKind::kLookup;
  /// One of the stale-delete probe's ops (failover-repair).
  bool probe = false;
  std::uint16_t t = 0;
  std::uint32_t key = 0;
  /// The entry for add/erase; the host for fail/recover.
  Entry value = 0;
};

inline bool is_client_op(const Op& op) {
  return op.kind == OpKind::kLookup || op.kind == OpKind::kAdd ||
         op.kind == OpKind::kErase;
}

/// Generates the stream of one episode one round at a time. A round is
/// kRoundOps client ops drawn from the mix; on failover-repair it also
/// carries two host failures with their recoveries and repair passes, and
/// the three probe ops. Every round has the same shape, so any number of
/// whole rounds keeps the same share of probe ops. Each episode draws from
/// its own stream and starts from the catalogue's initial entries.
class StreamGenerator {
 public:
  StreamGenerator(const WorkloadSpec& w, const Catalogue& c,
                  std::uint64_t seed, std::uint64_t episode)
      : w_(w),
        c_(c),
        model_(c),
        // Purpose 2 + 16e: clear of the other purposes (1, 3, 4, 5).
        rng_(stream(seed, 2 + 16 * episode)),
        zipf_(w.keys, w.zipf_theta) {}

  void next_round(std::vector<Op>& out) {
    const std::size_t r = kRoundOps;
    // Failure schedule: host a is down over [r/8, 3r/8), host b over
    // [5r/8, 7r/8). Host 0 (Round-Robin's coordinator) is never failed.
    const auto a = static_cast<Entry>(1 + (2 * round_) % (kNumServers - 1));
    const auto b =
        static_cast<Entry>(1 + (2 * round_ + 1) % (kNumServers - 1));
    for (std::size_t i = 0; i < r; ++i) {
      if (w_.failures) {
        if (i == r / 8) {
          out.push_back({.kind = OpKind::kFail, .value = a});
          push_probe(out, OpKind::kErase, kProbeVictim);
        } else if (i == 3 * r / 8) {
          out.push_back({.kind = OpKind::kRecover, .value = a});
          out.push_back({.kind = OpKind::kRepair});
          push_probe(out, OpKind::kLookup, 0);
          push_probe(out, OpKind::kAdd, kProbeVictim);
        } else if (i == 5 * r / 8) {
          out.push_back({.kind = OpKind::kFail, .value = b});
        } else if (i == 7 * r / 8) {
          out.push_back({.kind = OpKind::kRecover, .value = b});
          out.push_back({.kind = OpKind::kRepair});
        }
      }
      out.push_back(draw());
    }
    ++round_;
  }

 private:
  Op draw() {
    const auto k = static_cast<std::uint32_t>(zipf_(rng_));
    const double u = rng_.unit();
    if (u < w_.lookup_share) {
      return {.kind = OpKind::kLookup,
              .t = static_cast<std::uint16_t>(1 + rng_.below(kMaxT)),
              .key = k};
    }
    const bool want_add = u < w_.lookup_share + (1.0 - w_.lookup_share) / 2;
    const std::size_t live = model_.live_count(k);
    const bool add = want_add ? live < kMaxLive : live <= kMinLive;
    if (add) {
      const Entry v = model_.fresh(k);
      model_.add(k, v);
      return {.kind = OpKind::kAdd, .key = k, .value = v};
    }
    const Entry v = model_.live_at(k, rng_.below(live));
    model_.erase(k, v);
    return {.kind = OpKind::kErase, .key = k, .value = v};
  }

  void push_probe(std::vector<Op>& out, OpKind kind, Entry v) {
    out.push_back({.kind = kind,
                   .probe = true,
                   .t = static_cast<std::uint16_t>(kProbeEntries),
                   .key = static_cast<std::uint32_t>(c_.probe),
                   .value = v});
  }

  const WorkloadSpec& w_;
  const Catalogue& c_;
  Model model_;
  SplitMix64 rng_;
  ZipfSampler zipf_;
  std::size_t round_ = 0;
};

}  // namespace perfbench
