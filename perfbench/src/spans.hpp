// Span recorder for the traced run. The benchmark times each layer from
// outside, by calling the layer's public entry point itself and recording
// the call as a span; spans stay in memory and are written out once, when
// the run ends, so writing them costs nothing inside a timed interval.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Layers the traced run times, in the order the span file names them.
enum class SpanName : std::uint8_t {
  kServiceLookup,   ///< PartialLookupService::partial_lookup (the op)
  kServiceUpdate,   ///< PartialLookupService::add/erase (the op)
  kServiceResolve,  ///< PartialLookupService::key_id
  kStrategyLookup,  ///< Strategy::partial_lookup
  kStrategyUpdate,  ///< Strategy::add/erase
  kStoreSample,     ///< EntryStore::sample_into
  kHostRpc,         ///< HostServer::on_rpc(LookupRequest)
  kNetworkCall,     ///< Network::client_call(LookupRequest)
  kClusterLeave,    ///< PartialLookupService::remove_server
  kClusterJoin,     ///< PartialLookupService::add_server
  kRepairPass,      ///< RepairProcess::scan_once
  kSnapshotSave,    ///< wire::save_service
  kSnapshotLoad,    ///< wire::load_service
  kRuntimeSubmit,   ///< ShardedRuntime::lookup/add/erase
  kRuntimeDrain,    ///< ShardedRuntime::drain
  kCount,
};

inline constexpr std::string_view kSpanNames[] = {
    "service.partial_lookup", "service.update",
    "core.service.resolve",   "core.strategy.lookup",
    "core.strategy.update",   "core.entry_store.sample",
    "net.host.rpc",           "net.network.call",
    "net.cluster.leave",      "net.cluster.join",
    "net.repair.pass",        "wire.snapshot.save",
    "wire.snapshot.load",     "runtime.submit",
    "runtime.drain",
};
static_assert(std::size(kSpanNames) == static_cast<std::size_t>(SpanName::kCount));

/// A span: which layer, when, and which op of the stream it belongs to.
/// `parent` is the id of the span of the op it shadows (0 = none); ids
/// start at 1. `op` is the op's index in the stream, or -1 for phase-level
/// work (migration, repair, snapshots, the final drain).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t op = -1;
  SpanName name = SpanName::kServiceLookup;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  std::uint64_t record(SpanName name, Clock::time_point start,
                       Clock::time_point end, std::int64_t op = -1,
                       std::uint64_t parent = 0) {
    spans_.push_back({.id = spans_.size() + 1,
                      .parent = parent,
                      .op = op,
                      .name = name,
                      .start_ns = ns_between(epoch_, start),
                      .end_ns = ns_between(epoch_, end)});
    return spans_.size();
  }

  /// Median duration of every span called `name`, in ns (0 if none).
  double median_ns(SpanName name) const {
    std::vector<std::int64_t> d;
    for (const Span& s : spans_) {
      if (s.name == name) d.push_back(s.end_ns - s.start_ns);
    }
    if (d.empty()) return 0.0;
    const auto mid = d.begin() + static_cast<std::ptrdiff_t>(d.size() / 2);
    std::nth_element(d.begin(), mid, d.end());
    return static_cast<double>(*mid);
  }

  /// Writes one tab-separated line per span; returns false on an I/O
  /// error.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\top\tname\tstart_ns\tend_ns\n");
    for (const Span& s : spans_) {
      const std::string_view n = kSpanNames[static_cast<std::size_t>(s.name)];
      std::fprintf(f, "%llu\t%llu\t%lld\t%.*s\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.op), static_cast<int>(n.size()),
                   n.data(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

  std::size_t size() const noexcept { return spans_.size(); }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
