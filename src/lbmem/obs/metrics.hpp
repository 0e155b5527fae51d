#pragma once
/// \file metrics.hpp
/// \brief The metrics registry: named counters, high-watermark gauges and
/// log-bucketed latency histograms, recorded through per-thread shards so
/// the parallel scenario sweep stays contention-free and
/// merge-deterministic.
///
/// Determinism contract (DESIGN.md F25): every metric carries a class.
///  * `Deterministic` metrics depend only on the inputs (workload, seeds,
///    options) — identical for every thread count and execution schedule.
///    They are emitted under the top-level "metrics" key.
///  * `Timing` metrics depend on the wall clock. They are emitted under
///    the top-level "timing" key, mirroring PR 5's `--timing=off`
///    discipline: stripping that one subtree leaves a byte-deterministic
///    artifact.
///
/// Shards: each recording thread owns a private shard (counters add,
/// gauges max, histograms bucket-count add); snapshot() merges them with
/// associative + commutative operations, so the merged result is
/// independent of the thread count and of which thread recorded what.
/// Recording is wait-free after the first touch per thread (a thread_local
/// lookup plus a plain store into thread-private memory). snapshot() and
/// reset() must not race with recording — callers quiesce first (the pool
/// paths join before reporting, which is the natural order anyway).

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lbmem::obs {

/// What a metric is.
enum class MetricKind { Counter, Gauge, Histogram };

/// Determinism class (see the file comment).
enum class MetricClass { Deterministic, Timing };

const char* to_string(MetricKind kind);

/// Log-bucketed value histogram (HDR-style) with an exact nearest-rank
/// percentile contract at bucket resolution:
///  * values 0..63 land in width-1 buckets, so percentiles over them are
///    *exact* nearest-rank order statistics;
///  * larger values share power-of-two ranges split into 32 sub-buckets,
///    so a reported percentile is the upper edge of the bucket holding the
///    nearest-rank sample — an overestimate by at most a factor 1/32
///    (3.125%) of the value;
///  * negative inputs clamp to 0 (latencies and sizes are non-negative by
///    construction; a clamped record still counts).
/// merge() adds bucket counts, so it is associative and commutative —
/// cross-shard and cross-thread merges produce identical histograms in any
/// order (tested by ObsMetrics.MergeIsAssociative).
class LatencyHistogram {
 public:
  /// Record one value.
  void record(std::int64_t value);

  /// Fold \p other into this histogram (bucket-count addition).
  void merge(const LatencyHistogram& other);

  std::int64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  /// Smallest / largest recorded value, exact (0 when empty).
  std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  std::int64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Nearest-rank percentile: the value at rank ceil(pct/100 * count),
  /// reported as the upper edge of its bucket (exact below 64; see the
  /// class comment). Returns 0 on an empty histogram; pct is clamped to
  /// (0, 100].
  std::int64_t percentile(double pct) const;

  /// Non-empty buckets in ascending value order, as (upper edge, count)
  /// pairs — the run-deterministic serialization of the distribution.
  std::vector<std::pair<std::int64_t, std::int64_t>> buckets() const;

  bool operator==(const LatencyHistogram& other) const {
    return count_ == other.count_ && sum_ == other.sum_ &&
           min_ == other.min_ && max_ == other.max_ &&
           counts_ == other.counts_;
  }

 private:
  static std::size_t bucket_index(std::int64_t value);
  static std::int64_t bucket_upper_edge(std::size_t index);

  std::vector<std::int64_t> counts_;  ///< grown lazily to the top bucket
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// Handle to a registered metric (index into the registry's slot tables).
struct MetricId {
  std::uint32_t slot = UINT32_MAX;
  MetricKind kind = MetricKind::Counter;
  bool valid() const { return slot != UINT32_MAX; }
};

/// One merged metric in a Snapshot.
struct SnapshotEntry {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  MetricClass cls = MetricClass::Deterministic;
  std::int64_t value = 0;       ///< counters: sum; gauges: max over shards
  LatencyHistogram histogram;   ///< histograms only
};

/// A merged, name-sorted view of a registry at one quiesced point.
struct Snapshot {
  std::vector<SnapshotEntry> entries;
  /// Entry by name, or nullptr. Linear scan — snapshots are small.
  const SnapshotEntry* find(const std::string& name) const;
};

/// The registry. Registration is by name and idempotent: re-registering a
/// name returns the existing id (the kind and class must match — a
/// mismatch throws), so layers that are constructed per call (a
/// LoadBalancer per event, say) can register their ids unconditionally.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  MetricId counter(const std::string& name,
                   MetricClass cls = MetricClass::Deterministic);
  MetricId gauge(const std::string& name,
                 MetricClass cls = MetricClass::Deterministic);
  MetricId histogram(const std::string& name,
                     MetricClass cls = MetricClass::Deterministic);

  /// Add \p delta to a counter (thread-safe, shard-local).
  void add(MetricId id, std::int64_t delta = 1);
  /// Raise a high-watermark gauge to at least \p value (max semantics:
  /// the only scalar merge that is order-free across shards).
  void raise(MetricId id, std::int64_t value);
  /// Record \p value into a histogram.
  void record(MetricId id, std::int64_t value);

  /// Merge every shard into a name-sorted snapshot. Must not race with
  /// recording (quiesce first).
  Snapshot snapshot() const;

  /// Number of registered metrics.
  std::size_t size() const;

 private:
  struct Shard;
  struct Desc {
    std::string name;
    MetricKind kind;
    MetricClass cls;
    std::uint32_t slot;  ///< scalar or histogram slot, by kind
  };

  MetricId register_metric(const std::string& name, MetricKind kind,
                           MetricClass cls);
  Shard& local_shard();

  mutable std::mutex mutex_;
  std::vector<Desc> descs_;
  std::uint32_t scalar_slots_ = 0;
  std::uint32_t histogram_slots_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t serial_;  ///< distinguishes registries in the TLS cache
};

}  // namespace lbmem::obs
