#pragma once
/// \file timeline.hpp
/// \brief Per-processor occupancy on the hyper-period circle.
///
/// A strict-periodic schedule repeats with period H, so processor
/// exclusivity is equivalent to: the occupation intervals of all instances
/// placed on the processor are pairwise disjoint modulo H. ProcTimeline
/// maintains that circular occupancy and answers two questions:
///   * does an instance interval fit? (used by the validator and the load
///     balancer's overlap checks)
///   * what is the earliest start >= lb at which a whole strict-periodic
///     task (n instances spaced T apart) fits? (used by the scheduler)
///
/// Feasibility of a first-instance start S is periodic in S with period T:
/// shifting S by T reproduces the same occupied positions modulo H, so the
/// earliest-fit search only ever scans [lb, lb+T). Each probe that finds
/// an instance in conflict skips the whole busy run behind the conflicting
/// piece: it walks the following pieces in circular order for as long as
/// the gap to the next one is shorter than the WCET, and moves S so the
/// instance lands at the run's end. Every skipped start would overlap a
/// piece of the run or sit in a gap too short for the instance, so the
/// search still returns the minimum feasible start. An optional inclusive
/// upper bound (`latest`) stops the search early, which lets a caller
/// scanning several processors prune at the best start found so far.
///
/// The balancer churns add/remove heavily (it re-attaches the instances of
/// every block it relocates), so the storage is organised for cheap
/// mutation (DESIGN.md F16): [0, H) is divided into at most kMaxBuckets
/// coarse time buckets of power-of-two width, and each bucket holds the
/// (sorted) pieces starting inside it. An add or remove then shifts only
/// one bucket's few pieces instead of memmoving a processor-wide sorted
/// array, and a conflict probe touches one bucket plus the global
/// predecessor. Pieces are pairwise disjoint, so only the immediate
/// predecessor of a query point can reach into it; a bitmap of non-empty
/// buckets finds that predecessor (and skips empty regions of sparse
/// timelines) with a couple of word scans. Removal stays indexed: an
/// owner -> piece-start table (open addressing, one flat backing array)
/// locates an owner's pieces in O(1) without a predicate scan.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "lbmem/model/types.hpp"
#include "lbmem/util/check.hpp"
#include "lbmem/util/math.hpp"

/// When 1, add_unchecked() still performs the full fits() verification.
/// Defaults to on for debug/sanitizer builds and off for optimized builds;
/// override with -DLBMEM_TIMELINE_VERIFY=0/1.
#ifndef LBMEM_TIMELINE_VERIFY
#ifdef NDEBUG
#define LBMEM_TIMELINE_VERIFY 0
#else
#define LBMEM_TIMELINE_VERIFY 1
#endif
#endif

namespace lbmem {

/// Circular occupancy of one processor over the hyper-period [0, H).
class ProcTimeline {
 public:
  /// \param hyperperiod circle circumference H (> 0)
  explicit ProcTimeline(Time hyperperiod);

  /// Would interval [start, start+len) (repeated mod H) be free?
  bool fits(Time start, Time len) const;

  /// Occupy [start, start+len) for \p owner; throws PreconditionError if it
  /// does not fit. An owner may hold at most two pieces (one wrapping
  /// interval, or two separate adds).
  void add(Time start, Time len, TaskInstance owner);

  /// add() without the redundant conflict query, for callers that have
  /// already proven the interval free (a successful fits()/earliest_fit()
  /// probe, or insertion from a validated schedule). The contract is the
  /// caller's to uphold: adding an overlapping interval through this path
  /// corrupts the timeline in optimized builds. Under LBMEM_TIMELINE_VERIFY
  /// (debug/sanitizer builds) the full fits() check still runs and throws.
  void add_unchecked(Time start, Time len, TaskInstance owner);

  /// Release all intervals owned by \p owner (no-op if absent).
  void remove(TaskInstance owner);

  /// Task removal with id compaction (DESIGN.md F13): release every piece
  /// of task \p victim and renumber the owners of later tasks down by one
  /// ((t, k) becomes (t-1, k) for t > victim). The remaining pieces stay
  /// where they are, in the same order; the owner index is rebuilt once at
  /// its final size. One pass over the pieces, with no bucket search.
  void drop_task(TaskId victim);

  /// The owner of some interval overlapping [start, start+len), if any.
  std::optional<TaskInstance> conflicting_owner(Time start, Time len) const;

  /// Like conflicting_owner, but skips pieces whose owner satisfies
  /// \p ignore (a callable TaskInstance -> bool). Lets the balancer test a
  /// tentative placement against a timeline that still contains the very
  /// instances the move would relocate, without detaching them first.
  template <typename Ignore>
  std::optional<TaskInstance> conflicting_owner_if(Time start, Time len,
                                                   Ignore&& ignore) const {
    LBMEM_REQUIRE(len > 0 && len <= h_, "interval length must be in (0, H]");
    if (const Piece* p = find_conflict_circular(mod_floor(start, h_), len,
                                                ignore)) {
      return p->owner;
    }
    return std::nullopt;
  }

  /// earliest_fit's default \p latest: no upper bound.
  static constexpr Time kNoLatest = std::numeric_limits<Time>::max();

  /// Earliest S in [lb, lb+period) such that every instance interval
  /// [S + k*period, +wcet), k in [0, n), fits (n*period <= H).
  /// std::nullopt if none exists, or if the earliest such S is later than
  /// the inclusive bound \p latest (always when latest < lb). A bounded
  /// call therefore returns the unbounded result when that result is
  /// <= latest, and stops searching as soon as it passes latest.
  std::optional<Time> earliest_fit(Time lb, Time period, Time wcet,
                                   InstanceIdx n,
                                   Time latest = kNoLatest) const;

  /// Total occupied time within one hyper-period.
  Time busy_time() const;

  /// Hyper-period this timeline was built for.
  Time hyperperiod() const { return h_; }

  /// Number of stored (possibly split) interval pieces. Always equals the
  /// number of starts recorded in the owner index.
  std::size_t piece_count() const { return piece_count_; }

  /// Exhaustive structural audit for tests: every piece inside [0, H) and
  /// in its start's bucket, buckets sorted and globally disjoint, the
  /// non-empty bitmap and the piece counter consistent, and the owner
  /// index recording exactly the stored pieces.
  bool check_index_integrity() const;

 private:
  struct Piece {
    Time start;  // in [0, H)
    Time len;    // start + len <= H (wrapping intervals are split)
    TaskInstance owner;
  };
  struct OwnerPieces {
    Time first = -1;
    Time second = -1;  // -1 = unused slot
  };

  /// Linear-probing owner -> OwnerPieces table with tombstone deletion and
  /// amortized rehashing. One backing vector: no allocation per insert.
  class OwnerIndex {
   public:
    const OwnerPieces* find(TaskInstance key) const;
    /// Slot for \p key, inserting an empty record if absent.
    OwnerPieces& insert(TaskInstance key);
    void erase(TaskInstance key);
    /// Empty the table, sized so that \p owners inserts never grow it.
    void reset(std::size_t owners);
    /// Pieces recorded over all live owners (for the integrity audit).
    std::size_t recorded_pieces() const;

   private:
    struct Entry {
      TaskInstance key{-1, -1};  // task -1: empty; task -2: tombstone
      OwnerPieces val;
    };
    static bool empty_slot(const Entry& e) { return e.key.task == -1; }
    static bool tombstone(const Entry& e) { return e.key.task == -2; }
    std::size_t probe(TaskInstance key) const {
      // std::hash on integers is typically the identity; with a
      // power-of-two mask that would key every owner on its low (instance
      // index) bits and collapse the table into one cluster. Fibonacci
      // mixing spreads the packed (task, k) pair across the word first.
      const auto packed =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.task))
           << 32) |
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.k));
      const std::uint64_t mixed = packed * 0x9e3779b97f4a7c15ULL;
      return static_cast<std::size_t>(mixed >> 32) & (table_.size() - 1);
    }
    void grow();

    std::vector<Entry> table_;  // power-of-two size
    std::size_t used_ = 0;      // live + tombstones
    std::size_t live_ = 0;
  };

  /// Never-ignore predicate: the default for unfiltered queries.
  struct NoIgnore {
    bool operator()(TaskInstance) const { return false; }
  };

  /// Bucket-count ceiling: wide enough to keep per-bucket populations
  /// small for realistic timelines, small enough that the bitmap stays in
  /// four words and per-timeline overhead stays a few KB.
  static constexpr Time kMaxBuckets = 256;

  std::size_t bucket_of(Time t) const {
    return static_cast<std::size_t>(t >> bucket_shift_);
  }

  /// Index of the last non-empty bucket <= \p b, or npos. One masked word
  /// scan per bitmap word, most-significant bit first.
  std::size_t prev_nonempty(std::size_t b) const {
    std::size_t word = b >> 6;
    std::uint64_t bits =
        nonempty_[word] & (~std::uint64_t{0} >> (63 - (b & 63)));
    while (true) {
      if (bits != 0) {
        return (word << 6) + 63 -
               static_cast<std::size_t>(__builtin_clzll(bits));
      }
      if (word == 0) return npos;
      bits = nonempty_[--word];
    }
  }

  /// Index of the first non-empty bucket >= \p b, or npos.
  std::size_t next_nonempty(std::size_t b) const {
    if (b >= buckets_.size()) return npos;
    std::size_t word = b >> 6;
    std::uint64_t bits = nonempty_[word] & (~std::uint64_t{0} << (b & 63));
    while (true) {
      if (bits != 0) {
        return (word << 6) +
               static_cast<std::size_t>(__builtin_ctzll(bits));
      }
      if (++word >= kWords) return npos;
      bits = nonempty_[word];
    }
  }

  /// The piece preceding position \p a (largest start < a), or nullptr.
  /// Pieces are disjoint, so it is the only piece that can reach past a.
  const Piece* predecessor(Time a) const {
    const std::size_t ba = bucket_of(a);
    const std::vector<Piece>& v = buckets_[ba];
    // Last piece in a's own bucket with start < a …
    auto it = std::lower_bound(
        v.begin(), v.end(), a,
        [](const Piece& p, Time value) { return p.start < value; });
    if (it != v.begin()) return &*(it - 1);
    if (ba == 0) return nullptr;
    // … else the last piece of the previous non-empty bucket.
    const std::size_t bp = prev_nonempty(ba - 1);
    if (bp == npos) return nullptr;
    return &buckets_[bp].back();
  }

  /// First piece intersecting the non-wrapping range [a, b) whose owner is
  /// not skipped by \p ignore — the single overlap scan every query shares.
  /// Priority order matches the historic flat-array scan: the predecessor
  /// reaching past a first, then pieces starting in [a, b) by start.
  template <typename Ignore = NoIgnore>
  const Piece* find_conflict(Time a, Time b, Ignore&& ignore = {}) const {
    if (a >= b || piece_count_ == 0) return nullptr;
    if (const Piece* prev = predecessor(a)) {
      if (prev->start + prev->len > a && !ignore(prev->owner)) return prev;
    }
    const std::size_t last = bucket_of(b - 1);
    for (std::size_t bi = next_nonempty(bucket_of(a));
         bi != npos && bi <= last; bi = next_nonempty(bi + 1)) {
      const std::vector<Piece>& v = buckets_[bi];
      std::size_t i = 0;
      if (bi == bucket_of(a)) {
        i = static_cast<std::size_t>(
            std::lower_bound(v.begin(), v.end(), a,
                             [](const Piece& p, Time value) {
                               return p.start < value;
                             }) -
            v.begin());
      }
      for (; i < v.size() && v[i].start < b; ++i) {
        if (!ignore(v[i].owner)) return &v[i];
      }
    }
    return nullptr;
  }

  /// Conflict lookup for [pos, pos+len) with pos in [0, H), splitting the
  /// wrap-around at H — the circular-interval primitive behind
  /// fits/conflicting_owner/conflicting_owner_if/earliest_fit.
  template <typename Ignore = NoIgnore>
  const Piece* find_conflict_circular(Time pos, Time len,
                                      Ignore&& ignore = {}) const {
    if (pos + len <= h_) return find_conflict(pos, pos + len, ignore);
    if (const Piece* p = find_conflict(pos, h_, ignore)) return p;
    return find_conflict(0, pos + len - h_, ignore);
  }

  /// Distance from \p pos to the end of the busy run that begins with
  /// \p conflict (a piece overlapping an instance of length \p wcet placed
  /// at \p pos). The run absorbs each following piece, in circular order,
  /// whose gap to the run is shorter than \p wcet. Every start in
  /// [pos, pos + result) overlaps the run or sits in a gap too short for
  /// the instance. The walk stops once the result reaches \p cap; below
  /// it, a start at pos + result fits.
  Time skip_run(const Piece* conflict, Time pos, Time wcet, Time cap) const;

  void add_impl(Time start, Time len, TaskInstance owner);
  void insert_piece(Piece piece);
  void erase_piece_at(Time start, TaskInstance owner);

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kWords =
      static_cast<std::size_t>(kMaxBuckets) / 64;

  Time h_;
  int bucket_shift_ = 0;  // bucket width 2^bucket_shift_
  // Pieces starting inside each bucket, sorted by start; globally pairwise
  // disjoint across buckets.
  std::vector<std::vector<Piece>> buckets_;
  std::uint64_t nonempty_[kWords] = {};  // bitmap of non-empty buckets
  std::size_t piece_count_ = 0;
  // Records the start(s) of each owner's pieces for indexed removal.
  OwnerIndex owner_index_;
};

}  // namespace lbmem
