/// Churn tests for ProcTimeline's bucketed piece storage (DESIGN.md F16):
/// random add/remove/query sequences are replayed against a naive
/// reference implementation (a flat list of intervals checked by brute
/// force), and the bucket index is audited with check_index_integrity()
/// after every mutation. Hyper-periods are chosen to exercise one-bucket
/// timelines, the kMaxBuckets ceiling, and sparse giant circles where most
/// buckets stay empty. Crowded layouts check earliest_fit's busy-run skip
/// and its `latest` bound against a start-by-start search.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lbmem/sched/timeline.hpp"
#include "lbmem/util/math.hpp"
#include "lbmem/util/rng.hpp"

namespace lbmem {
namespace {

/// Brute-force occupancy: every query scans every interval modulo H.
class NaiveTimeline {
 public:
  explicit NaiveTimeline(Time h) : h_(h) {}

  bool fits(Time start, Time len) const {
    const Time pos = mod_floor(start, h_);
    const auto overlaps = [&](Time a, Time b) {  // non-wrapping [a, b)
      return std::any_of(entries_.begin(), entries_.end(),
                         [&](const Entry& e) {
                           return e.pos < b && a < e.pos + e.len;
                         });
    };
    if (pos + len <= h_) return !overlaps(pos, pos + len);
    return !overlaps(pos, h_) && !overlaps(0, pos + len - h_);
  }

  std::optional<TaskInstance> conflicting_owner(Time start, Time len) const {
    const Time pos = mod_floor(start, h_);
    // Match ProcTimeline's priority: the predecessor piece reaching into
    // the query first, then pieces by ascending start — realised here by
    // scanning pieces in sorted order per query segment.
    std::optional<TaskInstance> found;
    const std::vector<Entry> by_pos = sorted();
    auto scan = [&](Time a, Time b) {  // non-wrapping [a, b)
      if (found || a >= b) return;
      for (const Entry& e : by_pos) {
        if (e.pos < a && e.pos + e.len > a) {
          found = e.owner;
          return;
        }
      }
      for (const Entry& e : by_pos) {
        if (e.pos >= a && e.pos < b) {
          found = e.owner;
          return;
        }
      }
    };
    if (pos + len <= h_) {
      scan(pos, pos + len);
    } else {
      scan(pos, h_);
      scan(0, pos + len - h_);
    }
    return found;
  }

  void add(Time start, Time len, TaskInstance owner) {
    const Time pos = mod_floor(start, h_);
    if (pos + len <= h_) {
      entries_.push_back(Entry{pos, len, owner});
    } else {
      entries_.push_back(Entry{pos, h_ - pos, owner});
      entries_.push_back(Entry{0, pos + len - h_, owner});
    }
  }

  void remove(TaskInstance owner) {
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [&](const Entry& e) {
                                    return e.owner == owner;
                                  }),
                   entries_.end());
  }

  std::optional<Time> earliest_fit(Time lb, Time period, Time wcet,
                                   InstanceIdx n) const {
    for (Time s = lb; s < lb + period; ++s) {
      bool ok = true;
      for (InstanceIdx k = 0; k < n && ok; ++k) {
        ok = fits(s + static_cast<Time>(k) * period, wcet);
      }
      if (ok) return s;
    }
    return std::nullopt;
  }

  Time busy_time() const {
    Time total = 0;
    for (const Entry& e : entries_) total += e.len;
    return total;
  }

  std::size_t piece_count() const { return entries_.size(); }

 private:
  struct Entry {
    Time pos;  // in [0, H)
    Time len;
    TaskInstance owner;
  };
  std::vector<Entry> sorted() const {
    std::vector<Entry> out = entries_;
    std::sort(out.begin(), out.end(),
              [](const Entry& a, const Entry& b) { return a.pos < b.pos; });
    return out;
  }

  Time h_;
  std::vector<Entry> entries_;
};

/// earliest_fit with and without a `latest` bound, against the oracle.
/// The bounded result must equal the unbounded one when that is <= latest
/// and be std::nullopt otherwise.
void expect_fit(const ProcTimeline& timeline, const NaiveTimeline& naive,
                Time lb, Time period, Time wcet, InstanceIdx n, Rng& rng) {
  SCOPED_TRACE("lb=" + std::to_string(lb) + " T=" + std::to_string(period) +
               " E=" + std::to_string(wcet) + " n=" + std::to_string(n));
  const auto expected = naive.earliest_fit(lb, period, wcet, n);
  ASSERT_EQ(timeline.earliest_fit(lb, period, wcet, n), expected);
  std::vector<Time> bounds = {lb - 1 - rng.uniform(0, period), lb - 1, lb,
                              lb + rng.uniform(0, period - 1),
                              lb + period - 1, ProcTimeline::kNoLatest};
  if (expected) {
    bounds.insert(bounds.end(), {*expected - 1, *expected, *expected + 1});
  }
  for (const Time latest : bounds) {
    ASSERT_EQ(timeline.earliest_fit(lb, period, wcet, n, latest),
              expected && *expected <= latest ? expected : std::nullopt)
        << "latest=" << latest;
  }
}

void churn(Time h, std::uint64_t seed, int steps) {
  SCOPED_TRACE("H=" + std::to_string(h) + " seed=" + std::to_string(seed));
  ProcTimeline timeline(h);
  NaiveTimeline naive(h);
  Rng rng(seed);
  std::vector<TaskInstance> live;
  TaskId next_task = 0;

  for (int step = 0; step < steps; ++step) {
    const std::int64_t action = rng.uniform(0, 9);
    if (action < 4 || live.empty()) {
      // Add a random interval if it fits (both sides must agree it does).
      const Time len = rng.uniform(1, std::min<Time>(h, 7));
      const Time start = rng.uniform(0, 2 * h - 1);  // exercises mod_floor
      const TaskInstance owner{next_task, 0};
      ASSERT_EQ(timeline.fits(start, len), naive.fits(start, len));
      if (timeline.fits(start, len)) {
        // Alternate the checked and unchecked insertion paths.
        if (step % 2 == 0) {
          timeline.add(start, len, owner);
        } else {
          timeline.add_unchecked(start, len, owner);
        }
        naive.add(start, len, owner);
        live.push_back(owner);
        ++next_task;
      }
    } else if (action < 7) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(live.size()) - 1));
      timeline.remove(live[idx]);
      naive.remove(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (action < 9) {
      const Time len = rng.uniform(1, std::min<Time>(h, 9));
      const Time start = rng.uniform(0, h - 1);
      ASSERT_EQ(timeline.conflicting_owner(start, len),
                naive.conflicting_owner(start, len));
    } else if (h >= 4 && h <= 4096) {
      // Whole strict-periodic task probe (n instances spaced T apart).
      // Skipped on giant circles: the reference scans start-by-start.
      const Time period = (h % 4 == 0) ? h / 4 : ((h % 2 == 0) ? h / 2 : h);
      const auto n = static_cast<InstanceIdx>(h / period);
      const Time wcet = rng.uniform(1, std::min<Time>(period, 5));
      const Time lb = rng.uniform(0, period - 1);
      expect_fit(timeline, naive, lb, period, wcet, n, rng);
    }
    ASSERT_TRUE(timeline.check_index_integrity());
    ASSERT_EQ(timeline.piece_count(), naive.piece_count());
    ASSERT_EQ(timeline.busy_time(), naive.busy_time());
  }
}

TEST(ProcTimelineBuckets, SingleBucketCircle) {
  // H small enough that every piece lands in bucket width 1.
  churn(/*h=*/12, /*seed=*/1, /*steps=*/400);
  churn(/*h=*/7, /*seed=*/2, /*steps=*/300);
}

TEST(ProcTimelineBuckets, AtTheBucketCeiling) {
  // H == kMaxBuckets and just past it: width-1 and width-2 buckets.
  churn(/*h=*/256, /*seed=*/3, /*steps=*/600);
  churn(/*h=*/257, /*seed=*/4, /*steps=*/600);
}

TEST(ProcTimelineBuckets, SparseGiantCircle) {
  // Most buckets empty: the bitmap walks dominate the queries.
  churn(/*h=*/1'000'000, /*seed=*/5, /*steps=*/250);
}

TEST(ProcTimelineBuckets, DenseSmallCircle) {
  // High occupancy forces long probe chains and frequent rejects.
  churn(/*h=*/48, /*seed=*/6, /*steps=*/800);
}

/// Crowded circle: busy runs of up to 40 pieces whose inner gaps are 0 or
/// exactly gap_wcet - 1 (too short for an instance of gap_wcet), separated
/// by gaps of exactly gap_wcet or a little more. The layout starts at a
/// random offset, so runs and single intervals wrap past H.
void fill_crowded(ProcTimeline& timeline, NaiveTimeline& naive, Time h,
                  Time gap_wcet, Rng& rng) {
  const Time origin = rng.uniform(0, h - 1);
  Time x = origin;
  TaskId owner = 0;
  while (true) {
    const std::int64_t run = rng.uniform(1, 40);
    for (std::int64_t i = 0; i < run; ++i) {
      const Time len = rng.uniform(1, 6);
      if (x + len > origin + h) return;  // would reach the first piece
      timeline.add(x, len, TaskInstance{owner, 0});
      naive.add(x, len, TaskInstance{owner, 0});
      ++owner;
      x += len + (i + 1 == run                ? 0
                  : rng.uniform(0, 1) == 0 ? 0
                                           : gap_wcet - 1);
    }
    x += rng.uniform(0, 2) == 0 ? gap_wcet + rng.uniform(1, 3) : gap_wcet;
  }
}

void crowded(Time h, std::uint64_t seed, int layouts) {
  SCOPED_TRACE("H=" + std::to_string(h) + " seed=" + std::to_string(seed));
  Rng rng(seed);
  for (int layout = 0; layout < layouts; ++layout) {
    ProcTimeline timeline(h);
    NaiveTimeline naive(h);
    const Time gap_wcet = rng.uniform(2, 6);
    fill_crowded(timeline, naive, h, gap_wcet, rng);
    ASSERT_TRUE(timeline.check_index_integrity());
    ASSERT_EQ(timeline.piece_count(), naive.piece_count());
    // n == 1 with period == H, n == 1 with a shorter period, and several
    // instances spaced H/n apart; WCETs straddle the exact-gap boundary.
    const std::vector<std::pair<Time, InstanceIdx>> shapes = {
        {h, 1}, {h / 2, 1}, {h / 2, 2}, {h / 4, 4}};
    for (const auto& [period, n] : shapes) {
      for (const Time wcet : {gap_wcet - 1, gap_wcet, gap_wcet + 1}) {
        const Time lb = rng.uniform(0, 2 * h - 1);
        expect_fit(timeline, naive, lb, period, wcet, n, rng);
      }
    }
  }
}

TEST(ProcTimelineBuckets, CrowdedRunsSpanManyBuckets) {
  // Bucket width 4 and 16: a 40-piece run crosses dozens of buckets.
  crowded(/*h=*/1024, /*seed=*/7, /*layouts=*/12);
  crowded(/*h=*/4096, /*seed=*/8, /*layouts=*/4);
}

TEST(ProcTimelineBuckets, CrowdedSmallCircles) {
  // Width-1 buckets; runs often cover most of the circle.
  crowded(/*h=*/96, /*seed=*/9, /*layouts=*/40);
  crowded(/*h=*/256, /*seed=*/10, /*layouts=*/20);
}

TEST(ProcTimelineBuckets, GapOfExactlyWcet) {
  // Pieces of length 3 at 0, 5, 10, ...: every gap is 2, except one of 3
  // left after the piece at 40 (the next one starts at 46).
  const Time h = 64;
  ProcTimeline tl(h);
  NaiveTimeline naive(h);
  TaskId owner = 0;
  for (Time x = 0; x + 3 <= h; x += (x == 40 ? 6 : 5)) {
    tl.add(x, 3, TaskInstance{owner, 0});
    naive.add(x, 3, TaskInstance{owner++, 0});
  }
  EXPECT_EQ(tl.earliest_fit(0, h, 3, 1), 43);   // only the gap of 3 fits
  EXPECT_EQ(tl.earliest_fit(0, h, 2, 1), 3);    // gaps of 2 fit wcet 2
  EXPECT_EQ(tl.earliest_fit(44, h, 3, 1), 43 + h);
  EXPECT_EQ(tl.earliest_fit(0, h, 4, 1), std::nullopt);
  EXPECT_EQ(tl.earliest_fit(0, h, 3, 1, 42), std::nullopt);
  EXPECT_EQ(tl.earliest_fit(0, h, 3, 1, 43), 43);
  Rng rng(11);
  for (Time lb = 0; lb < h; ++lb) {
    for (const Time wcet : {1, 2, 3, 4}) {
      expect_fit(tl, naive, lb, h, wcet, 1, rng);
      expect_fit(tl, naive, lb, h / 2, wcet, 2, rng);
    }
  }
}

TEST(ProcTimelineBuckets, RunWrapsPastH) {
  // One run with gaps of 1 from 90 across H to 6, the interval at 98
  // itself wrapping: a wcet-2 instance probed inside it must land at 6.
  const Time h = 100;
  ProcTimeline tl(h);
  NaiveTimeline naive(h);
  const std::vector<std::pair<Time, Time>> pieces = {
      {90, 3}, {94, 3}, {98, 4}, {3, 3}};
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const TaskInstance owner{static_cast<TaskId>(i), 0};
    tl.add(pieces[i].first, pieces[i].second, owner);
    naive.add(pieces[i].first, pieces[i].second, owner);
  }
  EXPECT_EQ(tl.earliest_fit(91, h, 2, 1), 106);
  EXPECT_EQ(tl.earliest_fit(91, h, 2, 1, 105), std::nullopt);
  EXPECT_EQ(tl.earliest_fit(91, h, 2, 1, 106), 106);
  Rng rng(12);
  for (Time lb = 0; lb < 2 * h; ++lb) {
    for (const Time wcet : {1, 2, 3}) {
      expect_fit(tl, naive, lb, h, wcet, 1, rng);
      expect_fit(tl, naive, lb, h / 2, wcet, 2, rng);
    }
  }
}

TEST(ProcTimelineBuckets, NoRoomAnywhere) {
  // A run that closes on itself around the whole circle, and a single
  // piece covering all of it: the run walk must stop at the search limit.
  const Time h = 40;
  ProcTimeline tl(h);
  NaiveTimeline naive(h);
  for (Time x = 0; x < h; x += 4) {
    tl.add(x, 3, TaskInstance{static_cast<TaskId>(x), 0});
    naive.add(x, 3, TaskInstance{static_cast<TaskId>(x), 0});
  }
  Rng rng(13);
  for (Time lb = 0; lb < h; ++lb) {
    EXPECT_EQ(tl.earliest_fit(lb, h, 2, 1), std::nullopt);
    expect_fit(tl, naive, lb, h, 1, 1, rng);
    expect_fit(tl, naive, lb, h / 4, 2, 4, rng);
  }
  ProcTimeline full(h);
  full.add(7, h, TaskInstance{0, 0});
  EXPECT_EQ(full.earliest_fit(0, h, 1, 1), std::nullopt);
  EXPECT_EQ(full.earliest_fit(13, h / 2, 1, 2), std::nullopt);
}

TEST(ProcTimelineBuckets, LatestBeforeLowerBound) {
  // latest < lb: nothing to search, even on an empty circle.
  const ProcTimeline empty(32);
  EXPECT_EQ(empty.earliest_fit(5, 32, 1, 1), 5);
  EXPECT_EQ(empty.earliest_fit(5, 32, 1, 1, 5), 5);
  EXPECT_EQ(empty.earliest_fit(5, 32, 1, 1, 4), std::nullopt);
  EXPECT_EQ(empty.earliest_fit(5, 8, 2, 4, -100), std::nullopt);
}

TEST(ProcTimelineBuckets, WrapHeavy) {
  ProcTimeline tl(100);
  NaiveTimeline naive(100);
  // Wrapping owners occupy two pieces (buckets at both ends of the circle).
  tl.add(95, 10, TaskInstance{0, 0});
  naive.add(95, 10, TaskInstance{0, 0});
  ASSERT_TRUE(tl.check_index_integrity());
  EXPECT_EQ(tl.piece_count(), 2u);
  for (Time t = 0; t < 100; ++t) {
    ASSERT_EQ(tl.fits(t, 3), naive.fits(t, 3)) << "t=" << t;
  }
  tl.remove(TaskInstance{0, 0});
  naive.remove(TaskInstance{0, 0});
  ASSERT_TRUE(tl.check_index_integrity());
  EXPECT_EQ(tl.piece_count(), 0u);
  EXPECT_TRUE(tl.fits(0, 100));
}

}  // namespace
}  // namespace lbmem
