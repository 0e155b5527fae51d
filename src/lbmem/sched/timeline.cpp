#include "lbmem/sched/timeline.hpp"

#include <algorithm>

#include "lbmem/util/check.hpp"
#include "lbmem/util/math.hpp"

namespace lbmem {

ProcTimeline::ProcTimeline(Time hyperperiod) : h_(hyperperiod) {
  LBMEM_REQUIRE(hyperperiod > 0, "hyper-period must be positive");
  // Power-of-two bucket width so bucket lookup is a shift: the smallest
  // width that keeps the bucket count at or below kMaxBuckets.
  while (((h_ - 1) >> bucket_shift_) >= kMaxBuckets) ++bucket_shift_;
  buckets_.resize(static_cast<std::size_t>(((h_ - 1) >> bucket_shift_) + 1));
}

std::optional<TaskInstance> ProcTimeline::conflicting_owner(Time start,
                                                            Time len) const {
  return conflicting_owner_if(start, len, NoIgnore{});
}

bool ProcTimeline::fits(Time start, Time len) const {
  return !conflicting_owner(start, len).has_value();
}

void ProcTimeline::insert_piece(Piece piece) {
  const std::size_t b = bucket_of(piece.start);
  std::vector<Piece>& v = buckets_[b];
  auto it = std::lower_bound(
      v.begin(), v.end(), piece.start,
      [](const Piece& p, Time value) { return p.start < value; });
  v.insert(it, piece);
  nonempty_[b >> 6] |= std::uint64_t{1} << (b & 63);
  ++piece_count_;
}

const ProcTimeline::OwnerPieces* ProcTimeline::OwnerIndex::find(
    TaskInstance key) const {
  if (table_.empty()) return nullptr;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = probe(key);; i = (i + 1) & mask) {
    const Entry& e = table_[i];
    if (empty_slot(e)) return nullptr;
    if (!tombstone(e) && e.key == key) return &e.val;
  }
}

ProcTimeline::OwnerPieces& ProcTimeline::OwnerIndex::insert(TaskInstance key) {
  // Rehash at 3/4 load (live + tombstones) so probe chains stay short.
  if (table_.empty() || (used_ + 1) * 4 > table_.size() * 3) grow();
  const std::size_t mask = table_.size() - 1;
  std::size_t first_tombstone = table_.size();
  for (std::size_t i = probe(key);; i = (i + 1) & mask) {
    Entry& e = table_[i];
    if (empty_slot(e)) {
      Entry& dest =
          (first_tombstone < table_.size()) ? table_[first_tombstone] : e;
      if (&dest == &e) ++used_;  // tombstone reuse keeps `used_` unchanged
      dest.key = key;
      dest.val = OwnerPieces{};
      ++live_;
      return dest.val;
    }
    if (tombstone(e)) {
      if (first_tombstone == table_.size()) first_tombstone = i;
    } else if (e.key == key) {
      return e.val;
    }
  }
}

void ProcTimeline::OwnerIndex::erase(TaskInstance key) {
  if (table_.empty()) return;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = probe(key);; i = (i + 1) & mask) {
    Entry& e = table_[i];
    if (empty_slot(e)) return;
    if (!tombstone(e) && e.key == key) {
      e.key = TaskInstance{-2, -2};  // tombstone keeps probe chains intact
      --live_;
      return;
    }
  }
}

void ProcTimeline::OwnerIndex::grow() {
  std::vector<Entry> old = std::move(table_);
  std::size_t cap = 16;
  while (cap < live_ * 4) cap <<= 1;  // rehash also purges tombstones
  table_.assign(cap, Entry{});
  used_ = live_;
  const std::size_t mask = cap - 1;
  for (const Entry& e : old) {
    if (empty_slot(e) || tombstone(e)) continue;
    std::size_t i = probe(e.key);
    while (!empty_slot(table_[i])) i = (i + 1) & mask;
    table_[i] = e;
  }
}

void ProcTimeline::OwnerIndex::reset(std::size_t owners) {
  // Below the 3/4 rehash threshold after `owners` inserts; assign() keeps
  // the existing allocation when it is large enough.
  std::size_t cap = 16;
  while (cap * 3 < (owners + 1) * 4) cap <<= 1;
  table_.assign(cap, Entry{});
  used_ = 0;
  live_ = 0;
}

std::size_t ProcTimeline::OwnerIndex::recorded_pieces() const {
  std::size_t count = 0;
  for (const Entry& e : table_) {
    if (empty_slot(e) || tombstone(e)) continue;
    count += (e.val.first >= 0 ? 1 : 0) + (e.val.second >= 0 ? 1 : 0);
  }
  return count;
}

void ProcTimeline::add(Time start, Time len, TaskInstance owner) {
  LBMEM_REQUIRE(fits(start, len), "ProcTimeline::add would overlap");
  add_impl(start, len, owner);
}

void ProcTimeline::add_unchecked(Time start, Time len, TaskInstance owner) {
#if LBMEM_TIMELINE_VERIFY
  LBMEM_REQUIRE(fits(start, len), "ProcTimeline::add_unchecked would overlap");
#else
  LBMEM_REQUIRE(len > 0 && len <= h_, "interval length must be in (0, H]");
#endif
  add_impl(start, len, owner);
}

void ProcTimeline::add_impl(Time start, Time len, TaskInstance owner) {
  const Time s = mod_floor(start, h_);
  const bool wraps = s + len > h_;
  OwnerPieces& slots = owner_index_.insert(owner);
  // Validate capacity before mutating anything: a rejected add must leave
  // both the index and the pieces consistent (remove() stays a no-op).
  // (A fresh owner always has two free slots, so a throw here never leaves
  // behind a newly inserted index entry with pieces.)
  const int free_slots = (slots.first < 0 ? 1 : 0) + (slots.second < 0 ? 1 : 0);
  LBMEM_REQUIRE(free_slots >= (wraps ? 2 : 1),
                "ProcTimeline: an owner may hold at most two pieces");
  const auto record = [&](Time piece_start) {
    (slots.first < 0 ? slots.first : slots.second) = piece_start;
  };
  if (!wraps) {
    record(s);
    insert_piece(Piece{s, len, owner});
  } else {
    record(s);
    record(Time{0});
    insert_piece(Piece{s, h_ - s, owner});
    insert_piece(Piece{0, s + len - h_, owner});
  }
}

void ProcTimeline::erase_piece_at(Time start, TaskInstance owner) {
  // Pieces are disjoint with positive length, so starts are unique keys.
  const std::size_t b = bucket_of(start);
  std::vector<Piece>& v = buckets_[b];
  auto it = std::lower_bound(
      v.begin(), v.end(), start,
      [](const Piece& p, Time value) { return p.start < value; });
  LBMEM_REQUIRE(it != v.end() && it->start == start && it->owner == owner,
                "ProcTimeline owner index out of sync");
  v.erase(it);
  if (v.empty()) nonempty_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  --piece_count_;
}

void ProcTimeline::remove(TaskInstance owner) {
  const OwnerPieces* found = owner_index_.find(owner);
  if (!found) return;
  const OwnerPieces slots = *found;
  owner_index_.erase(owner);
  if (slots.first >= 0) erase_piece_at(slots.first, owner);
  if (slots.second >= 0) erase_piece_at(slots.second, owner);
}

void ProcTimeline::drop_task(TaskId victim) {
  piece_count_ = 0;
  for (std::size_t b = next_nonempty(0); b != npos; b = next_nonempty(b + 1)) {
    std::vector<Piece>& v = buckets_[b];
    std::size_t kept = 0;
    for (const Piece& p : v) {
      if (p.owner.task == victim) continue;
      Piece moved = p;
      if (moved.owner.task > victim) --moved.owner.task;
      v[kept++] = moved;
    }
    v.resize(kept);
    if (kept == 0) nonempty_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    piece_count_ += kept;
  }
  // An owner holds one or two pieces, so piece_count_ bounds the owners.
  owner_index_.reset(piece_count_);
  for (std::size_t b = next_nonempty(0); b != npos; b = next_nonempty(b + 1)) {
    for (const Piece& p : buckets_[b]) {
      OwnerPieces& slots = owner_index_.insert(p.owner);
      (slots.first < 0 ? slots.first : slots.second) = p.start;
    }
  }
}

Time ProcTimeline::skip_run(const Piece* conflict, Time pos, Time wcet,
                            Time cap) const {
  // Positions are measured from pos without wrapping: `end` is where the
  // run ends so far, and a stored piece p sits at p.start + base.
  Time end = mod_floor(conflict->start + conflict->len - pos, h_);
  if (end == 0) end = h_;
  Time base = end - conflict->len - conflict->start;
  std::size_t b = bucket_of(conflict->start);
  auto i = static_cast<std::size_t>(conflict - buckets_[b].data());
  while (end < cap) {
    if (++i == buckets_[b].size()) {
      i = 0;
      b = next_nonempty(b + 1);
      if (b == npos) {  // past the last piece: wrap to the first at H
        b = next_nonempty(0);
        base += h_;
      }
    }
    const Piece& next = buckets_[b][i];
    if (next.start + base - end >= wcet) break;  // the instance fits here
    end = next.start + base + next.len;
  }
  return end;
}

std::optional<Time> ProcTimeline::earliest_fit(Time lb, Time period, Time wcet,
                                               InstanceIdx n,
                                               Time latest) const {
  LBMEM_REQUIRE(period > 0 && wcet > 0 && wcet <= period && n > 0,
                "earliest_fit: bad task shape");
  LBMEM_REQUIRE(static_cast<Time>(n) * period <= h_,
                "earliest_fit: instances exceed hyper-period");
  // Feasibility is periodic in S with period T; `latest` only narrows.
  const Time limit = latest < lb + period ? latest + 1 : lb + period;
  Time s = lb;
  if (s >= limit) return std::nullopt;
  // Instances are checked round-robin; `clear` counts the consecutive ones
  // (ending just before k) known to fit at s, so a jump re-checks only
  // the instances it may have broken.
  InstanceIdx k = 0;
  InstanceIdx clear = 0;
  while (clear < n) {
    const Time pos = mod_floor(s + static_cast<Time>(k) * period, h_);
    if (const Piece* conflict = find_conflict_circular(pos, wcet)) {
      const Time jump = skip_run(conflict, pos, wcet, limit - s);
      if (jump >= limit - s) return std::nullopt;
      s += jump;
      clear = 1;  // instance k fits at the run's end by construction
    } else {
      ++clear;
    }
    if (++k == n) k = 0;
  }
  return s;
}

Time ProcTimeline::busy_time() const {
  Time total = 0;
  for (const std::vector<Piece>& v : buckets_) {
    for (const Piece& p : v) total += p.len;
  }
  return total;
}

bool ProcTimeline::check_index_integrity() const {
  const auto expected_buckets =
      static_cast<std::size_t>(((h_ - 1) >> bucket_shift_) + 1);
  if (buckets_.size() != expected_buckets) return false;
  std::size_t count = 0;
  const Piece* prev = nullptr;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::vector<Piece>& v = buckets_[b];
    const bool bit =
        (nonempty_[b >> 6] >> (b & 63)) & 1;
    if (bit != !v.empty()) return false;
    for (const Piece& p : v) {
      // Inside [0, H), in the right bucket, disjoint from its predecessor.
      if (p.start < 0 || p.len <= 0 || p.start + p.len > h_) return false;
      if (bucket_of(p.start) != b) return false;
      if (prev != nullptr && prev->start + prev->len > p.start) return false;
      prev = &p;
      ++count;
      const OwnerPieces* slots = owner_index_.find(p.owner);
      if (slots == nullptr ||
          (slots->first != p.start && slots->second != p.start)) {
        return false;
      }
    }
  }
  return count == piece_count_ &&
         owner_index_.recorded_pieces() == piece_count_;
}

}  // namespace lbmem
