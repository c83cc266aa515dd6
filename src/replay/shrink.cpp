#include "replay/shrink.hpp"

#include <algorithm>
#include <tuple>

#include "util/error.hpp"

namespace rfsp {

namespace {

// The probes spent on one shrink, and the one place that spends them.
class Prober {
 public:
  explicit Prober(const std::function<bool(const FaultSchedule&)>& still_fails)
      : still_fails_(still_fails) {}

  bool exhausted() const { return used_ >= kShrinkMaxProbes; }
  std::size_t used() const { return used_; }

  // Probes `cand`; if it still fails, it becomes `current`.
  bool keep(FaultSchedule& current, FaultSchedule cand) {
    ++used_;
    if (!still_fails_(cand)) return false;
    current = std::move(cand);
    return true;
  }

 private:
  const std::function<bool(const FaultSchedule&)>& still_fails_;
  std::size_t used_ = 0;
};

// Probes `current` without moves [begin, end).
bool try_without(FaultSchedule& current, std::size_t begin, std::size_t end,
                 Prober& prober) {
  FaultSchedule cand = current;
  cand.moves.erase(cand.moves.begin() + static_cast<std::ptrdiff_t>(begin),
                   cand.moves.begin() + static_cast<std::ptrdiff_t>(end));
  return prober.keep(current, std::move(cand));
}

// Stage A: ddmin over whole slots — remove chunk-sized runs of slots,
// halving the chunk until single slots are tried.
bool stage_slots(FaultSchedule& current, Prober& prober) {
  bool changed = false;
  std::size_t chunk = std::max<std::size_t>(current.slot_count() / 2, 1);
  while (!prober.exhausted() && !current.moves.empty()) {
    bool removed = false;
    std::size_t i = 0;  // the chunk's first move
    while (i < current.moves.size() && !prober.exhausted()) {
      std::size_t end = i;
      for (std::size_t k = 0; k < chunk && end < current.moves.size(); ++k) {
        end = current.slot_end(end);
      }
      if (try_without(current, i, end, prober)) {
        removed = changed = true;  // stay at i: the next chunk shifted here
      } else {
        i = end;
      }
    }
    if (chunk == 1) {
      if (!removed) break;  // 1-minimal at slot granularity
    } else {
      chunk = std::max<std::size_t>(chunk / 2, 1);
    }
  }
  return changed;
}

// Stage B: remove single moves in array order — by slot, and within a slot
// by kind (mid, after, restart, cells, drop, torn).
bool stage_moves(FaultSchedule& current, Prober& prober) {
  bool changed = false;
  std::size_t i = 0;
  while (i < current.moves.size() && !prober.exhausted()) {
    if (try_without(current, i, i + 1, prober)) {
      changed = true;  // stay at i: the next move shifted here
    } else {
      ++i;
    }
  }
  return changed;
}

// Stage C: weaken moves one adversarial notch — torn -> mid, mid -> after.
// A weakened move goes to the end of its new kind's moves in its slot.
// Both steps are one-directional, so the fixpoint loop cannot oscillate
// through here.
bool stage_weaken(FaultSchedule& current, Prober& prober) {
  using Kind = Move::Kind;
  bool changed = false;
  for (std::size_t b = 0; b < current.moves.size() && !prober.exhausted();
       b = current.slot_end(b)) {
    const std::size_t e = current.slot_end(b);
    // The slot's first move of kind `k` or later: a slot is sorted by kind.
    const auto kind_start = [&](Kind k) {
      std::size_t i = b;
      while (i < e && current.moves[i].kind < k) ++i;
      return i;
    };
    for (const auto& [from, to, past_to] :
         {std::tuple{Kind::kTorn, Kind::kMid, Kind::kAfter},
          std::tuple{Kind::kMid, Kind::kAfter, Kind::kRestart}}) {
      for (std::size_t kept = 0; !prober.exhausted();) {
        const std::size_t j = kind_start(from) + kept;
        if (j >= e || current.moves[j].kind != from) break;
        std::size_t dest = kind_start(past_to);  // past `to`'s moves
        if (j < dest) --dest;  // erasing j shifts them down by one
        FaultSchedule cand = current;
        const Move weak{.slot = cand.moves[j].slot,
                        .target = cand.moves[j].target, .kind = to};
        cand.moves.erase(cand.moves.begin() + static_cast<std::ptrdiff_t>(j));
        cand.moves.insert(
            cand.moves.begin() + static_cast<std::ptrdiff_t>(dest), weak);
        if (prober.keep(current, std::move(cand))) {
          changed = true;
        } else {
          ++kept;
        }
      }
    }
  }
  return changed;
}

}  // namespace

ShrinkResult shrink_schedule(
    const FaultSchedule& input,
    const std::function<bool(const FaultSchedule&)>& still_fails) {
  ShrinkResult result;
  result.initial_moves = input.move_count();

  Prober prober(still_fails);
  FaultSchedule current;
  if (!prober.keep(current, input)) {
    throw ConfigError(
        "shrink_schedule: the input schedule does not fail the predicate — "
        "nothing to shrink");
  }

  bool progress = true;
  while (progress && !prober.exhausted()) {
    progress = false;
    progress |= stage_slots(current, prober);
    progress |= stage_moves(current, prober);
    progress |= stage_weaken(current, prober);
  }

  result.schedule = std::move(current);
  result.probes = prober.used();
  result.final_moves = result.schedule.move_count();
  result.budget_exhausted = prober.exhausted();
  return result;
}

}  // namespace rfsp
