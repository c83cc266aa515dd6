#include "fault/stalkers.hpp"

#include <algorithm>
#include <span>

#include "util/wordio.hpp"

namespace rfsp {

namespace {

// A cell's payload as a standalone (epoch 0) run stamps it.
Word payload(Word cell) { return payload_of(cell, /*stamp=*/0); }

// Traversal position of `pid` as committed in shared memory (the stable
// w[] cell algorithm X maintains); 0 = not initialized, layout.exited() =
// left the tree.
Addr committed_position(const MachineView& view, const XLayout& layout,
                        Pid pid) {
  return static_cast<Addr>(payload(view.memory().read(layout.w(pid))));
}

bool is_unfinished_leaf(const MachineView& view, const XLayout& layout,
                        Addr pos) {
  if (pos < layout.n_pad || pos >= 2 * layout.n_pad) return false;
  return payload(view.memory().read(layout.d(pos))) == 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// PostOrderStalker

PostOrderStalker::PostOrderStalker(XLayout layout) : layout_(layout) {}

FaultDecision PostOrderStalker::decide(const MachineView& view) {
  FaultDecision d = view.blank_decision();
  const Addr pos0 = committed_position(view, layout_, 0);
  const std::span<const Pid> started = view.started_pids();

  // Release failed processors only when processor 0 has *just* completed a
  // new leaf ("when processors reach a leaf, the failure/restart procedure
  // is repeated"): they then traverse toward the remaining work until they
  // hit the next unfinished leaf, where they are stopped again.
  const bool release = last_visited_ > last_release_mark_;
  if (release) last_release_mark_ = last_visited_;

  for (Pid pid : started) {
    if (pid == 0) continue;
    const Addr pos = committed_position(view, layout_, pid);
    // Reached an unfinished leaf where processor 0 is not: stop there.
    if (pos != pos0 && is_unfinished_leaf(view, layout_, pos)) {
      d.fail_mid_cycle.push_back(pid);
    }
  }

  if (release && !failed_.empty()) {
    // Freed once processor 0 has passed this PID's initial territory.
    // failed_ is ascending, so the released PIDs are a prefix of it.
    const auto cut = std::lower_bound(
        failed_.begin(), failed_.end(), last_visited_,
        [](Pid pid, Addr frontier) { return static_cast<Addr>(pid) < frontier; });
    d.restart.assign(failed_.begin(), cut);
    failed_.erase(failed_.begin(), cut);
  }

  // Track processor 0's post-order progress by the x-writes that will
  // commit this slot (processor 0 is never failed, so its writes always
  // commit; other survivors' x-writes only advance the frontier). Both
  // `started` and the victims are ascending, so one index skips the dead.
  std::size_t victim = 0;
  for (Pid pid : started) {
    while (victim < d.fail_mid_cycle.size() &&
           d.fail_mid_cycle[victim] < pid) {
      ++victim;
    }
    if (victim < d.fail_mid_cycle.size() && d.fail_mid_cycle[victim] == pid) {
      continue;
    }
    for (const WriteOp& op : view.trace(pid).writes) {
      if (op.addr >= layout_.x_base && op.addr < layout_.x_base + layout_.n &&
          payload(op.value) != 0) {
        last_visited_ =
            std::max(last_visited_, op.addr - layout_.x_base + 1);
      }
    }
  }

  // Fold this slot's victims into the failed set (both ascending),
  // through a member buffer: std::inplace_merge would heap-allocate a
  // temporary buffer on every call.
  if (!d.fail_mid_cycle.empty()) {
    merge_buf_.resize(failed_.size() + d.fail_mid_cycle.size());
    std::merge(failed_.begin(), failed_.end(), d.fail_mid_cycle.begin(),
               d.fail_mid_cycle.end(), merge_buf_.begin());
    failed_.swap(merge_buf_);
  }
  return d;
}

void PostOrderStalker::save_state(std::vector<std::uint64_t>& out) const {
  U64Writer w(out);
  w.put(last_visited_);
  w.put(last_release_mark_);
  w.put_span(std::span<const Pid>(failed_));
}

void PostOrderStalker::load_state(std::span<const std::uint64_t> data) {
  U64Reader r(data);
  last_visited_ = r.get();
  last_release_mark_ = r.get();
  r.get_vec(failed_);
}

// ---------------------------------------------------------------------------
// LeafStalker

LeafStalker::LeafStalker(XLayout layout, LeafStalkerOptions opt)
    : layout_(layout), opt_(opt), target_node_(layout_.leaf(layout_.n - 1)) {}

FaultDecision LeafStalker::decide(const MachineView& view) {
  FaultDecision d = view.blank_decision();
  if (released_) return d;

  const std::span<const Pid> started = view.started_pids();
  std::vector<Pid> touching;
  for (Pid pid : started) {
    if (committed_position(view, layout_, pid) == target_node_) {
      touching.push_back(pid);
    }
  }

  if (!opt_.restart_variant) {
    // Fail-stop case: kill touchers permanently until one processor is left
    // alive in the whole machine; that survivor finishes alone.
    if (started.size() <= 1) {
      released_ = true;
      return d;
    }
    std::size_t alive = started.size();
    for (Pid pid : touching) {
      if (alive <= 1) break;
      d.fail_mid_cycle.push_back(pid);
      --alive;
    }
    return d;
  }

  // Restart case: touchers are failed and instantly revived (they resume at
  // the stalked leaf and are caught again) until every processor that is
  // still in the computation is simultaneously at the leaf.
  // Processors still in the computation: the live (started) ones and the
  // failed ones.
  const std::span<const Pid> failed = view.failed_pids();
  const std::size_t live_or_failed = started.size() + failed.size();
  std::size_t at_leaf = touching.size();
  for (Pid pid : failed) {
    if (committed_position(view, layout_, pid) == target_node_) ++at_leaf;
  }
  if (at_leaf >= live_or_failed) {
    // Everyone (not yet halted) is camped on the leaf: release them all.
    released_ = true;
    d.restart.assign(failed.begin(), failed.end());
    return d;
  }
  for (Pid pid : touching) {
    // Keep a completer.
    if (d.fail_mid_cycle.size() + 1 >= started.size()) break;
    d.fail_mid_cycle.push_back(pid);
    d.restart.push_back(pid);
  }
  return d;
}

}  // namespace rfsp
