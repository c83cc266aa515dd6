// for_each_resilient: the library's user-facing work-distribution API.
//
// "Run these N idempotent tasks to completion on P processors that may
// crash and restart arbitrarily" is exactly the iterated-Write-All service
// the paper builds (§4.3) — this header packages one Write-All pass of it
// behind a small interface, without requiring the caller to think about
// progress trees or epochs.
//
// The caller supplies either a full TaskSpec (fixed-length micro-cycle
// schedule; see writeall/layout.hpp for the idempotency contract) or, for
// the common map-shaped case, a plain function Addr -> Word whose results
// land in a caller-designated output region (one update cycle per element;
// trivially idempotent because the function is pure).
#pragma once

#include <functional>

#include "fault/adversary.hpp"
#include "pram/engine.hpp"
#include "writeall/layout.hpp"
#include "writeall/runner.hpp"

namespace rfsp {

struct ForEachOptions {
  Pid processors = 1;
  // Which Write-All algorithm distributes the tasks. kCombinedVX gives the
  // Theorem 4.9 bounds; kX and kV are exposed for ablation.
  WriteAllAlgo algo = WriteAllAlgo::kCombinedVX;
  // Extra shared memory appended after the algorithm's own structures,
  // addressable by tasks (e.g. a map's output region). Tasks may also read
  // the Write-All bookkeeping region, but must write only their own cells.
  // The region starts zeroed; a task that needs input seeds it itself.
  Addr user_memory = 0;
  EngineOptions engine;
};

struct ForEachResult {
  bool completed = false;  // every task ran to completion
  WorkTally tally;
  Addr user_base = 0;            // where the user region was placed
  std::vector<Word> user_memory;  // its final contents
};

// Run `task` (tasks 0..n-1) to completion under `adversary`.
ForEachResult for_each_resilient(Addr n, const TaskSpec& task,
                                 Adversary& adversary,
                                 const ForEachOptions& options);

// Map-shaped convenience: out[i] = f(i) for i in [0, n), where `out` is a
// fresh user region of n cells returned in ForEachResult::user_memory.
// `f` must be pure (it may be re-invoked after failures).
ForEachResult map_resilient(Addr n, const std::function<Word(Addr)>& f,
                            Adversary& adversary, ForEachOptions options);

}  // namespace rfsp
