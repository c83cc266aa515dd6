// Phase schedules: a program's declaration of which logical phase the
// machine occupies at each slot. The engine turns it into phase-transition
// trace events; StreamAggregator (obs/stream.hpp) attributes work per
// phase from those.
//
// The paper's algorithms have fixed-length phases known at layout time
// (algorithm V's T_iter = phase_alloc + phase_work + phase_update slots,
// algorithm W's four phases, the combined algorithm's even/odd V/X
// interleave), so the schedule is a pure function Slot -> phase id. The
// attribution is slot-granular: every started/completed cycle and every
// failure/restart event of a slot is charged to that slot's phase —
// exactly the granularity at which the paper's Definitions 2.2/2.3 count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pram/types.hpp"

namespace rfsp {

struct PhaseSchedule {
  std::vector<std::string> names;  // phase id -> label, ids are dense from 0

  // Pure function of the slot index; must return an id < names.size() for
  // every slot the run can reach. Called once per slot, only while a sink
  // is installed (EngineOptions::sink).
  std::function<std::uint32_t(Slot)> phase_of;
};

}  // namespace rfsp
