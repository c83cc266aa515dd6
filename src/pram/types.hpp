// Fundamental machine types for the restartable fail-stop CRCW PRAM
// of Kanellakis & Shvartsman (PODC '91), §2.1.
#pragma once

#include <cstdint>

namespace rfsp {

// One shared-memory word. The model stores O(log max{N, P})-bit values;
// a 64-bit word comfortably holds any value plus an epoch stamp in the
// high bits (see StampedCell in writeall/layout.hpp).
using Word = std::int64_t;

// Shared-memory address (cell index).
using Addr = std::uint64_t;

// Processor identifier, 0 .. P-1 ("PID" in the paper). Permanent: survives
// failures, and is the only private knowledge a restarted processor keeps.
using Pid = std::uint32_t;

// Global synchronous clock tick = index of the current update-cycle slot.
// The machine is synchronous (§2.1 point 1), so every live processor can
// observe this value; it implements the paper's "iteration wrap-around
// counter" used by algorithm V to re-synchronize restarted processors.
using Slot = std::uint64_t;

// Concurrency discipline of the simulated PRAM. Theorem 4.1 simulates
// EREW/CREW/COMMON on COMMON machines and ARBITRARY/STRONG(PRIORITY) on
// machines of the same type; the engine can check/resolve all of them.
enum class CrcwModel : std::uint8_t {
  kCommon,     // concurrent writers must write the same value (default)
  kWeak,       // concurrent writers allowed only for one designated value
               // (kWeakValue — the discipline Write-All itself needs)
  kArbitrary,  // one writer wins; we resolve deterministically (lowest PID)
  kPriority,   // lowest-PID writer wins
  kCrew,       // concurrent reads allowed, concurrent writes forbidden
  kErew,       // neither concurrent reads nor writes
};

// The designated concurrent-write value of the WEAK CRCW variant (Theorem
// 4.1 lists WEAK among the simulable disciplines): a lone writer may write
// anything, concurrent writers must all write this — the 1 that Write-All
// writes into every cell.
inline constexpr Word kWeakValue = 1;

// Life-cycle of a processor within a run.
enum class ProcStatus : std::uint8_t {
  kLive,    // executing update cycles
  kFailed,  // stopped; private memory lost; may be restarted
  kHalted,  // voluntarily finished its program (completed a final cycle)
};

// Hard capacities for per-cycle read/write sets. The paper's update cycle
// uses <= 4 reads and <= 2 writes; the engine's *configured* budget defaults
// to those values (EngineOptions), while these constants bound storage.
inline constexpr std::size_t kReadCap = 8;
inline constexpr std::size_t kWriteCap = 4;

// A single buffered shared-memory write.
struct WriteOp {
  Addr addr = 0;
  Word value = 0;
};

}  // namespace rfsp
