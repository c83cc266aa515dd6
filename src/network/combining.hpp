// The synchronous combining interconnection network of §2.3 (Figure 1).
//
// The paper's realizable architecture is: P fail-stop processors, Q
// reliable shared-memory cells, and a *synchronous combining
// interconnection network* ([KRS 88], Ultracomputer-style [Sch 80]) that
// serializes and combines concurrent accesses — the component that makes
// unit-cost concurrent reads/writes (and hence the CRCW PRAM abstraction
// the algorithms assume) physically plausible. This module implements that
// substrate as a cycle-accurate Omega-network simulator:
//
//  * log₂P stages of 2×2 switches, shuffle-exchange routing by destination
//    memory-module bits, store-and-forward with one packet per link per
//    network tick and FIFO output queues;
//  * combining: requests to the same cell that meet in a switch queue
//    merge into one packet (reads fan the response back out; COMMON
//    concurrent writes carry equal values and merge losslessly);
//  * batch semantics matching one PRAM update-cycle slot: all reads
//    observe the pre-batch memory, writes apply when the batch drains.
//
// Turning combining off exposes the classic hot-spot tree-saturation
// pathology (service time Θ(P) instead of Θ(log P) when everyone touches
// one cell) — the experiment bench E13 measures exactly that shape, which
// is the architectural argument for why the paper may assume unit-cost
// concurrent access.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "pram/types.hpp"

namespace rfsp {

struct MemRequest {
  Pid pid = 0;   // issuing processor (response routing / read results)
  Addr addr = 0;
  bool write = false;
  Word value = 0;  // payload for writes
};

struct NetworkOptions {
  unsigned ports = 16;   // processor ports; rounded up to a power of two.
                         // One memory module per port (module = addr mod
                         // ports), the standard Omega configuration.
  bool combining = true;  // merge same-cell requests in switch queues
};

struct BatchResult {
  std::uint64_t ticks = 0;       // makespan of the batch (network cycles)
  std::uint64_t merges = 0;      // packets absorbed by combining
  std::uint64_t delivered = 0;   // packets that reached a memory module
  std::uint64_t max_queue = 0;   // deepest switch queue seen (saturation)
  // Read results per input request (nullopt for writes), observing the
  // memory as of the batch's start (synchronous PRAM semantics).
  std::vector<std::optional<Word>> read_results;
};

class CombiningNetwork {
 public:
  // The network fronts `cells` shared-memory words (all zero initially).
  CombiningNetwork(NetworkOptions options, Addr cells);

  // Route one synchronous batch (at most one request per processor port —
  // one PRAM instruction's memory traffic) to the modules and back.
  BatchResult route(std::span<const MemRequest> batch);

  Word memory(Addr a) const;
  unsigned stages() const { return stages_; }
  unsigned ports() const { return ports_; }

 private:
  NetworkOptions options_;
  unsigned ports_ = 0;   // power of two
  unsigned stages_ = 0;  // log2(ports)
  std::vector<Word> cells_;
};

}  // namespace rfsp
