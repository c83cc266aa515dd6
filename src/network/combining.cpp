#include "network/combining.hpp"

#include <algorithm>
#include <deque>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace rfsp {

namespace {

// An in-flight packet; `sources` carries every original request index it
// answers for (grows when combining merges packets).
struct Packet {
  Addr addr = 0;
  bool write = false;
  Word value = 0;
  std::vector<std::size_t> sources;
};

}  // namespace

CombiningNetwork::CombiningNetwork(NetworkOptions options, Addr cells)
    : options_(options), cells_(cells, Word{0}) {
  if (options_.ports < 1) throw ConfigError("network needs ports");
  ports_ = static_cast<unsigned>(ceil_pow2(options_.ports));
  if (ports_ < 2) ports_ = 2;  // at least one switch stage
  stages_ = ceil_log2(ports_);
  RFSP_CHECK(cells >= 1);
}

Word CombiningNetwork::memory(Addr a) const {
  RFSP_CHECK(a < cells_.size());
  return cells_[a];
}

BatchResult CombiningNetwork::route(std::span<const MemRequest> batch) {
  RFSP_CHECK_MSG(batch.size() <= options_.ports,
                 "one request per processor port per batch");
  for (const MemRequest& r : batch) {
    RFSP_CHECK_MSG(r.addr < cells_.size(), "request beyond memory");
  }

  BatchResult result;
  result.read_results.assign(batch.size(), std::nullopt);

  // queues[s][w]: packets waiting to traverse stage s from wire w.
  std::vector<std::vector<std::deque<Packet>>> queues(
      stages_, std::vector<std::deque<Packet>>(ports_));

  // Inject: processor i enters on wire (pid mod ports).
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Packet p;
    p.addr = batch[i].addr;
    p.write = batch[i].write;
    p.value = batch[i].value;
    p.sources.push_back(i);
    queues[0][batch[i].pid % ports_].push_back(std::move(p));
  }

  // Reads observe the batch-start memory; writes land when it drains.
  const std::vector<Word> snapshot = cells_;
  std::size_t in_flight = batch.size();

  auto try_combine = [&](std::deque<Packet>& queue, Packet& incoming) {
    if (!options_.combining) return false;
    for (Packet& waiting : queue) {
      if (waiting.addr != incoming.addr || waiting.write != incoming.write) {
        continue;
      }
      if (waiting.write && waiting.value != incoming.value) {
        // Non-COMMON write pair: the network serializes rather than
        // combines (the algorithms in this library never produce these).
        continue;
      }
      waiting.sources.insert(waiting.sources.end(),
                             incoming.sources.begin(),
                             incoming.sources.end());
      return true;
    }
    return false;
  };

  while (in_flight > 0) {
    ++result.ticks;
    RFSP_CHECK_MSG(result.ticks < (std::uint64_t{1} << 32),
                   "network livelock");
    // Advance the last stage first so a packet moves one hop per tick.
    for (unsigned s = stages_; s-- > 0;) {
      for (unsigned w = 0; w < ports_; ++w) {
        std::deque<Packet>& queue = queues[s][w];
        if (queue.empty()) continue;
        Packet packet = std::move(queue.front());
        queue.pop_front();

        // Shuffle-exchange hop: steer by the destination-module bits,
        // consumed MSB-first (stage s uses bit stages-1-s), so after the
        // last hop the wire index equals the module index.
        const Addr module = packet.addr % ports_;
        const unsigned dest_bit =
            static_cast<unsigned>((module >> (stages_ - 1 - s)) & 1);
        const unsigned next_wire = ((w << 1) | dest_bit) & (ports_ - 1);

        if (s + 1 == stages_) {
          // Arrived at a module: serve every combined source.
          for (const std::size_t src : packet.sources) {
            if (!packet.write) result.read_results[src] = snapshot[packet.addr];
          }
          if (packet.write) cells_[packet.addr] = packet.value;
          ++result.delivered;
          --in_flight;
          continue;
        }
        std::deque<Packet>& next_queue = queues[s + 1][next_wire];
        if (try_combine(next_queue, packet)) {
          ++result.merges;
          --in_flight;
        } else {
          next_queue.push_back(std::move(packet));
          result.max_queue =
              std::max<std::uint64_t>(result.max_queue, next_queue.size());
        }
      }
    }
  }
  return result;
}

}  // namespace rfsp
