#include "accounting/tally.hpp"

#include <algorithm>
#include <ostream>

#include "util/error.hpp"

namespace rfsp {

double WorkTally::overhead_ratio(std::uint64_t input_size) const {
  RFSP_CHECK_MSG(input_size >= 1, "overhead ratio needs |I| >= 1");
  return static_cast<double>(completed_work) /
         static_cast<double>(input_size + pattern_size());
}

void write_phase_csv(std::ostream& out, std::span<const PhaseWork> phases) {
  out << "phase,completed,attempted,failures,restarts,slots\n";
  for (const PhaseWork& p : phases) {
    out << p.name << ',' << p.completed_work << ',' << p.attempted_work << ','
        << p.failures << ',' << p.restarts << ',' << p.slots << '\n';
  }
}

void WorkTally::merge(const WorkTally& other) {
  completed_work += other.completed_work;
  attempted_work += other.attempted_work;
  failures += other.failures;
  restarts += other.restarts;
  slots += other.slots;
  halted += other.halted;
  peak_live = std::max(peak_live, other.peak_live);
  persists += other.persists;
}

}  // namespace rfsp
