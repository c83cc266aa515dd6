#include "accounting/tally.hpp"

#include "util/error.hpp"

namespace rfsp {

double WorkTally::overhead_ratio(std::uint64_t input_size) const {
  RFSP_CHECK_MSG(input_size >= 1, "overhead ratio needs |I| >= 1");
  return static_cast<double>(completed_work) /
         static_cast<double>(input_size + pattern_size());
}

}  // namespace rfsp
