#include "reference_intensity.hpp"

namespace manet::detect {

ReferenceIntensity::ReferenceIntensity(sim::Simulator& simulator,
                                       const phy::CsTimeline& timeline,
                                       SimDuration slot_time, double alpha,
                                       std::size_t batch_slots)
    : sim_(simulator),
      timeline_(timeline),
      batch_(static_cast<SimDuration>(batch_slots) * slot_time),
      filter_(alpha),
      last_tick_(simulator.now()) {
  arm_tick();
}

void ReferenceIntensity::arm_tick() {
  sim_.after(batch_, [this] {
    const SimTime now = sim_.now();
    filter_.add_batch(timeline_.busy_fraction(last_tick_, now));
    last_tick_ = now;
    arm_tick();
  });
}

}  // namespace manet::detect
