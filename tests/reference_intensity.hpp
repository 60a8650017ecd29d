// The ARMA tick chain (test-only oracle).
//
// ObservationHub::IntensityTracker folds Eq. 6 batches on demand, before
// carrier edges and reads. This is the implementation it replaced, kept
// verbatim except for its origin: a self-rescheduling simulator event
// every batch that reads the busy fraction since the previous tick off the
// timeline, the first batch starting at construction (the chain used to
// start it at t = 0, reading history the timeline had pruned). Property
// tests assert the tracker and the chain agree bit for bit.
#pragma once

#include <cstddef>

#include "detect/arma.hpp"
#include "phy/cs_timeline.hpp"
#include "sim/simulator.hpp"
#include "util/types.hpp"

namespace manet::detect {

class ReferenceIntensity {
 public:
  /// Starts the chain now: the first tick fires one batch from now.
  ReferenceIntensity(sim::Simulator& simulator, const phy::CsTimeline& timeline,
                     SimDuration slot_time, double alpha, std::size_t batch_slots);

  // The scheduled tick captures `this`.
  ReferenceIntensity(const ReferenceIntensity&) = delete;
  ReferenceIntensity& operator=(const ReferenceIntensity&) = delete;

  const ArmaIntensityFilter& filter() const { return filter_; }

 private:
  void arm_tick();

  sim::Simulator& sim_;
  const phy::CsTimeline& timeline_;
  SimDuration batch_;
  ArmaIntensityFilter filter_;
  SimTime last_tick_;
};

}  // namespace manet::detect
