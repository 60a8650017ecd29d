// The pre-optimization carrier-sense queries (test-only oracle).
//
// CsTimeline answers its windowed queries with one merged cursor walk.
// These are the naive implementations it replaced, kept verbatim as free
// functions over a timeline's snapshot; property tests assert the two
// agree on arbitrary transition histories. count_slots_reference is
// O(W log T) per window.
#pragma once

#include "phy/cs_timeline.hpp"

namespace manet::phy {

SimDuration busy_time_reference(const CsTimelineSnapshot& tl, SimTime from,
                                SimTime to);
SlotCounts count_slots_reference(const CsTimelineSnapshot& tl, SimTime from,
                                 SimTime to, SimDuration slot);
SimDuration countable_idle_time_reference(const CsTimelineSnapshot& tl,
                                          SimTime from, SimTime to,
                                          SimDuration difs);
SimDuration outage_time_reference(const CsTimelineSnapshot& tl, SimTime from,
                                  SimTime to);

}  // namespace manet::phy
