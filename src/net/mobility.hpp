// Mobility models implementing phy::PositionProvider.
//
// RandomWaypoint reproduces the paper's mobile scenario: each node picks a
// uniform destination in the field, moves toward it at a uniform random
// speed, pauses, and repeats. Legs are generated lazily and deterministically
// from a per-node stream, so position(t) needs no scheduled events; queries
// are expected (but not required) to be non-decreasing in t per node, which
// makes lazy advancement O(1) amortized.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/vec2.hpp"
#include "phy/signal.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace manet::net {

/// Fixed positions (the paper's static grid experiments).
class StaticMobility : public phy::PositionProvider {
 public:
  explicit StaticMobility(std::vector<geom::Vec2> positions)
      : positions_(std::move(positions)) {}

  geom::Vec2 position(NodeId node, SimTime) const override {
    return positions_.at(node);
  }

  bool piecewise_linear() const override { return true; }

  /// One zero-velocity segment covering all of time: the incremental
  /// spatial index never schedules a migration for a static radio, and
  /// every link budget it derives is cacheable for the whole run.
  phy::MotionState motion(NodeId node, SimTime) const override {
    return phy::MotionState{positions_.at(node), geom::Vec2{0.0, 0.0},
                            kTimeNever, 0};
  }

  std::size_t size() const { return positions_.size(); }

 private:
  std::vector<geom::Vec2> positions_;
};

struct RandomWaypointParams {
  double width = 3000.0;
  double height = 3000.0;
  double min_speed = 0.5;   // m/s; strictly positive to avoid stuck nodes
  double max_speed = 20.0;  // paper: uniform 0-20 m/s
  SimDuration pause = 0;    // paper: {0, 50, 100, 200, 300} s
};

class RandomWaypoint : public phy::PositionProvider {
 public:
  /// Starts each node at its entry in `initial`; per-node randomness is
  /// derived from (seed, node) so runs are reproducible and node count
  /// independent.
  RandomWaypoint(std::vector<geom::Vec2> initial, const RandomWaypointParams& params,
                 std::uint64_t seed);

  geom::Vec2 position(NodeId node, SimTime at) const override;

  bool piecewise_linear() const override { return true; }

  /// The current travel or pause phase as one linear segment. Travel legs
  /// get epoch 2*leg_index (constant velocity toward the waypoint, ends at
  /// arrival); pauses get 2*leg_index+1 (zero velocity, ends at departure),
  /// so the channel can reuse link budgets across a pause.
  phy::MotionState motion(NodeId node, SimTime at) const override;

  const RandomWaypointParams& params() const { return params_; }

 private:
  struct Leg {
    SimTime start = 0;      // leg begins (after any pause)
    SimTime arrive = 0;     // reaches `to`
    SimTime next_start = 0; // arrive + pause
    geom::Vec2 from;
    geom::Vec2 to;
  };

  struct NodeState {
    util::Xoshiro256ss rng;
    Leg leg;
    std::uint64_t leg_index = 0;  // feeds the motion-segment epochs
  };

  void advance_to(NodeState& st, SimTime at) const;
  Leg make_leg(util::Xoshiro256ss& rng, geom::Vec2 from, SimTime start) const;
  /// Exact position within a leg; shared by position() and motion() so the
  /// two are bit-identical at the same query time.
  static geom::Vec2 position_at(const Leg& leg, SimTime at);

  RandomWaypointParams params_;
  mutable std::vector<NodeState> nodes_;  // lazily advanced cache
};

}  // namespace manet::net
