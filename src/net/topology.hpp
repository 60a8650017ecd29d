// Node placement builders: the paper's 7x8 grid and random layouts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/vec2.hpp"
#include "util/rng.hpp"

namespace manet::net {

/// Bucket grid over a fixed layout for O(neighborhood) range queries —
/// connectivity checks and flow seeding on 10k-node layouts would
/// otherwise be O(N^2) scans. Results are exact (same <= comparison on the
/// same doubles as the naive scan), so callers switching to the index stay
/// byte-identical.
class LayoutIndex {
 public:
  /// Buckets `nodes` (which must outlive the index) into cells of
  /// `cell_m` meters. Throws std::invalid_argument on a non-positive cell
  /// or coordinates that would overflow 32-bit cell indexing.
  LayoutIndex(const std::vector<geom::Vec2>& nodes, double cell_m);

  /// Appends (ascending) the indices of nodes within `range` of nodes[i],
  /// excluding i — exactly neighbors_within(nodes, i, range).
  void neighbors_into(std::size_t i, double range,
                      std::vector<std::size_t>& out) const;

  /// True when some other node lies within `range` of nodes[i].
  bool has_neighbor(std::size_t i, double range) const;

 private:
  static std::uint64_t key(std::int32_t cx, std::int32_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint32_t>(cy);
  }
  std::int32_t coord(double v) const;

  const std::vector<geom::Vec2>& nodes_;
  double cell_m_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets_;
};

/// Grid of `rows` x `cols` nodes spaced `spacing` meters apart, with the
/// first node at `origin`. Node i sits at (origin.x + (i % cols) * spacing,
/// origin.y + (i / cols) * spacing).
std::vector<geom::Vec2> grid_topology(std::size_t rows, std::size_t cols,
                                      double spacing, geom::Vec2 origin = {});

/// Index of the node nearest the grid centroid (a "center" node).
std::size_t grid_center_index(std::size_t rows, std::size_t cols);

/// `n` nodes uniform in [0,width) x [0,height).
std::vector<geom::Vec2> random_topology(std::size_t n, double width, double height,
                                        util::Xoshiro256ss& rng);

/// True if the unit-disk graph with the given link range is connected.
/// Bucket-grid BFS: O(N * neighborhood) instead of an O(N^2) scan.
bool is_connected(const std::vector<geom::Vec2>& nodes, double range);

/// Resamples random layouts until the topology is connected at `range`
/// (throws after `max_tries`). The paper sizes its random scenarios (112
/// nodes in 3000x3000 m) so connectivity holds with high probability.
std::vector<geom::Vec2> random_connected_topology(std::size_t n, double width,
                                                  double height, double range,
                                                  util::Xoshiro256ss& rng,
                                                  int max_tries = 200);

/// Indices of nodes within `range` of node `i` (excluding i).
std::vector<std::size_t> neighbors_within(const std::vector<geom::Vec2>& nodes,
                                          std::size_t i, double range);

}  // namespace manet::net
