#include "net/topology.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace manet::net {

std::vector<geom::Vec2> grid_topology(std::size_t rows, std::size_t cols,
                                      double spacing, geom::Vec2 origin) {
  if (rows != 0 && cols > (std::numeric_limits<std::size_t>::max)() / rows) {
    throw std::invalid_argument("grid node count overflows");
  }
  std::vector<geom::Vec2> nodes;
  nodes.reserve(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      nodes.push_back(origin + geom::Vec2{static_cast<double>(c) * spacing,
                                          static_cast<double>(r) * spacing});
    }
  }
  return nodes;
}

std::size_t grid_center_index(std::size_t rows, std::size_t cols) {
  return (rows / 2) * cols + cols / 2;
}

std::vector<geom::Vec2> random_topology(std::size_t n, double width, double height,
                                        util::Xoshiro256ss& rng) {
  if (n == 0) throw std::invalid_argument("random topology needs >= 1 node");
  if (!(width > 0.0) || !(height > 0.0) || !std::isfinite(width) ||
      !std::isfinite(height)) {
    throw std::invalid_argument("topology area dimensions must be positive and finite");
  }
  std::vector<geom::Vec2> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back({rng.uniform(0.0, width), rng.uniform(0.0, height)});
  }
  return nodes;
}

std::int32_t LayoutIndex::coord(double v) const {
  const double c = std::floor(v / cell_m_);
  if (!(c >= -2147483000.0 && c <= 2147483000.0)) {
    throw std::invalid_argument(
        "layout coordinate overflows bucket-grid indexing");
  }
  return static_cast<std::int32_t>(c);
}

LayoutIndex::LayoutIndex(const std::vector<geom::Vec2>& nodes, double cell_m)
    : nodes_(nodes), cell_m_(cell_m) {
  if (!(cell_m > 0.0)) {
    throw std::invalid_argument("bucket-grid cell size must be positive");
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    buckets_[key(coord(nodes[i].x), coord(nodes[i].y))].push_back(
        static_cast<std::uint32_t>(i));
  }
}

void LayoutIndex::neighbors_into(std::size_t i, double range,
                                 std::vector<std::size_t>& out) const {
  const geom::Vec2 p = nodes_[i];
  const double r2 = range * range;
  const std::int32_t cx = coord(p.x);
  const std::int32_t cy = coord(p.y);
  const auto reach =
      static_cast<std::int32_t>(std::ceil(range / cell_m_));
  for (std::int32_t dx = -reach; dx <= reach; ++dx) {
    for (std::int32_t dy = -reach; dy <= reach; ++dy) {
      const auto it = buckets_.find(key(cx + dx, cy + dy));
      if (it == buckets_.end()) continue;
      for (const std::uint32_t j : it->second) {
        if (j == i) continue;
        if ((p - nodes_[j]).norm2() <= r2) out.push_back(j);
      }
    }
  }
  std::sort(out.begin(), out.end());
}

bool LayoutIndex::has_neighbor(std::size_t i, double range) const {
  const geom::Vec2 p = nodes_[i];
  const double r2 = range * range;
  const std::int32_t cx = coord(p.x);
  const std::int32_t cy = coord(p.y);
  const auto reach =
      static_cast<std::int32_t>(std::ceil(range / cell_m_));
  for (std::int32_t dx = -reach; dx <= reach; ++dx) {
    for (std::int32_t dy = -reach; dy <= reach; ++dy) {
      const auto it = buckets_.find(key(cx + dx, cy + dy));
      if (it == buckets_.end()) continue;
      for (const std::uint32_t j : it->second) {
        if (j != i && (p - nodes_[j]).norm2() <= r2) return true;
      }
    }
  }
  return false;
}

bool is_connected(const std::vector<geom::Vec2>& nodes, double range) {
  if (nodes.empty()) return true;
  if (!(range > 0.0)) return nodes.size() == 1;
  const LayoutIndex index(nodes, range);
  std::vector<bool> seen(nodes.size(), false);
  std::vector<std::size_t> frontier{0};
  std::vector<std::size_t> scratch;
  seen[0] = true;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const std::size_t u = frontier.back();
    frontier.pop_back();
    scratch.clear();
    index.neighbors_into(u, range, scratch);
    for (const std::size_t v : scratch) {
      if (seen[v]) continue;
      seen[v] = true;
      ++reached;
      frontier.push_back(v);
    }
  }
  return reached == nodes.size();
}

std::vector<geom::Vec2> random_connected_topology(std::size_t n, double width,
                                                  double height, double range,
                                                  util::Xoshiro256ss& rng,
                                                  int max_tries) {
  if (!(range > 0.0)) {
    throw std::invalid_argument("connectivity range must be positive");
  }
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    auto nodes = random_topology(n, width, height, rng);
    if (is_connected(nodes, range)) return nodes;
  }
  throw std::runtime_error("could not sample a connected random topology");
}

std::vector<std::size_t> neighbors_within(const std::vector<geom::Vec2>& nodes,
                                          std::size_t i, double range) {
  std::vector<std::size_t> out;
  const double r2 = range * range;
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    if (j == i) continue;
    if ((nodes[i] - nodes[j]).norm2() <= r2) out.push_back(j);
  }
  return out;
}

}  // namespace manet::net
