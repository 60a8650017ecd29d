#include "phy/channel.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "phy/impairments.hpp"
#include "phy/radio.hpp"

namespace manet::phy {

namespace {
// Up to this many radios the grid's 3x3 cell probe costs more than simply
// walking every attach index; the prefilter applies either way.
constexpr std::size_t kDirectScanRadios = 16;

// Pad added to the carrier-sense range when sizing incremental cells and
// audibility windows. It absorbs every inexactness the incremental path
// tolerates — motion-prediction FP noise (~1e-9 m), deadline rounding
// (≤ 1 ns of travel) — with ~9 orders of magnitude to spare, so "outside
// the padded radius" always implies "strictly beyond cs_range", where the
// monotone path-loss model guarantees inaudibility.
constexpr double kCellPadM = 1.0;
}  // namespace

Channel::IndexMode Channel::parse_index_mode(std::string_view name) {
  if (name == "auto") return IndexMode::kAuto;
  if (name == "scan") return IndexMode::kFullScan;
  throw std::invalid_argument("unknown channel index mode '" +
                              std::string(name) + "' (expected auto|scan)");
}

Channel::Channel(sim::Simulator& simulator, Propagation& propagation,
                 const PositionProvider& positions)
    : sim_(simulator), prop_(propagation), positions_(positions) {
  // Cells only need to cover the padded sensing range: staleness is
  // handled by migration deadlines, not slack.
  cell_m_ = prop_.params().cs_range_m + kCellPadM;
  // Candidate prefilter radius: 1 m of slack absorbs the FP rounding of a
  // predicted position (ref + v*dt vs the provider's own expression), so a
  // predicted distance beyond this limit proves the true distance exceeds
  // the padded sensing range — the exact claim the audibility window makes.
  const double predict_limit = cell_m_ + 1.0;
  predict_limit_sq_ = predict_limit * predict_limit;
}

void Channel::attach(Radio* radio) {
  if (by_id_.count(radio->id()) != 0) {
    throw std::invalid_argument("duplicate radio id attached to channel");
  }
  const auto index = static_cast<std::uint32_t>(radios_.size());
  by_id_.emplace(radio->id(), index);
  radio->set_channel_index(index);
  radios_.push_back(radio);
}

void Channel::install_faults(FaultInjector& faults) {
  faults_ = &faults;
  for (const FaultPlan::Outage& o : faults.plan().outages) {
    auto it = by_id_.find(o.node);
    if (it == by_id_.end()) {
      throw std::invalid_argument("fault outage names an unattached radio");
    }
    Radio* radio = radios_[it->second];
    sim_.at(o.start, [radio] { radio->set_outage(true); });
    sim_.at(o.stop, [radio] { radio->set_outage(false); });
  }
}

bool Channel::indexed() const {
  // Shadowing draws one RNG deviate per rx_power_dbm call and can lift a
  // node beyond cs_range above the threshold, so any pre-filtering would
  // change both the draw sequence and the audible set: full scan only.
  return index_mode_ == IndexMode::kAuto &&
         prop_.params().shadowing_sigma_db == 0.0 &&
         positions_.piecewise_linear();
}

std::int32_t Channel::cell_coord(double v) const {
  const double c = std::floor(v / cell_m_);
  if (!(c >= -2147483000.0 && c <= 2147483000.0)) {
    throw std::invalid_argument(
        "node position overflows spatial-index cell coordinates");
  }
  return static_cast<std::int32_t>(c);
}

// ---------------------------------------------------------------------------
// Incremental index.

void Channel::heap_push(SimTime due, std::uint32_t idx) {
  migrate_heap_.emplace_back(due, idx);
  std::push_heap(migrate_heap_.begin(), migrate_heap_.end(),
                 std::greater<>{});
}

SimTime Channel::next_due(const MotionState& m, std::int32_t cx,
                          std::int32_t cy, SimTime now) const {
  const bool parked = m.velocity_mps.x == 0.0 && m.velocity_mps.y == 0.0;
  SimTime due;
  if (parked) {
    due = m.until;  // kTimeNever for static radios: never re-checked
  } else {
    // Earliest time the segment's straight line exits the current cell.
    double exit_s = std::numeric_limits<double>::infinity();
    const double x0 = static_cast<double>(cx) * cell_m_;
    const double y0 = static_cast<double>(cy) * cell_m_;
    if (m.velocity_mps.x > 0.0) {
      exit_s = std::min(exit_s,
                        (x0 + cell_m_ - m.position.x) / m.velocity_mps.x);
    } else if (m.velocity_mps.x < 0.0) {
      exit_s = std::min(exit_s, (x0 - m.position.x) / m.velocity_mps.x);
    }
    if (m.velocity_mps.y > 0.0) {
      exit_s = std::min(exit_s,
                        (y0 + cell_m_ - m.position.y) / m.velocity_mps.y);
    } else if (m.velocity_mps.y < 0.0) {
      exit_s = std::min(exit_s, (y0 - m.position.y) / m.velocity_mps.y);
    }
    if (exit_s < 0.0) exit_s = 0.0;  // numeric edge exactly on a boundary
    // Truncation rounds the deadline *down*: the re-check fires while the
    // radio is still inside its recorded cell, never after it left.
    const double exit_ns = exit_s * 1e9;
    const SimTime exit_t = exit_ns < 8e18
                               ? now + static_cast<SimTime>(exit_ns)
                               : kTimeNever;
    due = std::min(exit_t, m.until);
  }
  if (due == kTimeNever) return kTimeNever;
  // Progress guarantee: a deadline in the past (boundary rounding) retries
  // one tick ahead; a crossing costs at most a couple of re-checks.
  return std::max(due, now + 1);
}

void Channel::rebucket(std::uint32_t idx, SimTime now, bool initial) {
  const MotionState m = positions_.motion(radios_[idx]->id(), now);
  RadioMotion& rm = cells_[idx];
  const std::int32_t cx = cell_coord(m.position.x);
  const std::int32_t cy = cell_coord(m.position.y);
  if (initial) {
    grid_[cell_key(cx, cy)].push_back(idx);
  } else if (cx != rm.cx || cy != rm.cy) {
    std::vector<std::uint32_t>& old_cell = grid_[cell_key(rm.cx, rm.cy)];
    const auto it = std::find(old_cell.begin(), old_cell.end(), idx);
    if (it != old_cell.end()) {
      *it = old_cell.back();
      old_cell.pop_back();
    }
    grid_[cell_key(cx, cy)].push_back(idx);
    ++cache_stats_.cell_migrations;
  }
  rm.cx = cx;
  rm.cy = cy;
  rm.epoch = m.epoch;
  rm.velocity = m.velocity_mps;
  rm.ref_pos = m.position;
  rm.ref_t_s = time_to_seconds(now);
  rm.due = next_due(m, cx, cy, now);
  if (rm.due != kTimeNever) heap_push(rm.due, idx);
}

void Channel::ensure_incremental(SimTime now) {
  if (indexed_radios_ == radios_.size()) return;
  grid_.clear();
  migrate_heap_.clear();
  cells_.assign(radios_.size(), RadioMotion{});
  static_layout_.reset();
  audible_lists_.clear();
  for (std::uint32_t i = 0; i < radios_.size(); ++i) {
    rebucket(i, now, /*initial=*/true);
  }
  indexed_radios_ = radios_.size();
}

void Channel::drain_migrations(SimTime now) {
  while (!migrate_heap_.empty() && migrate_heap_.front().first <= now) {
    std::pop_heap(migrate_heap_.begin(), migrate_heap_.end(),
                  std::greater<>{});
    const auto [due, idx] = migrate_heap_.back();
    migrate_heap_.pop_back();
    if (cells_[idx].due != due) continue;  // superseded entry
    ++cache_stats_.migration_checks;
    rebucket(idx, now, /*initial=*/false);
  }
}

bool Channel::static_layout() {
  // Only drain_migrations() pushes deadlines, and only while popping one,
  // so once the heap is empty it stays empty until ensure_incremental()
  // rebuilds the index: the classification below is final.
  if (!migrate_heap_.empty()) return false;
  if (!static_layout_) {
    // A radio can leave the heap while still (imperceptibly slowly) moving
    // when its cell exit lies beyond the representable horizon; only a
    // layout where every radio is parked on a described segment is frozen.
    static_layout_ = std::all_of(cells_.begin(), cells_.end(),
                                 [](const RadioMotion& rm) {
                                   return rm.epoch != kMovingEpoch &&
                                          rm.velocity.x == 0.0 &&
                                          rm.velocity.y == 0.0;
                                 });
    if (*static_layout_) audible_lists_.assign(radios_.size(), AudibleList{});
  }
  return *static_layout_;
}

void Channel::collect_candidates(const geom::Vec2& tx_pos,
                                 std::vector<std::uint32_t>& out) const {
  // Unsorted: collect_audible() orders the (much smaller) audible subset,
  // which is where attach order actually matters.
  out.clear();
  if (radios_.size() <= kDirectScanRadios) {
    for (std::uint32_t i = 0; i < radios_.size(); ++i) out.push_back(i);
    return;
  }
  const std::int32_t cx = cell_coord(tx_pos.x);
  const std::int32_t cy = cell_coord(tx_pos.y);
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      const auto it = grid_.find(cell_key(cx + dx, cy + dy));
      if (it == grid_.end()) continue;
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
}

void Channel::collect_audible(std::uint32_t tx_idx, const geom::Vec2& tx_pos,
                              SimTime at, std::vector<AudibleLink>& out) {
  collect_candidates(tx_pos, candidates_scratch_);
  ++cache_stats_.candidate_sets;
  cache_stats_.candidates_seen += candidates_scratch_.size();
  out.clear();
  const double cs_threshold = prop_.cs_threshold_dbm();
  const double now_s = time_to_seconds(at);
  for (const std::uint32_t rx_idx : candidates_scratch_) {
    if (rx_idx == tx_idx) continue;
    // Predicted-position prefilter: drain_migrations() guarantees every
    // radio's recorded motion segment covers `at`, so ref + v*dt is the
    // candidate's position up to FP rounding. Beyond the slacked limit the
    // pair is provably inaudible without touching the radio or the
    // position provider.
    const RadioMotion& rm = cells_[rx_idx];
    const double dt = now_s - rm.ref_t_s;
    const double px = rm.ref_pos.x + rm.velocity.x * dt - tx_pos.x;
    const double py = rm.ref_pos.y + rm.velocity.y * dt - tx_pos.y;
    if (px * px + py * py > predict_limit_sq_) {
      ++cache_stats_.prefilter_rejects;
      continue;
    }
    // Exact power from exact positions, like the reference scan.
    ++cache_stats_.link_budget_misses;
    const double power = prop_.rx_power_dbm(
        tx_pos, positions_.position(radios_[rx_idx]->id(), at));
    if (power < cs_threshold) continue;  // inaudible
    out.push_back(AudibleLink{rx_idx, power});
  }
  // Power evaluation draws no randomness, so candidate order is free; only
  // the audible subset must be delivered in attach order (the fault RNG
  // stream is consumed per delivery, like the reference full scan).
  std::sort(out.begin(), out.end(),
            [](const AudibleLink& a, const AudibleLink& b) { return a.rx < b.rx; });
}

// ---------------------------------------------------------------------------

bool Channel::radios_within(NodeId center, double range_m, SimTime at,
                            std::vector<NodeId>& out) {
  out.clear();
  if (!positions_.piecewise_linear()) return false;
  if (at != sim_.now()) return false;  // migrations only move forward
  if (!(range_m >= 0.0) || range_m > cell_m_) return false;  // 3x3 probe
  const auto center_it = by_id_.find(center);
  if (center_it == by_id_.end()) return false;
  ensure_incremental(at);
  drain_migrations(at);
  const geom::Vec2 center_pos = positions_.position(center, at);
  const std::int32_t cx = cell_coord(center_pos.x);
  const std::int32_t cy = cell_coord(center_pos.y);
  const double range_sq = range_m * range_m;
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      const auto it = grid_.find(cell_key(cx + dx, cy + dy));
      if (it == grid_.end()) continue;
      for (const std::uint32_t idx : it->second) {
        if (idx == center_it->second) continue;
        const NodeId id = radios_[idx]->id();
        const geom::Vec2 d = positions_.position(id, at) - center_pos;
        if (d.dot(d) <= range_sq) out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return true;
}

std::size_t Channel::index_memory_bytes() const {
  std::size_t bytes = cells_.capacity() * sizeof(RadioMotion) +
                      migrate_heap_.capacity() * sizeof(migrate_heap_[0]) +
                      audible_lists_.capacity() * sizeof(AudibleList);
  for (const auto& [key, cell] : grid_) {
    bytes += sizeof(key) + cell.capacity() * sizeof(std::uint32_t);
  }
  for (const AudibleList& list : audible_lists_) {
    bytes += list.links.capacity() * sizeof(AudibleLink);
  }
  return bytes;
}

std::uint64_t Channel::transmit(Radio* tx, PayloadPtr payload, SimDuration airtime) {
  const std::uint64_t id = next_signal_id_++;
  const NodeId tx_id = tx->id();
  const SimTime start = sim_.now();
  const SimTime end = start + airtime;
  const geom::Vec2 tx_pos = positions_.position(tx_id, start);
  // The fault RNG stream is consumed only for enabled plans, keeping
  // fault-free runs bit-identical to a build without the injector.
  const bool faulty = faults_ != nullptr && faults_->enabled();
  const double base_rx_threshold = prop_.rx_threshold_dbm();
  const double capture_db = prop_.params().capture_threshold_db;

  std::vector<Radio*> receivers;
  if (!receiver_pool_.empty()) {
    receivers = std::move(receiver_pool_.back());
    receiver_pool_.pop_back();
  }

  // One Signal per transmission; each receiver sees it with its own power
  // (radios copy it only when they lock onto the frame).
  Signal signal{id, tx_id, std::move(payload), start, end, 0.0};
  auto deliver = [&](Radio* rx, double power) {
    receivers.push_back(rx);
    signal.rx_power_dbm = power;
    double rx_threshold = base_rx_threshold;
    if (faulty && power >= rx_threshold) {
      switch (faults_->decode_fate(tx_id, rx->id())) {
        case DecodeFate::kIntact:
          break;
        case DecodeFate::kLost:
          // Anonymous energy: audible for carrier sense, never decodable —
          // the monitor's undecodable-busy case, now on demand.
          rx_threshold = std::numeric_limits<double>::infinity();
          break;
        case DecodeFate::kCorrupted: {
          // Damaged bits are this receiver's alone: its own copy.
          Signal damaged = signal;
          damaged.payload = faults_->corrupt_payload(signal.payload);
          damaged.corrupted = true;
          rx->signal_start(damaged, rx_threshold, capture_db);
          return;
        }
      }
    }
    rx->signal_start(signal, rx_threshold, capture_db);
  };

  if (indexed()) {
    ensure_incremental(start);
    drain_migrations(start);
    const std::uint32_t tx_idx = tx->channel_index();
    if (static_layout()) {
      // Positions can never change again: the transmitter's audible list,
      // built once, is exactly what the candidate path would produce now.
      AudibleList& list = audible_lists_[tx_idx];
      const bool cached = list.built;
      if (!cached) {
        collect_audible(tx_idx, tx_pos, start, list.links);
        list.built = true;
      }
      receivers.reserve(list.links.size());
      for (const AudibleLink& link : list.links) {
        Radio* rx = radios_[link.rx];
        if (rx->in_outage()) continue;  // deaf: no energy arrives
        if (cached) ++cache_stats_.link_budget_hits;
        deliver(rx, link.power_dbm);
      }
    } else {
      // Take the scratch buffer: signal_start below can re-enter transmit(),
      // and the nested call must not rewrite the list this call iterates.
      std::vector<AudibleLink> audible = std::move(audible_scratch_);
      audible_scratch_ = {};
      collect_audible(tx_idx, tx_pos, start, audible);
      receivers.reserve(audible.size());
      for (const AudibleLink& link : audible) {
        Radio* rx = radios_[link.rx];
        if (rx->in_outage()) continue;  // deaf: no energy arrives
        deliver(rx, link.power_dbm);
      }
      audible.clear();
      audible_scratch_ = std::move(audible);
    }
  } else {
    // Reference path: exact original full scan (also the only correct path
    // under shadowing, where every delivery draws a shadowing deviate).
    ++cache_stats_.full_scans;
    const double cs_threshold = prop_.cs_threshold_dbm();
    receivers.reserve(radios_.size());
    for (Radio* rx : radios_) {
      if (rx == tx) continue;
      if (rx->in_outage()) continue;
      const geom::Vec2 rx_pos = positions_.position(rx->id(), start);
      const double power = prop_.rx_power_dbm(tx_pos, rx_pos);
      if (power < cs_threshold) continue;
      deliver(rx, power);
    }
  }

  // One end-of-air event finishes every delivery and the transmitter, in
  // the same relative order the per-receiver events used to run (they were
  // scheduled back-to-back at `end`, so no foreign event could interleave).
  // The emptied receiver list goes back to the pool afterwards.
  sim_.at(end, [this, tx, id, receivers = std::move(receivers)]() mutable {
    for (Radio* rx : receivers) rx->signal_end(id);
    tx->own_transmit_end(id);
    receivers.clear();
    if (receiver_pool_.size() < 64) receiver_pool_.push_back(std::move(receivers));
  });
  return id;
}

}  // namespace manet::phy
