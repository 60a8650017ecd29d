// Adversary zoo v2 — attacker models beyond the paper's solo stationary
// back-off cheat (ROADMAP item 3; threat models from Jamal et al.'s RTS
// flooding and the sybil/collusion idioms of VANET misbehavior work).
//
//  * ColludingBackoff — a coordinated group alternates aggressive/honest
//    phases (one member cheats at a time, rotating on a shared schedule),
//    so each member's per-monitor Wilcoxon sample is diluted with honest
//    behavior and stays under any single monitor's threshold for longer.
//  * AdaptiveBackoff — behaves honestly while it believes a monitor is
//    active: during a configurable probation window after startup, and for
//    a vigilance period after overhearing any frame from a suspected
//    monitor; cheats the rest of the time.
//  * SybilBackoff/SybilAnnounce — one radio, many claimed MAC identities.
//    Each packet is sent under the next fake identity with that identity's
//    own verifiable PRS (announced offsets stay continuous per identity),
//    so no single identity accumulates a flaggable Wilcoxon window at the
//    solo rate. The back-off cheat itself is PM-style against the claimed
//    identity's dictated value.
//  * RtsFlooder — MAC-layer DoS: saturates the channel with bogus RTS
//    frames (full-exchange NAV reservations, no DATA ever follows),
//    bypassing carrier sense and back-off entirely.
//
// All attackers are deterministic given their seeds and the simulated
// channel history: same scenario seed, same frame trace.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mac/backoff.hpp"
#include "mac/dcf.hpp"
#include "mac/frame.hpp"
#include "mac/params.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace manet::mac {

/// Base of the fake-identity address space used by sybil attackers in the
/// experiment harnesses: far above any real node id, below the reserved
/// broadcast/invalid addresses.
inline constexpr NodeId kSybilAliasBase = 1u << 20;

// --- Colluding group ---------------------------------------------------------

/// Shared rotation schedule of a colluding group: at any instant exactly
/// one member (round-robin by phase) is in its aggressive phase. Pure
/// function of time — members need no runtime coordination channel, which
/// is exactly what makes collusion cheap to deploy.
struct CollusionSchedule {
  std::uint32_t group_size = 2;
  SimDuration phase = 2 * kSecond;  // length of one member's aggressive turn

  std::uint32_t cheater_at(SimTime now) const {
    if (group_size <= 1) return 0;
    if (now < 0) now = 0;
    const SimDuration p = phase > 0 ? phase : 1;
    return static_cast<std::uint32_t>((now / p) % group_size);
  }
};

/// PM-style cheat applied only during this member's aggressive phase of
/// the shared schedule; dictated (honest) back-off otherwise.
class ColludingBackoff : public BackoffPolicy {
 public:
  ColludingBackoff(std::shared_ptr<const CollusionSchedule> schedule,
                   std::uint32_t member, double percent)
      : schedule_(std::move(schedule)), member_(member), percent_(percent) {}

  std::uint32_t used_slots(const BackoffContext& ctx) override;
  std::string name() const override {
    return "colluding_" + std::to_string(member_) + "of" +
           std::to_string(schedule_->group_size);
  }

  bool aggressive_at(SimTime now) const {
    return schedule_->cheater_at(now) == member_;
  }

 private:
  std::shared_ptr<const CollusionSchedule> schedule_;
  std::uint32_t member_;
  double percent_;
};

// --- Adaptive cheater --------------------------------------------------------

/// Cheats PM-style only when it believes no monitor is watching. Register
/// the policy as a MacObserver on the same DcfMac (before handing over
/// ownership) so it overhears the air; any decoded frame transmitted by a
/// suspected monitor restarts the vigilance clock.
class AdaptiveBackoff : public BackoffPolicy, public MacObserver {
 public:
  /// Honest until `probation_until` (absolute sim time), and for
  /// `vigilance` after each frame heard from a node in `suspects`; cheats
  /// by `percent` otherwise.
  AdaptiveBackoff(double percent, SimTime probation_until, SimDuration vigilance,
                  std::vector<NodeId> suspects = {})
      : percent_(percent),
        probation_until_(probation_until),
        vigilance_(vigilance),
        suspects_(std::move(suspects)) {}

  std::uint32_t used_slots(const BackoffContext& ctx) override;
  std::string name() const override { return "adaptive"; }

  // MacObserver:
  void on_frame(const Frame& frame, SimTime start, SimTime end) override;

  /// True when the policy would behave honestly at `now`.
  bool lying_low(SimTime now) const {
    if (now < probation_until_) return true;
    return last_monitor_heard_ != kTimeNever && vigilance_ > 0 &&
           now - last_monitor_heard_ < vigilance_;
  }

 private:
  double percent_;
  SimTime probation_until_;
  SimDuration vigilance_;
  std::vector<NodeId> suspects_;
  SimTime last_monitor_heard_ = kTimeNever;  // kTimeNever: no suspect heard yet
};

// --- Sybil identities --------------------------------------------------------

/// Shared state of a sybil attacker: the fake identities, each with its
/// own verifiable PRS (seeded by the fake MAC, exactly as an honest node
/// would be) and its own announced-offset counter. The back-off and
/// announce policies below both reference one SybilState so the announced
/// fields and the counted-down value describe the same claimed identity.
class SybilState {
 public:
  SybilState(std::vector<NodeId> aliases, const DcfParams& params);

  /// Positions the state for the RTS of `attempt` (1-based). A fresh
  /// packet (attempt 1) rotates to the next identity; every attempt
  /// consumes the current identity's next sequence offset, keeping the
  /// per-identity announced stream continuous. Idempotent until the
  /// matching announced() consumes the position.
  void begin_attempt(std::uint32_t attempt);

  /// Marks the current position consumed (called once per RTS).
  void consume() { positioned_ = false; }

  NodeId current_identity() const;
  std::uint64_t current_seq() const { return current_seq_; }
  std::uint32_t dictated_slots() const { return dictated_; }
  std::size_t identity_count() const { return identities_.size(); }

 private:
  struct Identity {
    NodeId id;
    VerifiableBackoff prs;
    std::uint64_t next_seq = 0;
  };
  std::vector<Identity> identities_;
  std::size_t current_ = 0;
  bool any_packet_ = false;
  bool positioned_ = false;
  std::uint64_t current_seq_ = 0;
  std::uint32_t dictated_ = 0;
};

/// PM-style cheat against the *claimed identity's* dictated value.
class SybilBackoff : public BackoffPolicy {
 public:
  SybilBackoff(std::shared_ptr<SybilState> state, double percent)
      : state_(std::move(state)), percent_(percent) {}

  std::uint32_t used_slots(const BackoffContext& ctx) override;
  std::string name() const override {
    return "sybil_" + std::to_string(state_->identity_count());
  }

 private:
  std::shared_ptr<SybilState> state_;
  double percent_;
};

/// Announces the claimed identity's (continuous) offset stream and stamps
/// the claimed MAC on the exchange.
class SybilAnnounce : public AnnouncePolicy {
 public:
  explicit SybilAnnounce(std::shared_ptr<SybilState> state)
      : state_(std::move(state)) {}

  AnnouncedFields announced(const AnnounceContext& ctx) override;
  std::string name() const override { return "sybil"; }

 private:
  std::shared_ptr<SybilState> state_;
};

// --- RTS flood DoS -----------------------------------------------------------

struct RtsFloodConfig {
  /// Mean bogus-RTS rate (exponential inter-arrivals). At the default the
  /// per-RTS full-exchange NAV (~3 ms at 512-byte payloads) overlaps the
  /// next RTS, keeping every overhearer's virtual carrier pinned busy.
  double rate_pps = 1000.0;
  /// Receiver address stamped on the bogus RTSes (a real neighbor makes
  /// the victim burn CTS responses too).
  NodeId victim = kInvalidNode;
  /// Payload size the NAV reservation pretends to cover.
  std::uint32_t data_bytes = 512;
  std::uint64_t seed = 1;
};

/// Saturates the channel with bogus RTS frames straight from the radio:
/// no carrier sense, no back-off, no DATA ever follows. Announced fields
/// are kept self-consistent (offsets advance by one, attempt 1, fresh
/// digest per RTS) so detection must come from timing, not bookkeeping.
/// Coexists with the node's DcfMac on the same radio; transmissions are
/// skipped (and rescheduled) while the radio is already sending.
class RtsFlooder {
 public:
  RtsFlooder(sim::Simulator& sim, phy::Radio& radio, const DcfParams& params,
             const RtsFloodConfig& config);

  /// Schedules flooding over [at, stop).
  void start(SimTime at, SimTime stop);

  std::uint64_t rts_sent() const { return sent_; }

 private:
  void fire();
  void schedule_next();

  sim::Simulator& sim_;
  phy::Radio& radio_;
  DcfParams params_;
  RtsFloodConfig config_;
  util::Xoshiro256ss rng_;
  SimTime stop_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t payload_id_ = 1;
  std::uint64_t sent_ = 0;
};

/// Shared PM scaling: slots actually counted for a dictated value under a
/// percentage-of-misbehavior cheat (0 = honest, 100 = never backs off).
inline std::uint32_t pm_scaled_slots(std::uint32_t dictated, double percent) {
  const double scaled = static_cast<double>(dictated) * (100.0 - percent) / 100.0;
  return static_cast<std::uint32_t>(scaled + 0.5);
}

}  // namespace manet::mac
