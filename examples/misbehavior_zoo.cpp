// A zoo of MAC-layer cheaters and the checks that catch them.
//
// Four stations on a line build a classic hidden-terminal setup:
//
//   S(0m) ---- R(200m) .... C(600m) -- D(800m)
//
// S streams to R; C streams to D. S and C cannot sense each other (600 m >
// 550 m sensing range), so their transmissions collide at R and S is forced
// into retransmissions — the habitat of the retry-based cheats. R monitors
// S with the full framework. One attacker per row:
//   * PM attacker             -> impossible back-off + Wilcoxon
//   * constant tiny back-off  -> impossible back-off + Wilcoxon
//   * no exponential back-off -> impossible back-off on retries
//   * frozen SeqOff#          -> deterministic SeqOff continuity check
//   * stuck Attempt# (+ no CW doubling: the "retry cheater")
//                             -> deterministic MD5/Attempt check
// plus the adversary zoo v2 (src/mac/attackers.hpp):
//   * colluding member        -> Wilcoxon, slower (honest turns dilute it)
//   * adaptive cheater        -> Wilcoxon, only after its probation ends
//   * sybil (3 identities)    -> per-identity Wilcoxon, one monitor each
//   * RTS flood DoS           -> anchorless RTS-gap bound (deterministic)
// plus one non-attacker: an honest sender observed through 15% frame loss,
// which must trip zero deterministic checks (misses resync, not violate).
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "detect/monitor.hpp"
#include "mac/attackers.hpp"
#include "mac/dcf.hpp"
#include "phy/channel.hpp"
#include "phy/cs_timeline.hpp"
#include "phy/impairments.hpp"
#include "sim/simulator.hpp"

using namespace manet;

namespace {

struct FixedPositions : phy::PositionProvider {
  geom::Vec2 position(NodeId node, SimTime) const override {
    static constexpr double xs[] = {0, 200, 600, 800};
    return {xs[node], 0};
  }
};

/// Handed to each entry's install hook: the attacker's MAC/radio plus the
/// knobs the v2 attackers need (extra monitored identities, a flooder slot,
/// whether the attacker still sources DATA traffic).
struct ZooContext {
  sim::Simulator& sim;
  mac::DcfMac& attacker;
  phy::Radio& radio;
  const mac::DcfParams& params;
  NodeId monitor_node;             // R: who watches (and gets flooded)
  SimTime stop;                    // end of the run
  std::vector<NodeId> targets;     // identities R monitors (default {S})
  bool feed_attacker = true;       // false: S sends no DATA (pure flood)
  bool gap_bound = false;          // monitors enable the RTS-gap bound
  std::unique_ptr<mac::RtsFlooder> flooder;  // kept alive for the run
};

struct ZooEntry {
  std::string name;
  std::function<void(ZooContext&)> install;
  phy::FaultPlan faults = {};  // disabled by default
};

void run(const ZooEntry& entry) {
  sim::Simulator sim;
  mac::DcfParams params;
  phy::Propagation prop(phy::PropagationParams{}, /*shadowing_seed=*/1);
  FixedPositions positions;
  phy::Channel channel(sim, prop, positions);
  phy::FaultInjector faults(entry.faults, /*seed=*/1);
  faults.set_corruptor(mac::corrupt_rts_fields);

  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::vector<std::unique_ptr<mac::DcfMac>> macs;
  std::vector<std::unique_ptr<phy::CsTimeline>> timelines;
  for (NodeId i = 0; i < 4; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(i, channel));
    macs.push_back(std::make_unique<mac::DcfMac>(sim, *radios.back(), params));
    timelines.push_back(std::make_unique<phy::CsTimeline>());
    radios.back()->add_listener(timelines.back().get());
  }
  const NodeId s = 0, r = 1, c = 2;
  const SimTime stop = seconds_to_time(60);
  ZooContext ctx{sim, *macs[s], *radios[s], params, r, stop, {s},
                 /*feed_attacker=*/true, /*gap_bound=*/false, /*flooder=*/nullptr};
  entry.install(ctx);
  if (entry.faults.enabled()) channel.install_faults(faults);

  // One monitor per claimed identity (one for everyone except the sybil).
  detect::MonitorConfig mc;
  mc.sample_size = 10;
  mc.separation_m = 200;
  mc.rts_gap_bound = ctx.gap_bound;
  detect::MonitorFactory factory(sim, *macs[r], *timelines[r]);
  factory.with_config(mc);
  std::vector<std::unique_ptr<detect::Monitor>> monitors;
  for (NodeId target : ctx.targets) {
    monitors.push_back(factory.watch(target));
  }

  // Keep S saturated and C moderately loaded (a saturated hidden terminal
  // would jam R completely).
  std::uint64_t next_id = 1;
  std::function<void()> feeder = [&] {
    if (ctx.feed_attacker) {
      while (macs[s]->queue_length() < 20) macs[s]->enqueue(r, 512, next_id++);
    }
    macs[c]->enqueue(3, 512, next_id++);
    if (sim.now() < stop) sim.after(25 * kMillisecond, feeder);
  };
  sim.at(0, feeder);
  sim.run_until(stop);

  // Sum the per-identity monitors; the first flag is the earliest any of
  // them raised (the relevant time-to-detection for a sybil).
  detect::MonitorStats st;
  std::uint64_t stat_flags = 0, windows = 0, flagged = 0;
  for (const auto& monitor : monitors) {
    const detect::MonitorStats& ms = monitor->stats();
    st.impossible_backoff += ms.impossible_backoff;
    st.seq_off_violations += ms.seq_off_violations;
    st.attempt_violations += ms.attempt_violations;
    st.seq_off_resyncs += ms.seq_off_resyncs;
    if (ms.first_flag_time < st.first_flag_time) {
      st.first_flag_time = ms.first_flag_time;
    }
    windows += ms.windows;
    flagged += ms.flagged_windows;
    for (const auto& w : monitor->windows()) stat_flags += w.statistical_flag;
  }
  const double flag_rate = windows ? 100.0 * flagged / windows : 0.0;

  char first_flag[16] = "   -  ";
  if (st.first_flag_time != kTimeNever) {
    std::snprintf(first_flag, sizeof first_flag, "%5.1fs",
                  time_to_seconds(st.first_flag_time));
  }
  std::printf("%-16s windows %4llu  flagged %5.1f%%  first %s  | wilcoxon %4llu  "
              "impossible %4llu  seqoff %4llu  attempt %4llu  resyncs %4llu  "
              "(S retries %llu)\n",
              entry.name.c_str(), static_cast<unsigned long long>(windows),
              flag_rate, first_flag,
              static_cast<unsigned long long>(stat_flags),
              static_cast<unsigned long long>(st.impossible_backoff),
              static_cast<unsigned long long>(st.seq_off_violations),
              static_cast<unsigned long long>(st.attempt_violations),
              static_cast<unsigned long long>(st.seq_off_resyncs),
              static_cast<unsigned long long>(macs[s]->stats().retries));
}

}  // namespace

int main() {
  std::printf("MAC misbehavior zoo: hidden-terminal line S-R...C-D, monitor at R\n\n");
  const ZooEntry entries[] = {
      {"honest", [](ZooContext&) {}},
      {"pm_50",
       [](ZooContext& z) {
         z.attacker.set_backoff_policy(std::make_unique<mac::PercentMisbehavior>(50));
       }},
      {"pm_90",
       [](ZooContext& z) {
         z.attacker.set_backoff_policy(std::make_unique<mac::PercentMisbehavior>(90));
       }},
      {"constant_1",
       [](ZooContext& z) {
         z.attacker.set_backoff_policy(std::make_unique<mac::ConstantBackoff>(1));
       }},
      {"no_exp_backoff",
       [](ZooContext& z) {
         z.attacker.set_backoff_policy(std::make_unique<mac::NoExponentialBackoff>(31));
       }},
      {"frozen_seq_off",
       [](ZooContext& z) {
         z.attacker.set_announce_policy(std::make_unique<mac::FrozenSeqOffAnnounce>(3));
       }},
      // The realistic retry cheater: never doubles its contention window
      // AND always announces Attempt #1 so the timing matches the
      // announcement. Only the MD5/Attempt retransmission check can see it.
      {"retry_cheater",
       [](ZooContext& z) {
         z.attacker.set_backoff_policy(std::make_unique<mac::NoExponentialBackoff>(31));
         z.attacker.set_announce_policy(std::make_unique<mac::StuckAttemptAnnounce>());
       }},
      // Colluding member: one of a group of two that takes turns cheating
      // (2 s turns), so only half its windows carry the PM-90 signature —
      // same Wilcoxon check, later first flag than solo pm_90.
      {"colluding_1of2",
       [](ZooContext& z) {
         auto schedule = std::make_shared<mac::CollusionSchedule>();
         schedule->group_size = 2;
         schedule->phase = 2 * kSecond;
         z.attacker.set_backoff_policy(
             std::make_unique<mac::ColludingBackoff>(schedule, 0, 90));
       }},
      // Adaptive cheater: honest for a 30 s probation (half the run), then
      // PM-90. The first flag can only land in the second half.
      {"adaptive_30s",
       [](ZooContext& z) {
         auto policy = std::make_unique<mac::AdaptiveBackoff>(
             90, seconds_to_time(30), /*vigilance=*/0,
             std::vector<NodeId>{z.monitor_node});
         z.attacker.add_observer(policy.get());
         z.attacker.set_backoff_policy(std::move(policy));
       }},
      // Sybil: one radio, three claimed identities, PM-90 against each
      // claimed identity's own verifiable PRS. R runs one monitor per
      // claimed identity; each accumulates windows at a third of the rate.
      {"sybil_3ids",
       [](ZooContext& z) {
         std::vector<NodeId> aliases;
         for (NodeId i = 0; i < 3; ++i) aliases.push_back(mac::kSybilAliasBase + i);
         for (NodeId alias : aliases) z.attacker.add_identity_alias(alias);
         auto state = std::make_shared<mac::SybilState>(aliases, z.params);
         z.attacker.set_backoff_policy(std::make_unique<mac::SybilBackoff>(state, 90));
         z.attacker.set_announce_policy(std::make_unique<mac::SybilAnnounce>(state));
         z.targets = aliases;
       }},
      // RTS flood DoS: S sources no DATA at all; a flooder on S's radio
      // sprays bogus RTSes at R. Without an exchange there is never an
      // anchor, so only the anchorless RTS-gap bound can see it.
      {"rts_flood",
       [](ZooContext& z) {
         z.feed_attacker = false;
         z.gap_bound = true;
         mac::RtsFloodConfig fc;
         fc.victim = z.monitor_node;
         fc.seed = 7;
         z.flooder = std::make_unique<mac::RtsFlooder>(z.sim, z.radio, z.params, fc);
         z.flooder->start(0, z.stop);
       }},
      // Honest sender behind a 15% lossy channel: the monitor misses RTSs
      // but must resynchronize, not accuse — zero deterministic flags and a
      // flag rate no worse than the significance level allows.
      {"lossy_honest_15", [](ZooContext&) {},
       [] {
         phy::FaultPlan plan;
         plan.loss_probability = 0.15;
         return plan;
       }()},
  };
  for (const auto& e : entries) run(e);
  std::printf("\nEvery cheating strategy trips at least one check; the honest "
              "node trips none — even when 15%% of its frames are lost.\n");
  return 0;
}
