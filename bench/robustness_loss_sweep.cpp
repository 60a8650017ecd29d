// Robustness: detection and false-alarm rates vs monitor frame loss.
//
// The paper evaluates detection over a clean channel; this sweep injects
// i.i.d. decode failures (plus a trickle of field corruption) between the
// tagged sender and its monitor and asks two questions:
//  * does an honest sender stay unflagged when the monitor misses frames
//    (false-alarm rate bounded near alpha)?
//  * how gracefully does detection of a PM attacker degrade as the monitor
//    sees fewer and fewer of its RTSs?
//
// The loss=0 row runs with no fault plan installed at all, so the clean
// baseline is bit-identical to the pre-impairment pipeline. Each loss
// point spawns an honest and an attacker sweep point; all trials share
// the experiment engine's work queue (--threads).
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "detect/experiment.hpp"

using namespace manet;

int main(int argc, char** argv) {
  bench::FlagSet flags(
      "Robustness: detection / false-alarm rate vs monitor frame loss.");
  flags.add_double_list("losses", "0,0.05,0.1,0.2,0.3", "frame decode-failure probabilities swept");
  flags.add_double("pm", 50, "attacker percentage of misbehavior");
  flags.add_double("corrupt", 0.02, "field-corruption probability (applied whenever loss > 0)");
  flags.add_double("load", 0.6, "target traffic intensity");
  flags.add_count("sample_size", 50, "Wilcoxon window size");
  flags.add_double("sim_time", 200, "simulated seconds per point");
  flags.add_int("runs", 2, "independent runs per point (consecutive seeds)");
  flags.add_int("seed", 401, "base random seed");
  flags.add_double("alpha", 0.01, "significance level for rejecting H0");
  flags.add_double("margin", 0.10, "permissible back-off deficit (fraction of expected mean)");
  flags.add_engine_flags();
  flags.parse_or_exit(argc, argv);

  const auto losses = flags.get_double_list("losses");
  const double pm = flags.get_double("pm");
  const double corrupt = flags.get_double("corrupt");
  const int runs = static_cast<int>(flags.get_int("runs"));

  bench::print_header(
      "Robustness: detection under lossy observation",
      "honest false alarms stay near alpha at every loss rate; PM detection "
      "degrades gracefully (within ~10 points of clean at 10% loss)");

  net::ScenarioConfig scenario;  // Table-1 grid defaults
  scenario.sim_seconds = flags.get_double("sim_time");
  scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  exp::Engine engine = flags.make_engine();
  const auto sink = flags.make_sink();
  bench::RateCache rates(scenario);
  const double rate = rates.rate_for(flags.get_double("load"));

  // Two sweep points per loss value: honest (PM=0) and attacker.
  std::vector<detect::MultiDetectionConfig> points;
  for (double loss : losses) {
    detect::MultiDetectionConfig cfg;
    cfg.scenario = scenario;
    if (loss > 0.0) {
      cfg.scenario.faults.loss_probability = loss;
      cfg.scenario.faults.corrupt_probability = corrupt;
    }
    cfg.rate_pps = rate;
    detect::MonitorConfig m;
    m.sample_size = static_cast<std::size_t>(flags.get_int("sample_size"));
    m.alpha = flags.get_double("alpha");
    m.margin_fraction = flags.get_double("margin");
    m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;  // grid, Section 5
    m.fixed_contenders = 20.0;
    cfg.monitors = {m};

    cfg.pm = 0.0;
    points.push_back(cfg);  // honest
    cfg.pm = pm;
    points.push_back(cfg);  // attacker
  }

  const auto sweep_start = std::chrono::steady_clock::now();
  const auto results = detect::run_multi_detection_sweep(points, runs, engine);
  const double sweep_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start)
          .count();

  std::printf("\n  %-6s  %-22s  %-22s  %s\n", "loss",
              "honest FA rate (win)", "pm detect rate (win)",
              "resyncs/lost/viol (attacker)");

  for (std::size_t i = 0; i < losses.size(); ++i) {
    const auto& honest = results[2 * i].per_config.at(0);
    const auto& attacker = results[2 * i + 1].per_config.at(0);
    std::printf("  %-6.2f  %6.3f (%4llu)         %6.3f (%4llu)         "
                "%llu/%llu/%llu\n",
                losses[i], honest.detection_rate,
                static_cast<unsigned long long>(honest.windows),
                attacker.detection_rate,
                static_cast<unsigned long long>(attacker.windows),
                static_cast<unsigned long long>(attacker.stats.seq_off_resyncs),
                static_cast<unsigned long long>(attacker.stats.frames_lost),
                static_cast<unsigned long long>(
                    attacker.stats.seq_off_violations +
                    attacker.stats.attempt_violations));
    std::fflush(stdout);

    exp::Record rec;
    rec.add("bench", "robustness_loss_sweep")
        .add("loss", losses[i])
        .add("corrupt", losses[i] > 0.0 ? corrupt : 0.0)
        .add("pm", pm)
        .add("load", flags.get_double("load"))
        .add("rate_pps", rate)
        .add("runs", runs)
        .add("sim_time_s", flags.get_double("sim_time"))
        .add("honest_windows", honest.windows)
        .add("honest_false_alarm_rate", honest.detection_rate)
        .add("attacker_windows", attacker.windows)
        .add("attacker_detection_rate", attacker.detection_rate)
        .add("attacker_seq_off_resyncs", attacker.stats.seq_off_resyncs)
        .add("attacker_frames_lost", attacker.stats.frames_lost)
        .add("attacker_violations", attacker.stats.seq_off_violations +
                                        attacker.stats.attempt_violations)
        .add("wall_seconds",
             results[2 * i].wall_seconds + results[2 * i + 1].wall_seconds)
        .add("threads", engine.threads());
    sink->record(rec);
  }
  sink->flush();
  std::printf("\n# sweep wall-clock: %.2f s (%u threads, %zu points x %d runs)\n",
              sweep_wall, engine.threads(), points.size(), runs);
  return 0;
}
