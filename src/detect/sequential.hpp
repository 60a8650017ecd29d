// Sequential change detectors over the per-sample back-off deficit — the
// online alternative to the paper's fixed-size Wilcoxon window.
//
// Cao et al. ("Real-Time Misbehavior Detection in IEEE 802.11e Based
// WLANs", PAPERS.md) argue that batch tests are the wrong shape for online
// detection: a window must fill before it can flag, so time-to-detection
// is lower-bounded by the window length regardless of how blatant the
// cheat is. A sequential test instead updates a running score per sample
// and crosses a decision threshold as soon as the evidence suffices.
//
// Both detectors consume the same statistic the Wilcoxon path tests: the
// per-sample CW-normalized back-off deficit
//
//     d = x/(CW+1) - y/(CW+1) - margin
//
// where x is the dictated count, y the monitor's estimated countdown, and
// `margin` the permissible fraction (MonitorConfig::margin_fraction).
// Under H0 (honest sender, unbiased estimator) d has mean <= -margin; a
// cheater honoring only part of its dictated back-off shifts the mean up.
//
//  * CUSUM (Page's test):  S <- max(0, S + d - drift), flag at S >= h.
//    `drift` is the classical reference value k: it subtracts the
//    allowance per sample so honest noise cannot accumulate; h trades
//    detection delay against false alarms.
//
//  * Wald SPRT with Gaussian hypotheses d ~ N(mu0, sigma^2) vs
//    N(mu1, sigma^2): the log-likelihood ratio random walk
//        L <- L + (mu1 - mu0) * (2d - mu0 - mu1) / (2 sigma^2)
//    flags when L >= A = ln((1-beta)/alpha) and *accepts* H0 (restarting
//    the walk) when L <= B = ln(beta/(1-alpha)). Restart-on-accept turns
//    the one-shot SPRT into a repeated test with bounded memory, so a
//    late-onset cheat (adaptive attackers) is still caught.
//
// Scores map into the WindowResult decision stream as p_less =
// exp(-max(score, 0)): monotone in the evidence, 1.0 at zero score, and
// below any plausible p-value threshold once the native threshold is
// crossed — so the ROC scorer (detect/roc.hpp) sweeps sequential scores
// exactly like Wilcoxon p-values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace manet::detect {

/// Which statistical test closes a monitor's windows
/// (MonitorConfig::detector).
enum class DetectorKind : std::uint8_t { kWilcoxon, kCusum, kSprt };

/// Parse "wilcoxon" / "cusum" / "sprt" (throws util::ConfigError).
DetectorKind detector_from_name(const std::string& name);
const char* detector_name(DetectorKind kind);

struct CusumParams {
  /// Reference value k: per-sample allowance subtracted before
  /// accumulation. Half the smallest deficit worth detecting.
  double drift = 0.05;
  /// Decision threshold h on the accumulated deficit (in CW fractions).
  double threshold = 2.0;
};

struct SprtParams {
  /// Deficit mean under H0 (honest): the margin shift makes honest
  /// deficits negative on average.
  double mean_honest = -0.10;
  /// Deficit mean under H1 (the smallest cheat worth detecting).
  double mean_cheat = 0.15;
  /// Common standard deviation of the per-sample deficit.
  double sigma = 0.25;
  double alpha = 0.01;  // target false-alarm probability per test
  double beta = 0.05;   // target miss probability per test
};

/// Struct-of-arrays bank of sequential detectors: one slot per CUSUM/SPRT
/// monitor lane, each holding the detector's precomputed coefficients and
/// running score in flat parallel arrays. The one-object-per-detector
/// tests in tests/reference_sequential.* are the oracle: a slot's Step
/// stream is bit-identical to theirs (same compound-assignment grouping).
/// Slots are independent: update order across slots is unobservable.
class SequentialBank {
 public:
  struct Step {
    bool flag = false;    // decision threshold crossed on this sample
    double score = 0.0;   // running score after the sample
  };

  /// Appends a detector slot and returns its index. kWilcoxon has no
  /// per-sample state and is not a valid slot kind (throws
  /// util::ConfigError).
  std::size_t add(DetectorKind kind, const CusumParams& cusum,
                  const SprtParams& sprt);

  /// Absorbs one deficit sample into `slot`: CUSUM S <- max(0, S + d -
  /// drift), or the SPRT walk with its restart-on-accept. When `flag`
  /// comes back true the caller emits a verdict and resets the slot.
  Step update(std::size_t slot, double deficit);

  void reset(std::size_t slot) { state_[slot] = 0.0; }
  /// The clamped running score, max(score, 0).
  double score(std::size_t slot) const {
    return state_[slot] > 0.0 ? state_[slot] : 0.0;
  }
  std::size_t size() const { return kind_.size(); }

 private:
  std::vector<DetectorKind> kind_;
  std::vector<double> state_;  // CUSUM score / SPRT log-likelihood ratio
  std::vector<double> a_;      // CUSUM drift / SPRT step gain
  std::vector<double> b_;      // CUSUM threshold / SPRT step center
  std::vector<double> upper_;  // SPRT accept-H1 bound (unused for CUSUM)
  std::vector<double> lower_;  // SPRT accept-H0 bound (unused for CUSUM)
};

}  // namespace manet::detect
