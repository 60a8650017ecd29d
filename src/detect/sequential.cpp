#include "detect/sequential.hpp"

#include <cmath>

#include "util/config.hpp"

namespace manet::detect {

DetectorKind detector_from_name(const std::string& name) {
  if (name == "wilcoxon") return DetectorKind::kWilcoxon;
  if (name == "cusum") return DetectorKind::kCusum;
  if (name == "sprt") return DetectorKind::kSprt;
  throw util::ConfigError("'" + name +
                          "' is not a detector (wilcoxon, cusum, sprt)");
}

const char* detector_name(DetectorKind kind) {
  switch (kind) {
    case DetectorKind::kWilcoxon: return "wilcoxon";
    case DetectorKind::kCusum: return "cusum";
    case DetectorKind::kSprt: return "sprt";
  }
  return "?";
}

std::size_t SequentialBank::add(DetectorKind kind, const CusumParams& cusum,
                                const SprtParams& sprt) {
  if (kind == DetectorKind::kWilcoxon) {
    throw util::ConfigError("wilcoxon detectors have no sequential-bank slot");
  }
  const std::size_t slot = kind_.size();
  kind_.push_back(kind);
  state_.push_back(0.0);
  if (kind == DetectorKind::kCusum) {
    a_.push_back(cusum.drift);
    b_.push_back(cusum.threshold);
    upper_.push_back(0.0);
    lower_.push_back(0.0);
  } else {
    // (mu1 - mu0) / sigma^2, (mu0 + mu1) / 2, A = ln((1-beta)/alpha),
    // B = ln(beta/(1-alpha)).
    const double var = sprt.sigma * sprt.sigma;
    a_.push_back((sprt.mean_cheat - sprt.mean_honest) / var);
    b_.push_back(0.5 * (sprt.mean_honest + sprt.mean_cheat));
    upper_.push_back(std::log((1.0 - sprt.beta) / sprt.alpha));
    lower_.push_back(std::log(sprt.beta / (1.0 - sprt.alpha)));
  }
  return slot;
}

SequentialBank::Step SequentialBank::update(std::size_t slot, double deficit) {
  if (kind_[slot] == DetectorKind::kCusum) {
    // The compound `+=` keeps the FP grouping s + (d - k).
    double s = state_[slot];
    s += deficit - a_[slot];
    if (s < 0.0) s = 0.0;
    state_[slot] = s;
    return Step{s >= b_[slot], s};
  }
  double llr = state_[slot];
  llr += a_[slot] * (deficit - b_[slot]);
  state_[slot] = llr;
  if (llr >= upper_[slot]) return Step{true, llr > 0.0 ? llr : 0.0};
  // Accepting H0 restarts the walk: without the restart a long honest
  // prefix would bank unbounded negative credit and mask a later cheat.
  if (llr <= lower_[slot]) {
    state_[slot] = 0.0;
    llr = 0.0;
  }
  return Step{false, llr > 0.0 ? llr : 0.0};
}

}  // namespace manet::detect
