#include "reference_sequential.hpp"

#include <cmath>

namespace manet::detect {

SequentialTest::Step CusumTest::update(double deficit) {
  score_ += deficit - params_.drift;
  if (score_ < 0.0) score_ = 0.0;
  return Step{score_ >= params_.threshold, score_};
}

SprtTest::SprtTest(const SprtParams& params) {
  const double var = params.sigma * params.sigma;
  step_gain_ = (params.mean_cheat - params.mean_honest) / var;
  step_center_ = 0.5 * (params.mean_honest + params.mean_cheat);
  upper_ = std::log((1.0 - params.beta) / params.alpha);
  lower_ = std::log(params.beta / (1.0 - params.alpha));
}

SequentialTest::Step SprtTest::update(double deficit) {
  llr_ += step_gain_ * (deficit - step_center_);
  if (llr_ >= upper_) return Step{true, score()};
  // Accepting H0 restarts the walk.
  if (llr_ <= lower_) llr_ = 0.0;
  return Step{false, score()};
}

std::unique_ptr<SequentialTest> make_sequential_test(DetectorKind kind,
                                                     const CusumParams& cusum,
                                                     const SprtParams& sprt) {
  switch (kind) {
    case DetectorKind::kWilcoxon: return nullptr;
    case DetectorKind::kCusum: return std::make_unique<CusumTest>(cusum);
    case DetectorKind::kSprt: return std::make_unique<SprtTest>(sprt);
  }
  return nullptr;
}

}  // namespace manet::detect
