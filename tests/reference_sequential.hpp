// One-object-per-detector CUSUM and SPRT tests (test-only oracle for
// detect::SequentialBank, which runs every sequential detector of a
// MonitorBatch as a slot of flat arrays; detect/sequential.hpp describes
// both tests).
#pragma once

#include <memory>

#include "detect/sequential.hpp"

namespace manet::detect {

/// One sequential test instance (per monitor; the reference monitor owns
/// its score state just like its Wilcoxon sample buffer).
class SequentialTest {
 public:
  using Step = SequentialBank::Step;

  virtual ~SequentialTest() = default;
  /// Absorbs one deficit sample. When `flag` comes back true the caller
  /// is expected to emit a verdict and reset() for the next epoch.
  virtual Step update(double deficit) = 0;
  virtual void reset() = 0;
  virtual double score() const = 0;
};

class CusumTest : public SequentialTest {
 public:
  explicit CusumTest(const CusumParams& params) : params_(params) {}
  Step update(double deficit) override;
  void reset() override { score_ = 0.0; }
  double score() const override { return score_; }

 private:
  CusumParams params_;
  double score_ = 0.0;
};

class SprtTest : public SequentialTest {
 public:
  explicit SprtTest(const SprtParams& params);
  Step update(double deficit) override;
  void reset() override { llr_ = 0.0; }
  /// The clamped LLR: accepts reset the walk, so the reported score never
  /// goes negative (p_less = exp(-score) stays <= 1).
  double score() const override { return llr_ > 0.0 ? llr_ : 0.0; }

 private:
  double step_gain_ = 0.0;    // (mu1 - mu0) / sigma^2
  double step_center_ = 0.0;  // (mu0 + mu1) / 2
  double upper_ = 0.0;        // A = ln((1-beta)/alpha)
  double lower_ = 0.0;        // B = ln(beta/(1-alpha))
  double llr_ = 0.0;
};

/// Factory for MonitorConfig::detector; returns nullptr for kWilcoxon
/// (the batch path needs no per-sample state).
std::unique_ptr<SequentialTest> make_sequential_test(
    DetectorKind kind, const CusumParams& cusum, const SprtParams& sprt);

}  // namespace manet::detect
