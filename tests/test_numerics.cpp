// Regression, root finding and Nelder–Mead.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/optimize.h"
#include "stats/regression.h"
#include "stats/root_find.h"

namespace psnt::stats {
namespace {

TEST(Regression, RecoversExactLine) {
  std::vector<double> xs{0, 1, 2, 3, 4};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(2.5 * x - 1.0);
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.max_abs_residual, 0.0, 1e-12);
}

TEST(Regression, NoisyLineStillHighR2) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i * 0.1);
    ys.push_back(3.0 * i * 0.1 + 0.5 + 0.01 * std::sin(i * 1.3));
  }
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 0.02);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(Regression, PredictUsesFit) {
  std::vector<double> xs{0, 1};
  std::vector<double> ys{1, 3};
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.predict(2.0), 5.0, 1e-12);
}

TEST(Regression, RejectsDegenerateInputs) {
  std::vector<double> one{1.0};
  EXPECT_THROW((void)fit_line(one, one), std::logic_error);
  std::vector<double> xs{2.0, 2.0};
  std::vector<double> ys{1.0, 3.0};
  EXPECT_THROW((void)fit_line(xs, ys), std::logic_error);
}

TEST(RootFind, BrentFindsSqrt2Fast) {
  const auto root = brent([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  ASSERT_TRUE(root.has_value());
  EXPECT_NEAR(*root, std::sqrt(2.0), 1e-10);
}

TEST(RootFind, BrentHandlesTranscendental) {
  // x = cos(x) near 0.739085
  const auto root =
      brent([](double x) { return x - std::cos(x); }, 0.0, 1.5);
  ASSERT_TRUE(root.has_value());
  EXPECT_NEAR(*root, 0.7390851332, 1e-8);
}

TEST(RootFind, InvalidBracketReturnsNullopt) {
  EXPECT_FALSE(brent([](double x) { return x * x + 1.0; }, -1.0, 1.0));
}

TEST(RootFind, EndpointRootReturnedDirectly) {
  const auto root = brent([](double x) { return x - 1.0; }, 1.0, 2.0);
  ASSERT_TRUE(root.has_value());
  EXPECT_DOUBLE_EQ(*root, 1.0);
}

TEST(NelderMead, MinimisesQuadraticBowl) {
  const auto result = nelder_mead(
      [](const std::vector<double>& x) {
        return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] + 1.0) * (x[1] + 1.0);
      },
      {0.0, 0.0});
  EXPECT_NEAR(result.x[0], 3.0, 1e-4);
  EXPECT_NEAR(result.x[1], -1.0, 1e-4);
  EXPECT_NEAR(result.fx, 0.0, 1e-8);
}

TEST(NelderMead, MinimisesRosenbrock) {
  NelderMeadOptions options;
  options.max_iterations = 10000;
  const auto result = nelder_mead(
      [](const std::vector<double>& x) {
        const double a = 1.0 - x[0];
        const double b = x[1] - x[0] * x[0];
        return a * a + 100.0 * b * b;
      },
      {-1.2, 1.0}, options);
  EXPECT_NEAR(result.x[0], 1.0, 1e-3);
  EXPECT_NEAR(result.x[1], 1.0, 1e-3);
}

TEST(NelderMead, RespectsPenaltyConstraints) {
  // Minimum of (x-2)^2 subject to x<=1 via penalty → lands at the boundary.
  const auto result = nelder_mead(
      [](const std::vector<double>& x) {
        if (x[0] > 1.0) return 1e9;
        return (x[0] - 2.0) * (x[0] - 2.0);
      },
      {0.0});
  EXPECT_NEAR(result.x[0], 1.0, 1e-3);
}

TEST(NelderMead, OneDimensional) {
  // Quartic bowl: f-spread convergence can halt with the simplex symmetric
  // about the minimum, so assert on f rather than a tight x tolerance.
  const auto result = nelder_mead(
      [](const std::vector<double>& x) { return std::pow(x[0] - 5.0, 4.0); },
      {0.0});
  EXPECT_NEAR(result.x[0], 5.0, 0.1);
  EXPECT_LT(result.fx, 1e-4);
}

TEST(NelderMead, RejectsEmptyStart) {
  EXPECT_THROW(
      (void)nelder_mead([](const std::vector<double>&) { return 0.0; }, {}),
      std::logic_error);
}

}  // namespace
}  // namespace psnt::stats
