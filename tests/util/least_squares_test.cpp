#include "eacs/util/least_squares.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "eacs/util/rng.h"

namespace eacs {
namespace {

TEST(LinearSystemTest, SolvesKnownSystem) {
  // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
  const auto x = solve_linear_system({2, 1, 1, 3}, {5, 10}, 2);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LinearSystemTest, SingularThrows) {
  EXPECT_THROW(solve_linear_system({1, 2, 2, 4}, {1, 2}, 2), std::runtime_error);
}

TEST(LinearSystemTest, DimensionMismatchThrows) {
  EXPECT_THROW(solve_linear_system({1, 2, 3}, {1, 2}, 2), std::invalid_argument);
}

TEST(LinearSystemTest, PivotingHandlesZeroDiagonal) {
  // 0x + y = 2; x + 0y = 3 requires a row swap.
  const auto x = solve_linear_system({0, 1, 1, 0}, {2, 3}, 2);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

// Design matrix of y ~ a + b*x: one row {1, x} per observation.
std::vector<double> line_design(const std::vector<double>& x) {
  std::vector<double> design;
  for (double xi : x) {
    design.push_back(1.0);
    design.push_back(xi);
  }
  return design;
}

TEST(FitLineTest, ExactLine) {
  const std::vector<double> x = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> y = {1.0, 3.0, 5.0, 7.0};
  const auto fit = linear_least_squares(line_design(x), y, 2);
  EXPECT_NEAR(fit.params[0], 1.0, 1e-10);
  EXPECT_NEAR(fit.params[1], 2.0, 1e-10);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-10);
}

TEST(FitLineTest, NoisyLineRecovered) {
  Rng rng(101);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 500; ++i) {
    const double xi = rng.uniform(0.0, 10.0);
    x.push_back(xi);
    y.push_back(2.5 - 0.7 * xi + rng.normal(0.0, 0.1));
  }
  const auto fit = linear_least_squares(line_design(x), y, 2);
  EXPECT_NEAR(fit.params[0], 2.5, 0.05);
  EXPECT_NEAR(fit.params[1], -0.7, 0.01);
  EXPECT_GT(fit.r_squared, 0.95);
}

TEST(FitLineTest, SizeMismatchThrows) {
  // Three design values cannot hold two rows of two parameters.
  EXPECT_THROW(linear_least_squares(std::vector<double>{1.0, 1.0, 1.0},
                                    std::vector<double>{1.0, 2.0}, 2),
               std::invalid_argument);
  EXPECT_THROW(fit_power_law_2d(std::vector<double>{1.0}, std::vector<double>{1.0},
                                std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(LinearLeastSquaresTest, UnderdeterminedThrows) {
  EXPECT_THROW(
      linear_least_squares(std::vector<double>{1.0, 2.0}, std::vector<double>{1.0}, 2),
      std::invalid_argument);
}

TEST(PowerLawTest, ExactRecovery) {
  std::vector<double> x1;
  std::vector<double> x2;
  std::vector<double> y;
  for (double a = 0.5; a <= 8.0; a += 0.5) {
    for (double b = 0.25; b <= 2.0; b += 0.25) {
      x1.push_back(a);
      x2.push_back(b);
      y.push_back(3.0 * std::pow(a, 1.7) * std::pow(b, -0.4));
    }
  }
  const auto fit = fit_power_law_2d(x1, x2, y);
  EXPECT_NEAR(fit.params[0], 3.0, 1e-8);
  EXPECT_NEAR(fit.params[1], 1.7, 1e-8);
  EXPECT_NEAR(fit.params[2], -0.4, 1e-8);
}

TEST(PowerLawTest, SkipsNonPositiveSamples) {
  // Effective points: (1,1,2), (2,1,4), (4,2,32) of y = 2 * x1 * x2^2; every
  // other row has a non-positive regressor or response.
  const std::vector<double> x1 = {0.0, 1.0, 2.0, 4.0, -1.0, 3.0, 5.0};
  const std::vector<double> x2 = {1.0, 1.0, 1.0, 2.0, 1.0, -2.0, 1.0};
  const std::vector<double> y = {5.0, 2.0, 4.0, 32.0, 3.0, 7.0, 0.0};
  const auto fit = fit_power_law_2d(x1, x2, y);
  EXPECT_NEAR(fit.params[0], 2.0, 1e-8);
  EXPECT_NEAR(fit.params[1], 1.0, 1e-8);
  EXPECT_NEAR(fit.params[2], 2.0, 1e-8);
}

TEST(PowerLaw2dTest, RecoversPaperImpairmentSurface) {
  // The exact fit DESIGN.md derives from the paper's four reported samples.
  const std::vector<double> v = {2.0, 6.0, 2.0, 6.0};
  const std::vector<double> r = {1.5, 1.5, 5.8, 5.8};
  const std::vector<double> y = {0.049, 0.184, 0.174, 0.549};
  const auto fit = fit_power_law_2d(v, r, y);
  EXPECT_NEAR(fit.params[0], 0.0165, 0.001);
  EXPECT_NEAR(fit.params[1], 1.124, 0.02);
  EXPECT_NEAR(fit.params[2], 0.872, 0.02);
  // All four points reproduced within ~6%.
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double predicted =
        fit.params[0] * std::pow(v[i], fit.params[1]) * std::pow(r[i], fit.params[2]);
    EXPECT_NEAR(predicted / y[i], 1.0, 0.06);
  }
}

TEST(PowerLaw2dTest, NoisyRecovery) {
  Rng rng(103);
  std::vector<double> v;
  std::vector<double> r;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    const double vi = rng.uniform(0.5, 7.0);
    const double ri = rng.uniform(0.1, 6.0);
    v.push_back(vi);
    r.push_back(ri);
    y.push_back(0.02 * std::pow(vi, 1.1) * std::pow(ri, 0.9) *
                std::exp(rng.normal(0.0, 0.05)));
  }
  const auto fit = fit_power_law_2d(v, r, y);
  EXPECT_NEAR(fit.params[0], 0.02, 0.002);
  EXPECT_NEAR(fit.params[1], 1.1, 0.05);
  EXPECT_NEAR(fit.params[2], 0.9, 0.05);
}

TEST(GaussNewtonTest, FitsExponentialDecay) {
  // y = 5 - a * exp(-b * x), the shape of saturating-QoE curves.
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = 0.1; x <= 6.0; x += 0.2) {
    xs.push_back(x);
    ys.push_back(5.0 - 2.0 * std::exp(-0.8 * x));
  }
  const auto model = [&xs](std::span<const double> p, std::size_t i) {
    return 5.0 - p[0] * std::exp(-p[1] * xs[i]);
  };
  const auto fit = gauss_newton(model, ys, {1.0, 1.0});
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.params[0], 2.0, 1e-6);
  EXPECT_NEAR(fit.params[1], 0.8, 1e-6);
}

TEST(GaussNewtonTest, FitsPaperQualityCurve) {
  // q0(r) = 5 - a * r^(-b) with Table III's a=1.036, b=0.429.
  std::vector<double> rates = {0.1, 0.375, 0.75, 1.5, 3.0, 5.8};
  std::vector<double> q;
  for (double r : rates) q.push_back(5.0 - 1.036 * std::pow(r, -0.429));
  const auto model = [&rates](std::span<const double> p, std::size_t i) {
    return 5.0 - p[0] * std::pow(rates[i], -p[1]);
  };
  const auto fit = gauss_newton(model, q, {0.5, 0.5});
  EXPECT_NEAR(fit.params[0], 1.036, 1e-5);
  EXPECT_NEAR(fit.params[1], 0.429, 1e-5);
}

TEST(GaussNewtonTest, NoisyFitStillCloses) {
  Rng rng(107);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0.1, 6.0);
    xs.push_back(x);
    ys.push_back(5.0 - 1.5 * std::pow(x, -0.5) + rng.normal(0.0, 0.05));
  }
  const auto model = [&xs](std::span<const double> p, std::size_t i) {
    return 5.0 - p[0] * std::pow(xs[i], -p[1]);
  };
  const auto fit = gauss_newton(model, ys, {1.0, 0.3});
  EXPECT_NEAR(fit.params[0], 1.5, 0.1);
  EXPECT_NEAR(fit.params[1], 0.5, 0.05);
}

TEST(GaussNewtonTest, UnderdeterminedThrows) {
  const auto model = [](std::span<const double>, std::size_t) { return 0.0; };
  EXPECT_THROW(gauss_newton(model, std::vector<double>{1.0}, {1.0, 2.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace eacs
