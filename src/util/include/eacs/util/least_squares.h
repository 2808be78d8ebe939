#pragma once
// Least-squares fitting used to (re-)derive the paper's model coefficients.
//
// The paper fits (i) a bitrate->quality curve from the simulated-room study
// ("least squares regression method", Fig. 2(b)) and (ii) a vibration
// impairment surface over (vibration, bitrate) (Fig. 2(c)). Both fits are
// reproduced in eacs::qoe on top of the primitives here.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace eacs {

/// Result of a least-squares fit.
struct FitResult {
  std::vector<double> params;  ///< fitted parameter vector
  double rss = 0.0;            ///< residual sum of squares
  double r_squared = 0.0;      ///< coefficient of determination
  std::size_t iterations = 0;  ///< Gauss-Newton iterations (0 for linear fits)
  bool converged = true;
};

/// Solves the dense linear system A x = b (Gaussian elimination with partial
/// pivoting). `a` is row-major n x n. Throws std::runtime_error on a singular
/// system.
std::vector<double> solve_linear_system(std::vector<double> a, std::vector<double> b,
                                        std::size_t n);

/// Ordinary linear least squares: finds beta minimising ||X beta - y||^2.
/// `design` is row-major, one row per observation with `num_params` columns.
FitResult linear_least_squares(std::span<const double> design,
                               std::span<const double> y, std::size_t num_params);

/// Fits y ~ c * x1^p1 * x2^p2 (log-space linear regression). All samples must
/// be strictly positive; non-positive samples are skipped. params = {c, p1, p2}.
FitResult fit_power_law_2d(std::span<const double> x1, std::span<const double> x2,
                           std::span<const double> y);

/// Nonlinear least squares via damped Gauss-Newton with numeric Jacobian.
///
/// `model(params, x)` evaluates the model at sample `x` (index into the
/// observation arrays is passed; the caller captures its own regressors).
FitResult gauss_newton(
    const std::function<double(std::span<const double> params, std::size_t sample)>& model,
    std::span<const double> y, std::vector<double> initial_params,
    std::size_t max_iterations = 100, double tolerance = 1e-10);

}  // namespace eacs
