#include "eacs/util/least_squares.h"

#include <cmath>
#include <stdexcept>

#include "eacs/util/stats.h"

namespace eacs {
namespace {

double residual_sum_of_squares(std::span<const double> y,
                               std::span<const double> predicted) {
  double rss = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double r = y[i] - predicted[i];
    rss += r * r;
  }
  return rss;
}

double r_squared_of(std::span<const double> y, double rss) {
  const double mu = mean(y);
  double tss = 0.0;
  for (double v : y) tss += (v - mu) * (v - mu);
  if (tss <= 0.0) return rss <= 0.0 ? 1.0 : 0.0;
  return 1.0 - rss / tss;
}

}  // namespace

std::vector<double> solve_linear_system(std::vector<double> a, std::vector<double> b,
                                        std::size_t n) {
  if (a.size() != n * n || b.size() != n) {
    throw std::invalid_argument("solve_linear_system: dimension mismatch");
  }
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    std::size_t pivot = col;
    double best = std::fabs(a[col * n + col]);
    for (std::size_t row = col + 1; row < n; ++row) {
      const double candidate = std::fabs(a[row * n + col]);
      if (candidate > best) {
        best = candidate;
        pivot = row;
      }
    }
    if (best < 1e-14) throw std::runtime_error("solve_linear_system: singular matrix");
    if (pivot != col) {
      for (std::size_t k = 0; k < n; ++k) std::swap(a[col * n + k], a[pivot * n + k]);
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a[row * n + col] / a[col * n + col];
      if (factor == 0.0) continue;
      for (std::size_t k = col; k < n; ++k) a[row * n + k] -= factor * a[col * n + k];
      b[row] -= factor * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double accum = b[i];
    for (std::size_t k = i + 1; k < n; ++k) accum -= a[i * n + k] * x[k];
    x[i] = accum / a[i * n + i];
  }
  return x;
}

FitResult linear_least_squares(std::span<const double> design,
                               std::span<const double> y, std::size_t num_params) {
  if (num_params == 0) throw std::invalid_argument("num_params must be > 0");
  if (design.size() != y.size() * num_params) {
    throw std::invalid_argument("design matrix size mismatch");
  }
  if (y.size() < num_params) {
    throw std::invalid_argument("underdetermined least-squares system");
  }
  const std::size_t n = y.size();
  // Normal equations: (X^T X) beta = X^T y.
  std::vector<double> xtx(num_params * num_params, 0.0);
  std::vector<double> xty(num_params, 0.0);
  for (std::size_t row = 0; row < n; ++row) {
    const double* x_row = design.data() + row * num_params;
    for (std::size_t i = 0; i < num_params; ++i) {
      xty[i] += x_row[i] * y[row];
      for (std::size_t j = 0; j < num_params; ++j) {
        xtx[i * num_params + j] += x_row[i] * x_row[j];
      }
    }
  }
  FitResult result;
  result.params = solve_linear_system(std::move(xtx), std::move(xty), num_params);
  std::vector<double> predicted(n, 0.0);
  for (std::size_t row = 0; row < n; ++row) {
    const double* x_row = design.data() + row * num_params;
    double value = 0.0;
    for (std::size_t i = 0; i < num_params; ++i) value += x_row[i] * result.params[i];
    predicted[row] = value;
  }
  result.rss = residual_sum_of_squares(y, predicted);
  result.r_squared = r_squared_of(y, result.rss);
  return result;
}

FitResult fit_power_law_2d(std::span<const double> x1, std::span<const double> x2,
                           std::span<const double> y) {
  if (x1.size() != y.size() || x2.size() != y.size()) {
    throw std::invalid_argument("fit_power_law_2d: size mismatch");
  }
  std::vector<double> design;
  std::vector<double> log_y;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (x1[i] <= 0.0 || x2[i] <= 0.0 || y[i] <= 0.0) continue;
    design.push_back(1.0);
    design.push_back(std::log(x1[i]));
    design.push_back(std::log(x2[i]));
    log_y.push_back(std::log(y[i]));
  }
  FitResult log_fit = linear_least_squares(design, log_y, 3);
  FitResult result;
  result.params = {std::exp(log_fit.params[0]), log_fit.params[1], log_fit.params[2]};
  // Recompute goodness of fit in linear space over the retained samples.
  std::vector<double> predicted;
  std::vector<double> retained_y;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (x1[i] <= 0.0 || x2[i] <= 0.0 || y[i] <= 0.0) continue;
    predicted.push_back(result.params[0] * std::pow(x1[i], result.params[1]) *
                        std::pow(x2[i], result.params[2]));
    retained_y.push_back(y[i]);
  }
  result.rss = residual_sum_of_squares(retained_y, predicted);
  result.r_squared = r_squared_of(retained_y, result.rss);
  return result;
}

FitResult gauss_newton(
    const std::function<double(std::span<const double>, std::size_t)>& model,
    std::span<const double> y, std::vector<double> initial_params,
    std::size_t max_iterations, double tolerance) {
  const std::size_t n = y.size();
  const std::size_t p = initial_params.size();
  if (n < p) throw std::invalid_argument("gauss_newton: underdetermined");

  std::vector<double> params = std::move(initial_params);
  std::vector<double> residuals(n, 0.0);
  std::vector<double> jacobian(n * p, 0.0);

  auto evaluate_rss = [&](std::span<const double> candidate) {
    double rss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = y[i] - model(candidate, i);
      rss += r * r;
    }
    return rss;
  };

  FitResult result;
  double rss = evaluate_rss(params);
  double damping = 1e-3;  // Levenberg-Marquardt style damping for robustness.

  std::size_t iter = 0;
  for (; iter < max_iterations; ++iter) {
    for (std::size_t i = 0; i < n; ++i) residuals[i] = y[i] - model(params, i);
    // Numeric Jacobian (forward differences).
    for (std::size_t j = 0; j < p; ++j) {
      const double h = std::max(1e-7, std::fabs(params[j]) * 1e-7);
      std::vector<double> bumped = params;
      bumped[j] += h;
      for (std::size_t i = 0; i < n; ++i) {
        jacobian[i * p + j] = (model(bumped, i) - model(params, i)) / h;
      }
    }
    // Solve (J^T J + damping I) delta = J^T r.
    std::vector<double> jtj(p * p, 0.0);
    std::vector<double> jtr(p, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t a = 0; a < p; ++a) {
        jtr[a] += jacobian[i * p + a] * residuals[i];
        for (std::size_t b = 0; b < p; ++b) {
          jtj[a * p + b] += jacobian[i * p + a] * jacobian[i * p + b];
        }
      }
    }
    for (std::size_t a = 0; a < p; ++a) jtj[a * p + a] += damping;

    std::vector<double> delta;
    try {
      delta = solve_linear_system(std::move(jtj), std::move(jtr), p);
    } catch (const std::runtime_error&) {
      damping *= 10.0;
      continue;
    }
    std::vector<double> candidate = params;
    for (std::size_t j = 0; j < p; ++j) candidate[j] += delta[j];
    const double candidate_rss = evaluate_rss(candidate);
    if (candidate_rss < rss) {
      const double improvement = rss - candidate_rss;
      params = std::move(candidate);
      rss = candidate_rss;
      damping = std::max(damping * 0.5, 1e-12);
      if (improvement < tolerance * (1.0 + rss)) {
        ++iter;
        break;
      }
    } else {
      damping *= 10.0;
      if (damping > 1e12) break;
    }
  }

  result.params = std::move(params);
  result.rss = rss;
  result.r_squared = r_squared_of(y, rss);
  result.iterations = iter;
  result.converged = iter < max_iterations;
  return result;
}

}  // namespace eacs
