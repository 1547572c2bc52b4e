#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "optim/lbfgs.h"
#include "optim/objective.h"

namespace seesaw::optim {
namespace {

/// f(x) = sum_i a_i (x_i - c_i)^2, minimum at c.
Objective Quadratic(const VectorD& a, const VectorD& c) {
  return [a, c](const VectorD& x, VectorD* grad) {
    grad->assign(x.size(), 0.0);
    double f = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      double d = x[i] - c[i];
      f += a[i] * d * d;
      (*grad)[i] = 2.0 * a[i] * d;
    }
    return f;
  };
}

/// The 2-D Rosenbrock banana, minimum (1, 1).
Objective Rosenbrock() {
  return [](const VectorD& x, VectorD* grad) {
    grad->assign(2, 0.0);
    double a = 1.0 - x[0];
    double b = x[1] - x[0] * x[0];
    (*grad)[0] = -2.0 * a - 400.0 * x[0] * b;
    (*grad)[1] = 200.0 * b;
    return a * a + 100.0 * b * b;
  };
}

TEST(LbfgsTest, SolvesWellConditionedQuadratic) {
  Lbfgs opt;
  VectorD a = {1, 1, 1}, c = {3, -2, 0.5};
  auto result = opt.Minimize(Quadratic(a, c), {0, 0, 0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged());
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(result->x[i], c[i], 1e-5);
}

TEST(LbfgsTest, SolvesIllConditionedQuadratic) {
  Lbfgs opt;
  VectorD a = {1000, 1, 0.01}, c = {1, 2, 3};
  LbfgsOptions options;
  options.max_iterations = 300;
  Lbfgs opt2(options);
  auto result = opt2.Minimize(Quadratic(a, c), {0, 0, 0});
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(result->x[i], c[i], 1e-3);
}

TEST(LbfgsTest, SolvesRosenbrock) {
  LbfgsOptions options;
  options.max_iterations = 500;
  Lbfgs opt(options);
  auto result = opt.Minimize(Rosenbrock(), {-1.2, 1.0});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->x[0], 1.0, 1e-4);
  EXPECT_NEAR(result->x[1], 1.0, 1e-4);
  EXPECT_LT(result->f, 1e-8);
}

TEST(LbfgsTest, ConvergesInFewIterationsOnSmoothProblems) {
  // The paper relies on L-BFGS converging in a few tens of steps (§4.4).
  Lbfgs opt;
  VectorD a(20, 1.0), c(20, 0.0);
  for (size_t i = 0; i < 20; ++i) {
    a[i] = 1.0 + static_cast<double>(i);
    c[i] = std::sin(static_cast<double>(i));
  }
  auto result = opt.Minimize(Quadratic(a, c), VectorD(20, 0.0));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged());
  EXPECT_LE(result->iterations, 60);
}

TEST(LbfgsTest, StartingAtMinimumTerminatesImmediately) {
  Lbfgs opt;
  VectorD c = {1, 2};
  auto result = opt.Minimize(Quadratic({1, 1}, c), c);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->iterations, 0);
  EXPECT_EQ(result->reason, TerminationReason::kGradientTolerance);
}

TEST(LbfgsTest, EmptyStartIsInvalidArgument) {
  Lbfgs opt;
  auto result = opt.Minimize(Quadratic({}, {}), {});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(LbfgsTest, NonFiniteStartIsInvalidArgument) {
  Lbfgs opt;
  Objective nan_obj = [](const VectorD& x, VectorD* grad) {
    grad->assign(x.size(), 0.0);
    return std::nan("");
  };
  auto result = opt.Minimize(nan_obj, {1.0});
  EXPECT_FALSE(result.ok());
}

TEST(LbfgsTest, RespectsMaxIterations) {
  LbfgsOptions options;
  options.max_iterations = 2;
  options.gradient_tolerance = 0;  // never converge by gradient
  options.f_tolerance = 0;
  Lbfgs opt(options);
  auto result = opt.Minimize(Rosenbrock(), {-1.2, 1.0});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reason, TerminationReason::kMaxIterations);
  EXPECT_EQ(result->iterations, 2);
}

TEST(LbfgsTest, TerminationReasonStrings) {
  EXPECT_EQ(TerminationReasonToString(TerminationReason::kGradientTolerance),
            "gradient_tolerance");
  EXPECT_EQ(TerminationReasonToString(TerminationReason::kMaxIterations),
            "max_iterations");
}

// Property sweep: L-BFGS must match the analytic minimum of random
// positive-definite quadratics across dimensions.
class LbfgsQuadraticSweep : public ::testing::TestWithParam<int> {};

TEST_P(LbfgsQuadraticSweep, FindsAnalyticMinimum) {
  const int dim = GetParam();
  Rng rng(1000 + dim);
  VectorD a(dim), c(dim), x0(dim);
  for (int i = 0; i < dim; ++i) {
    a[i] = 0.5 + rng.Uniform() * 10.0;
    c[i] = rng.Gaussian(0, 3);
    x0[i] = rng.Gaussian(0, 3);
  }
  LbfgsOptions options;
  options.max_iterations = 200;
  Lbfgs opt(options);
  auto result = opt.Minimize(Quadratic(a, c), x0);
  ASSERT_TRUE(result.ok());
  for (int i = 0; i < dim; ++i) EXPECT_NEAR(result->x[i], c[i], 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Dims, LbfgsQuadraticSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32, 64, 128));

// ------------------------------------------------------ NumericalGradient --

TEST(NumericalGradientTest, MatchesAnalyticQuadraticGradient) {
  VectorD a = {2, 5}, c = {1, -1};
  auto obj = Quadratic(a, c);
  VectorD x = {3, 4};
  VectorD analytic(2);
  obj(x, &analytic);
  auto numeric = NumericalGradient(
      [&obj](const VectorD& p) {
        VectorD g;
        return obj(p, &g);
      },
      x);
  EXPECT_NEAR(numeric[0], analytic[0], 1e-5);
  EXPECT_NEAR(numeric[1], analytic[1], 1e-5);
}

}  // namespace
}  // namespace seesaw::optim
