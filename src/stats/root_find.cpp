#include "stats/root_find.h"

#include <cmath>

namespace psnt::stats {

std::optional<double> brent(const std::function<double(double)>& f, double lo,
                            double hi, RootOptions options) {
  double a = lo;
  double b = hi;
  double fa = f(a);
  double fb = f(b);
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;
  if (fa * fb > 0.0) return std::nullopt;

  if (std::fabs(fa) < std::fabs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a;
  double fc = fa;
  bool used_bisection = true;
  double d = 0.0;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (fb == 0.0 || std::fabs(b - a) < options.x_tolerance) return b;

    double s;
    if (fa != fc && fb != fc) {
      // Inverse quadratic interpolation.
      s = a * fb * fc / ((fa - fb) * (fa - fc)) +
          b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      // Secant.
      s = b - fb * (b - a) / (fb - fa);
    }

    const double lo_bound = (3.0 * a + b) / 4.0;
    const bool out_of_bracket =
        !((s > std::min(lo_bound, b)) && (s < std::max(lo_bound, b)));
    const bool slow_progress =
        (used_bisection && std::fabs(s - b) >= std::fabs(b - c) / 2.0) ||
        (!used_bisection && std::fabs(s - b) >= std::fabs(c - d) / 2.0);
    if (out_of_bracket || slow_progress) {
      s = 0.5 * (a + b);
      used_bisection = true;
    } else {
      used_bisection = false;
    }

    const double fs = f(s);
    d = c;
    c = b;
    fc = fb;
    if (fa * fs < 0.0) {
      b = s;
      fb = fs;
    } else {
      a = s;
      fa = fs;
    }
    if (std::fabs(fa) < std::fabs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
  }
  return b;
}

}  // namespace psnt::stats
