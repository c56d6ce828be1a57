#include "grid/problem.h"

#include <cmath>

#include "grid/grid_ops.h"
#include "grid/level.h"

namespace pbmg {

namespace {

constexpr double kTwo32 = 4294967296.0;  // 2^32
constexpr double kTwo31 = 2147483648.0;  // 2^31

/// Rotated-anisotropy tensor M = R(θ)ᵀ·diag(1, ε)·R(θ) with ε = 10⁻²,
/// discretised as a constant-coefficient 9-point operator.  M is SPD for
/// any θ (eigenvalues 1 and ε), so the discrete operator is SPD too.
grid::StencilOp make_rotated_operator(int n, double theta_degrees) {
  constexpr double kEpsilon = 1e-2;
  const double theta = theta_degrees * M_PI / 180.0;
  const double s = std::sin(theta);
  const double c = std::cos(theta);
  const double a11 = c * c + kEpsilon * s * s;
  const double a22 = s * s + kEpsilon * c * c;
  const double a12 = (1.0 - kEpsilon) * s * c;
  return grid::StencilOp::from_tensor(
      n, [a11](double, double) { return a11; },
      [a12](double, double) { return a12; },
      [a22](double, double) { return a22; }, 0.0);
}

}  // namespace

std::string to_string(InputDistribution dist) {
  switch (dist) {
    case InputDistribution::kUnbiased: return "unbiased";
    case InputDistribution::kBiased: return "biased";
    case InputDistribution::kPointSources: return "point-sources";
  }
  throw InvalidArgument("to_string: invalid InputDistribution");
}

InputDistribution parse_distribution(const std::string& name) {
  if (name == "unbiased") return InputDistribution::kUnbiased;
  if (name == "biased") return InputDistribution::kBiased;
  if (name == "point-sources") return InputDistribution::kPointSources;
  throw InvalidArgument("unknown input distribution '" + name +
                        "' (expected unbiased|biased|point-sources)");
}

std::string to_string(OperatorFamily family) {
  switch (family) {
    case OperatorFamily::kPoisson: return "poisson";
    case OperatorFamily::kSmoothVariable: return "smooth";
    case OperatorFamily::kJumpCoefficient: return "jump";
    case OperatorFamily::kAnisotropic: return "aniso";
    case OperatorFamily::kAnisotropic1000: return "aniso1000";
    case OperatorFamily::kAnisoRotated: return "aniso-rot";
    case OperatorFamily::kAnisoTheta30: return "aniso-t30";
    case OperatorFamily::kAnisoTheta45: return "aniso-t45";
  }
  throw InvalidArgument("to_string: invalid OperatorFamily");
}

OperatorFamily parse_operator_family(const std::string& name) {
  if (name == "poisson") return OperatorFamily::kPoisson;
  if (name == "smooth") return OperatorFamily::kSmoothVariable;
  if (name == "jump") return OperatorFamily::kJumpCoefficient;
  if (name == "aniso") return OperatorFamily::kAnisotropic;
  if (name == "aniso1000") return OperatorFamily::kAnisotropic1000;
  if (name == "aniso-rot") return OperatorFamily::kAnisoRotated;
  if (name == "aniso-t30") return OperatorFamily::kAnisoTheta30;
  if (name == "aniso-t45") return OperatorFamily::kAnisoTheta45;
  throw InvalidArgument(
      "unknown operator family '" + name +
      "' (expected poisson|smooth|jump|aniso|aniso1000|aniso-rot|"
      "aniso-t30|aniso-t45)");
}

grid::StencilOp make_operator(int n, OperatorFamily family) {
  PBMG_CHECK(is_valid_grid_size(n), "make_operator: n must be 2^k + 1");
  switch (family) {
    case OperatorFamily::kPoisson:
      return grid::StencilOp::poisson(n);
    case OperatorFamily::kSmoothVariable:
      return grid::StencilOp::from_coefficient(n, [](double x, double y) {
        return 1.0 + 0.6 * std::sin(M_PI * x) * std::sin(M_PI * y);
      });
    case OperatorFamily::kJumpCoefficient:
      // Half-open box so edge midpoints on the upper interface sample the
      // background value; the jump sits on x,y = ¼ and ¾, which are grid
      // lines of every level with n >= 5, keeping the interface aligned
      // under coarsening.
      return grid::StencilOp::from_coefficient(n, [](double x, double y) {
        const bool inside = x >= 0.25 && x < 0.75 && y >= 0.25 && y < 0.75;
        return inside ? 100.0 : 1.0;
      });
    case OperatorFamily::kAnisotropic:
      return grid::StencilOp::from_coefficients(
          n, [](double, double) { return 1.0; },
          [](double, double) { return 0.03125; }, 0.0);
    case OperatorFamily::kAnisotropic1000:
      return grid::StencilOp::from_coefficients(
          n, [](double, double) { return 1.0; },
          [](double, double) { return 1e-3; }, 0.0);
    case OperatorFamily::kAnisoRotated:
      // The strong axis flips across x = ½ (a grid line of every level,
      // keeping the interface aligned under coefficient restriction like
      // the jump family's box).  Half-open: y-edges sampled exactly on
      // the interface column take the right-region value.
      return grid::StencilOp::from_coefficients(
          n, [](double x, double) { return x < 0.5 ? 1.0 : 1e-3; },
          [](double x, double) { return x < 0.5 ? 1e-3 : 1.0; }, 0.0);
    case OperatorFamily::kAnisoTheta30:
      return make_rotated_operator(n, 30.0);
    case OperatorFamily::kAnisoTheta45:
      return make_rotated_operator(n, 45.0);
  }
  throw InvalidArgument("make_operator: invalid OperatorFamily");
}

std::string ProblemSpec::cache_token() const {
  return to_string(op) + "_" + to_string(distribution) + "_L" +
         std::to_string(level);
}

Json ProblemSpec::to_json() const {
  Json j = Json::object();
  j.set("operator", to_string(op));
  j.set("distribution", to_string(distribution));
  j.set("level", std::int64_t{level});
  return j;
}

ProblemSpec ProblemSpec::from_json(const Json& json) {
  ProblemSpec spec;
  spec.op = parse_operator_family(json.at("operator").as_string());
  spec.distribution = parse_distribution(json.at("distribution").as_string());
  spec.level = json.at("level").as_int32();
  PBMG_CHECK(spec.level >= 1 && spec.level <= 30,
             "ProblemSpec: level out of range");
  return spec;
}

PoissonProblem make_problem(int n, InputDistribution dist, Rng& rng) {
  PBMG_CHECK(is_valid_grid_size(n), "make_problem: n must be 2^k + 1");
  PoissonProblem p;
  p.b = Grid2D(n, 0.0);
  p.x0 = Grid2D(n, 0.0);

  const auto draw = [&](double shift) {
    return rng.uniform(-kTwo32, kTwo32) + shift;
  };

  switch (dist) {
    case InputDistribution::kUnbiased:
    case InputDistribution::kBiased: {
      const double shift =
          dist == InputDistribution::kBiased ? kTwo31 : 0.0;
      for (int i = 1; i < n - 1; ++i) {
        for (int j = 1; j < n - 1; ++j) {
          p.b(i, j) = draw(shift);
        }
      }
      // Dirichlet boundary values on the ring of x0.
      for (int j = 0; j < n; ++j) {
        p.x0(0, j) = draw(shift);
        p.x0(n - 1, j) = draw(shift);
      }
      for (int i = 1; i < n - 1; ++i) {
        p.x0(i, 0) = draw(shift);
        p.x0(i, n - 1) = draw(shift);
      }
      break;
    }
    case InputDistribution::kPointSources: {
      // A handful of strong sources/sinks in an otherwise zero RHS with a
      // grounded (zero) boundary.
      const int sources = 5;
      for (int s = 0; s < sources; ++s) {
        const int i =
            1 + static_cast<int>(rng.uniform_index(
                    static_cast<std::uint64_t>(n - 2)));
        const int j =
            1 + static_cast<int>(rng.uniform_index(
                    static_cast<std::uint64_t>(n - 2)));
        p.b(i, j) += (rng.uniform01() < 0.5 ? -kTwo32 : kTwo32);
      }
      break;
    }
  }
  return p;
}

ManufacturedProblem make_manufactured_problem(int n, rt::Scheduler& sched) {
  PBMG_CHECK(is_valid_grid_size(n),
             "make_manufactured_problem: n must be 2^k + 1");
  ManufacturedProblem mp;
  mp.exact = Grid2D(n, 0.0);
  const double h = mesh_width(n);
  for (int i = 0; i < n; ++i) {
    const double y = i * h;
    for (int j = 0; j < n; ++j) {
      const double x = j * h;
      mp.exact(i, j) =
          std::sin(M_PI * x) * std::sinh(M_PI * y) / std::sinh(M_PI) +
          x * x - y * y;
    }
  }
  mp.problem.b = Grid2D(n, 0.0);
  mp.problem.x0 = Grid2D(n, 0.0);
  // b = A·exact computed with the *discrete* operator, so `exact` is the
  // exact solution of the discrete system (not just of the PDE).
  grid::apply_poisson(mp.exact, mp.problem.b, sched);
  mp.problem.x0.copy_boundary_from(mp.exact);
  return mp;
}

}  // namespace pbmg
