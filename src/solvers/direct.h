#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "grid/grid2d.h"
#include "grid/stencil_op.h"
#include "linalg/band_matrix.h"

/// \file direct.h
/// The paper's Direct method: banded Cholesky factor + triangular solves
/// (LAPACK DPBSV equivalent), with a per-size factor cache.
///
/// DPBSV factors on every call, and the paper's complexity table (Direct =
/// n² = N⁴) counts that factorization, so the paper-faithful configuration
/// is cache-free: a default-constructed DirectSolver (what every
/// pbmg::Engine owns unless EngineOptions::direct_max_cached_n says
/// otherwise) refactors on every solve.  The optional factor cache (the
/// Poisson band matrix depends only on n) is an extension for API users
/// who solve many systems of one size; tests use it to validate both
/// paths.

namespace pbmg::solvers {

/// Direct Poisson solver with a thread-safe factor cache.
class DirectSolver {
 public:
  /// \param max_cached_n  largest grid side whose factor is kept resident
  ///        (a factor for side n costs ≈ (n−2)²·(n−1)·8 bytes; 257 caps an
  ///        entry at ~130 MB).  0 — the default — disables caching, giving
  ///        LAPACK DPBSV semantics: factor + solve on every call.
  explicit DirectSolver(int max_cached_n = 0);

  /// Solves A·x = b for the interior of `x`.  On entry `x` carries the
  /// Dirichlet values on its ring (interior is ignored); on return the
  /// interior holds the exact solution.  Requires b.n() == x.n() = 2^k+1.
  void solve(const Grid2D& b, Grid2D& x);

  /// Same contract for a variable-coefficient operator (stencil_op.h).
  /// The Poisson fast path dispatches to solve(b, x) above — including its
  /// factor cache.  Variable-coefficient systems assemble and factor on
  /// every call (DPBSV semantics; the factor cache is keyed by size only,
  /// which is sound solely for the size-determined Poisson matrix).
  void solve(const grid::StencilOp& op, const Grid2D& b, Grid2D& x);

  /// Drops all cached factors.
  void clear_cache();

  /// Number of sizes currently cached (observability for tests).
  std::size_t cached_sizes() const;

 private:
  std::shared_ptr<const linalg::BandMatrix> factor_for(int n);

  int max_cached_n_;
  mutable std::mutex mutex_;
  std::map<int, std::shared_ptr<const linalg::BandMatrix>> cache_;
};

}  // namespace pbmg::solvers
