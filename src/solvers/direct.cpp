#include "solvers/direct.h"

#include "grid/level.h"
#include "linalg/poisson_assembly.h"

namespace pbmg::solvers {

DirectSolver::DirectSolver(int max_cached_n) : max_cached_n_(max_cached_n) {}

std::shared_ptr<const linalg::BandMatrix> DirectSolver::factor_for(int n) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(n);
    if (it != cache_.end()) return it->second;
  }
  // Factor outside the lock: factorization of large sizes takes seconds and
  // other sizes should not be blocked.  A duplicate race costs one wasted
  // factorization, never incorrectness.
  auto matrix = std::make_shared<linalg::BandMatrix>(
      linalg::assemble_poisson_band(n));
  linalg::band_cholesky_factor(*matrix);
  std::shared_ptr<const linalg::BandMatrix> factor = std::move(matrix);
  if (n <= max_cached_n_) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = cache_.emplace(n, factor);
    if (!inserted) return it->second;  // lost the race: reuse the winner
  }
  return factor;
}

void DirectSolver::solve(const Grid2D& b, Grid2D& x) {
  const int n = b.n();
  PBMG_CHECK(is_valid_grid_size(n), "DirectSolver::solve: n must be 2^k+1");
  PBMG_CHECK(x.n() == n, "DirectSolver::solve: grid size mismatch");
  const auto factor = factor_for(n);
  std::vector<double> rhs = linalg::gather_poisson_rhs(b, x);
  linalg::band_cholesky_solve(*factor, rhs);
  linalg::scatter_interior(rhs, x);
}

void DirectSolver::solve(const grid::StencilOp& op, const Grid2D& b,
                         Grid2D& x) {
  if (op.is_poisson()) {
    solve(b, x);
    return;
  }
  const int n = b.n();
  PBMG_CHECK(is_valid_grid_size(n), "DirectSolver::solve: n must be 2^k+1");
  PBMG_CHECK(x.n() == n && op.n() == n,
             "DirectSolver::solve: grid/operator size mismatch");
  linalg::BandMatrix a = linalg::assemble_stencil_band(op);
  std::vector<double> rhs = linalg::gather_stencil_rhs(op, b, x);
  linalg::band_spd_solve(a, rhs);
  linalg::scatter_interior(rhs, x);
}

void DirectSolver::clear_cache() {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.clear();
}

std::size_t DirectSolver::cached_sizes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

}  // namespace pbmg::solvers
