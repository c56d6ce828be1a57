#include "grid/wavefront.h"

#include <algorithm>
#include <initializer_list>

#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/packed_kernels.h"

namespace pbmg::grid {

namespace {

/// Smallest grid whose rows take the wide SOR row: on shorter rows its
/// per-row setup outweighs the few active cells it covers (one-thread
/// Poisson sweeps measure no faster than the scalar row at n = 33 and
/// slower at n = 17), so smaller grids keep the scalar row throughout.
constexpr int kWideSorMinN = 65;

}  // namespace

OperatorRows::OperatorRows(int n, double omega)
    : n_(n),
      nc_(coarse_size(n)),
      h2_(mesh_width(n) * mesh_width(n)),
      inv_h2_(static_cast<double>(n - 1) * static_cast<double>(n - 1)),
      omega_(omega),
      quarter_omega_(0.25 * omega),
      keep_(1.0 - omega),
      poisson_sor_(by_width(
          n < kWideSorMinN ? 1 : packed_simd_width_supported(),
          &pk::poisson_sor_row<1>, &pk::poisson_sor_row<2>,
          &pk::poisson_sor_row<4>)),
      poisson_residual_(by_width(packed_simd_width_supported(),
                                 &pk::poisson_residual_row<1>,
                                 &pk::poisson_residual_row<2>,
                                 &pk::poisson_residual_row<4>)),
      restrict_(by_width(packed_simd_width_supported(), &pk::restrict_row<1>,
                         &pk::restrict_row<2>, &pk::restrict_row<4>)),
      interpolate_(by_width(packed_simd_width_supported(),
                            &pk::interpolate_row<1>, &pk::interpolate_row<2>,
                            &pk::interpolate_row<4>)) {}

OperatorRows::OperatorRows(const StencilOp& op, int w, double omega)
    : OperatorRows(op.n(), omega) {
  if (op.is_poisson()) return;
  op_ = &op;
  c_ = op.c();
  ch2_ = op.c() * h2_;
  const int sor_w = n_ < kWideSorMinN ? 1 : w;
  if (op.is_nine_point()) {
    kind_ = Kind::kNinePoint;
    sor9_ = by_width(sor_w, &pk::sor_row9<1>, &pk::sor_row9<2>,
                     &pk::sor_row9<4>);
    residual9_ = by_width(w, &pk::stencil_row9<1>, &pk::stencil_row9<2>,
                          &pk::stencil_row9<4>);
  } else {
    kind_ = Kind::kFivePoint;
    sor5_ = by_width(sor_w, &pk::sor_row5<1>, &pk::sor_row5<2>,
                     &pk::sor_row5<4>);
    residual5_ = by_width(w, &pk::stencil_row5<1>, &pk::stencil_row5<2>,
                          &pk::stencil_row5<4>);
  }
}

std::int64_t OperatorRows::cost(Pass pass, std::size_t batch) const {
  const auto k = static_cast<std::int64_t>(batch);
  switch (kind_) {
    case Kind::kPoisson: return 1;
    case Kind::kFivePoint:
      return (pass == kSor ? kSorCost5 : kResidualCost5) * k;
    case Kind::kNinePoint:
      return (pass == kSor ? kSorCost9 : kResidualCost9) * k;
  }
  return 1;  // unreachable; silences -Wreturn-type
}

void OperatorRows::sor(Grid2D& x, const Grid2D& b, int i, int stage,
                   bool narrow) const {
  const double* up = x.row(i - 1);
  double* mid = x.row(i);
  const double* down = x.row(i + 1);
  const double* rhs = b.row(i);
  const int j0 = 1 + ((i + 1 + stage) & 1);
  switch (kind_) {
    case Kind::kPoisson: {
      const auto row = narrow ? &pk::poisson_sor_row<1> : poisson_sor_;
      row(up, mid, down, rhs, h2_, quarter_omega_, keep_, j0, n_);
      return;
    }
    case Kind::kFivePoint: {
      const auto row = narrow ? &pk::sor_row5<1> : sor5_;
      row(pk::view5(*op_, i), up, mid, down, rhs, h2_, ch2_, omega_,
          keep_, j0, n_);
      return;
    }
    case Kind::kNinePoint: {
      if ((i & 1) != stage) return;
      const pk::View9 v = pk::view9(*op_, i);
      for (const int first_column : {2, 1}) {
        sor9_(v, up, mid, down, rhs, h2_, ch2_, omega_, keep_, first_column,
              n_);
      }
      return;
    }
  }
}

void OperatorRows::residual(const Grid2D& x, const Grid2D* b, int i,
                            double* out) const {
  const double* up = x.row(i - 1);
  const double* mid = x.row(i);
  const double* down = x.row(i + 1);
  const double* rhs = b != nullptr ? b->row(i) : nullptr;
  switch (kind_) {
    case Kind::kPoisson:
      poisson_residual_(up, mid, down, rhs, out, inv_h2_, n_);
      return;
    case Kind::kFivePoint:
      residual5_(pk::view5(*op_, i), up, mid, down, rhs, out, inv_h2_, c_,
                 n_);
      return;
    case Kind::kNinePoint:
      residual9_(pk::view9(*op_, i), up, mid, down, rhs, out, inv_h2_, c_,
                 n_);
      return;
  }
}

ResidualRing::ResidualRing(const OperatorRows& rows, int first,
                           std::span<const Grid2D* const> xs,
                           std::span<const Grid2D* const> bs,
                           std::span<Grid2D* const> coarse,
                           std::span<Grid2D* const> zeroed)
    : rows_(rows),
      first_(first),
      xs_(xs),
      bs_(bs),
      coarse_(coarse),
      zeroed_(zeroed),
      ring_(new double[3 * xs.size() * static_cast<std::size_t>(rows.n())]) {
  // The wide restriction row loads column n − 1, which no residual row
  // writes, into lanes it discards: zero it so no load is indeterminate.
  const auto stride = static_cast<std::size_t>(rows.n());
  for (std::size_t r = 0; r < 3 * xs.size(); ++r) {
    ring_[r * stride + stride - 1] = 0.0;
  }
}

void ResidualRing::step(int i) {
  const auto stride = static_cast<std::size_t>(rows_.n());
  const bool restrict_now = i % 2 == 1 && i > first_;
  const int ci = (i - 1) / 2;
  const int nc = rows_.nc();
  for (std::size_t k = 0; k < xs_.size(); ++k) {
    double* slot = ring_.get() + 3 * k * stride;
    rows_.residual(*xs_[k], bs_[k], i, slot + (i % 3) * stride);
    if (!restrict_now) continue;
    double* out = coarse_[k]->row(ci);
    rows_.restrict_rows(slot + ((i - 2) % 3) * stride,
                        slot + ((i - 1) % 3) * stride,
                        slot + (i % 3) * stride, out);
    out[0] = 0.0;
    out[nc - 1] = 0.0;
    if (!zeroed_.empty()) std::fill_n(zeroed_[k]->row(ci), nc, 0.0);
  }
}

void ResidualRing::zero_row(int ci) const {
  const int nc = rows_.nc();
  for (Grid2D* c : coarse_) std::fill_n(c->row(ci), nc, 0.0);
  for (Grid2D* e : zeroed_) std::fill_n(e->row(ci), nc, 0.0);
}

void sor_wavefront(const OperatorRows& rows, std::span<Grid2D* const> xs,
                   std::span<const Grid2D* const> bs, rt::Scheduler& sched) {
  wavefront(rows.n(), 1, rows.cost(OperatorRows::kSor, xs.size()), sched,
            [&](const WaveRun& run) {
              for_each_step<2>(
                  {run.rows(0), run.rows(1)}, [&](int s, int i) {
                    const bool narrow =
                        s == 0 && (i == run.lo || i == run.hi - 1);
                    for (std::size_t k = 0; k < xs.size(); ++k) {
                      rows.sor(*xs[k], *bs[k], i, s, narrow);
                    }
                  });
            });
}

}  // namespace pbmg::grid
