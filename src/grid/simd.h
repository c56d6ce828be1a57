#pragma once

/// \file simd.h
/// Minimal portable SIMD vector over W doubles (W = 1, 2, 4) for the row
/// kernels of packed_rows.h: the packed variable-coefficient sweeps and
/// the constant-coefficient Poisson residual, red-black SOR, full-weighting
/// restriction and bilinear interpolation every operator shares.
///
/// Only lane-wise +, −, ×, ÷ and a sign-flip negation are provided — all
/// of them correctly rounded per IEEE-754, so a W-lane operation is
/// bitwise identical to W scalar operations on the same inputs.  That is
/// the whole parity story: as long as the *order* of operations per lane
/// matches the scalar kernel (and FMA contraction is disabled — the build
/// compiles with -ffp-contract=off, and this wrapper never emits fused
/// ops), every vector width produces the same bits as the scalar
/// fallback, preserving the deterministic-under-thread-count guarantee.
/// The lane moves — deinterleave(), interleave() and blend_even() — only
/// copy values between lanes, never compute, so they are exact too.  The
/// 2-lane specializations carry only interleave(): no kernel uses the
/// other two below four lanes.
///
/// Specializations: SSE2 / NEON for W = 2, AVX2 for W = 4 (only where the
/// including translation unit is compiled with AVX2 — see
/// packed_kernels_w4.cpp); everything else falls back to a plain lane
/// array, which the compiler may auto-vectorize freely (lane-wise ops
/// stay correctly rounded either way).
///
/// This header is included by per-width translation units, one of which
/// is built with -mavx2.  To keep ISA-specific code from leaking into
/// functions shared across TUs (an ODR hazard), it includes nothing from
/// the rest of the project and defines only the Vec template, whose
/// instantiations are distinct types per W.

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64)
#include <immintrin.h>
#define PBMG_SIMD_SSE2 1
#elif defined(__aarch64__)
#include <arm_neon.h>
#define PBMG_SIMD_NEON 1
#endif

namespace pbmg::grid::simd {

/// Generic lane-array fallback (and the W = 1 scalar case).  gather()
/// reads lane l at p[min(l, lanes−1)·stride]: inactive tail lanes
/// duplicate the last active lane so reads stay in bounds (their results
/// are discarded by scatter()).  scatter() writes only the first `lanes`
/// lanes, one scalar store each — the other parity's lines between them,
/// which a zebra pass only reads, are never written.
template <int W>
struct Vec {
  double v[W];

  static Vec load(const double* p) {
    Vec r;
    for (int l = 0; l < W; ++l) r.v[l] = p[l];
    return r;
  }
  static Vec broadcast(double x) {
    Vec r;
    for (int l = 0; l < W; ++l) r.v[l] = x;
    return r;
  }
  static Vec gather(const double* p, long stride, int lanes) {
    Vec r;
    for (int l = 0; l < W; ++l) {
      r.v[l] = p[(l < lanes ? l : lanes - 1) * stride];
    }
    return r;
  }
  void store(double* p) const {
    for (int l = 0; l < W; ++l) p[l] = v[l];
  }
  void scatter(double* p, long stride, int lanes) const {
    for (int l = 0; l < lanes; ++l) p[l * stride] = v[l];
  }
  friend Vec operator+(Vec a, Vec b) {
    Vec r;
    for (int l = 0; l < W; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
  }
  friend Vec operator-(Vec a, Vec b) {
    Vec r;
    for (int l = 0; l < W; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
  }
  friend Vec operator*(Vec a, Vec b) {
    Vec r;
    for (int l = 0; l < W; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
  }
  friend Vec operator/(Vec a, Vec b) {
    Vec r;
    for (int l = 0; l < W; ++l) r.v[l] = a.v[l] / b.v[l];
    return r;
  }
  Vec operator-() const {
    Vec r;
    for (int l = 0; l < W; ++l) r.v[l] = -v[l];
    return r;
  }
  /// Splits the 2W consecutive values lo ++ hi into the values at even
  /// and at odd positions: even = {x0, x2, …}, odd = {x1, x3, …}.
  friend void deinterleave(Vec lo, Vec hi, Vec& even, Vec& odd) {
    for (int l = 0; l < W; ++l) {
      const int e = 2 * l;
      even.v[l] = e < W ? lo.v[e] : hi.v[e - W];
      odd.v[l] = e + 1 < W ? lo.v[e + 1] : hi.v[e + 1 - W];
    }
  }
  /// Inverse of deinterleave: lo ++ hi = {e0, o0, e1, o1, …}.
  friend void interleave(Vec even, Vec odd, Vec& lo, Vec& hi) {
    for (int l = 0; l < W; ++l) {
      const int e = 2 * l;
      (e < W ? lo.v[e] : hi.v[e - W]) = even.v[l];
      (e + 1 < W ? lo.v[e + 1] : hi.v[e + 1 - W]) = odd.v[l];
    }
  }
  /// Even lanes (0, 2, …) from a, odd lanes from b.
  friend Vec blend_even(Vec a, Vec b) {
    Vec r;
    for (int l = 0; l < W; ++l) r.v[l] = l % 2 == 0 ? a.v[l] : b.v[l];
    return r;
  }
};

#if defined(PBMG_SIMD_SSE2)

template <>
struct Vec<2> {
  __m128d v;

  static Vec load(const double* p) { return {_mm_loadu_pd(p)}; }
  static Vec broadcast(double x) { return {_mm_set1_pd(x)}; }
  static Vec gather(const double* p, long stride, int lanes) {
    return {_mm_set_pd(p[(1 < lanes ? 1 : lanes - 1) * stride], p[0])};
  }
  void store(double* p) const { _mm_storeu_pd(p, v); }
  void scatter(double* p, long stride, int lanes) const {
    double tmp[2];
    _mm_storeu_pd(tmp, v);
    for (int l = 0; l < lanes; ++l) p[l * stride] = tmp[l];
  }
  friend Vec operator+(Vec a, Vec b) { return {_mm_add_pd(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {_mm_div_pd(a.v, b.v)}; }
  Vec operator-() const {
    // Sign-bit flip: exactly IEEE negation, matching scalar -x (0 − x
    // would differ on signed zeros).
    return {_mm_xor_pd(v, _mm_set1_pd(-0.0))};
  }
  friend void interleave(Vec even, Vec odd, Vec& lo, Vec& hi) {
    lo.v = _mm_unpacklo_pd(even.v, odd.v);
    hi.v = _mm_unpackhi_pd(even.v, odd.v);
  }
};

#if defined(__AVX2__)

template <>
struct Vec<4> {
  __m256d v;

  static Vec load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static Vec broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static Vec gather(const double* p, long stride, int lanes) {
    // Scalar composes beat microcoded hardware gathers at these strides.
    const double a = p[0];
    const double b = p[(1 < lanes ? 1 : lanes - 1) * stride];
    const double c = p[(2 < lanes ? 2 : lanes - 1) * stride];
    const double d = p[(3 < lanes ? 3 : lanes - 1) * stride];
    return {_mm256_set_pd(d, c, b, a)};
  }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  void scatter(double* p, long stride, int lanes) const {
    double tmp[4];
    _mm256_storeu_pd(tmp, v);
    for (int l = 0; l < lanes; ++l) p[l * stride] = tmp[l];
  }
  friend Vec operator+(Vec a, Vec b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {_mm256_div_pd(a.v, b.v)}; }
  Vec operator-() const {
    return {_mm256_xor_pd(v, _mm256_set1_pd(-0.0))};
  }
  friend void deinterleave(Vec lo, Vec hi, Vec& even, Vec& odd) {
    // In-lane unpacks give {x0, x4, x2, x6} / {x1, x5, x3, x7}; one
    // cross-lane permute each restores ascending order.
    even.v = _mm256_permute4x64_pd(_mm256_unpacklo_pd(lo.v, hi.v), 0xD8);
    odd.v = _mm256_permute4x64_pd(_mm256_unpackhi_pd(lo.v, hi.v), 0xD8);
  }
  friend void interleave(Vec even, Vec odd, Vec& lo, Vec& hi) {
    const __m256d a = _mm256_unpacklo_pd(even.v, odd.v);  // e0 o0 e2 o2
    const __m256d b = _mm256_unpackhi_pd(even.v, odd.v);  // e1 o1 e3 o3
    lo.v = _mm256_permute2f128_pd(a, b, 0x20);
    hi.v = _mm256_permute2f128_pd(a, b, 0x31);
  }
  friend Vec blend_even(Vec a, Vec b) {
    return {_mm256_blend_pd(a.v, b.v, 0xA)};  // lanes 1, 3 from b
  }
};

#endif  // __AVX2__

#elif defined(PBMG_SIMD_NEON)

template <>
struct Vec<2> {
  float64x2_t v;

  static Vec load(const double* p) { return {vld1q_f64(p)}; }
  static Vec broadcast(double x) { return {vdupq_n_f64(x)}; }
  static Vec gather(const double* p, long stride, int lanes) {
    const double tmp[2] = {p[0], p[(1 < lanes ? 1 : lanes - 1) * stride]};
    return {vld1q_f64(tmp)};
  }
  void store(double* p) const { vst1q_f64(p, v); }
  void scatter(double* p, long stride, int lanes) const {
    double tmp[2];
    vst1q_f64(tmp, v);
    for (int l = 0; l < lanes; ++l) p[l * stride] = tmp[l];
  }
  friend Vec operator+(Vec a, Vec b) { return {vaddq_f64(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {vsubq_f64(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {vmulq_f64(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {vdivq_f64(a.v, b.v)}; }
  Vec operator-() const { return {vnegq_f64(v)}; }
  friend void interleave(Vec even, Vec odd, Vec& lo, Vec& hi) {
    lo.v = vzip1q_f64(even.v, odd.v);
    hi.v = vzip2q_f64(even.v, odd.v);
  }
};

#endif  // PBMG_SIMD_SSE2 / PBMG_SIMD_NEON

}  // namespace pbmg::grid::simd
