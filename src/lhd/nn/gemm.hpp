#pragma once
// Cache-blocked single-precision GEMM — the shared microkernel behind every
// Conv2d (im2col+GEMM) and Linear product, forward and backward. The
// layout/alignment/tolerance contract every caller relies on is written
// down in docs/PERFORMANCE.md; the triple loop it is tested against is
// testkit::gemm_reference.

namespace lhd::nn {

/// C (m×n, row-major, leading dimension ldc) += A (m×k, row-major, lda)
/// times B, where B is
///  * trans_b == false: k×n row-major with leading dimension ldb, or
///  * trans_b == true:  n×k row-major with leading dimension ldb, used as
///    its transpose (the backward passes' products against a weight or
///    im2col matrix); packing absorbs the transpose.
/// Accumulates into C, so callers seed C with the bias. Any m, n, k ≥ 0;
/// pointers may be unaligned (packing copies into aligned scratch).
void gemm(int m, int n, int k, const float* a, int lda, const float* b,
          int ldb, bool trans_b, float* c, int ldc);

}  // namespace lhd::nn
