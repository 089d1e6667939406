#include "lhd/nn/gemm.hpp"

#include <algorithm>

#include "lhd/nn/tensor.hpp"

namespace lhd::nn {

// --------------------------------------------------------------- blocked --
//
// Classic three-level cache blocking (GotoBLAS shape): panels of B
// (kKC × kNC) are packed into column-major-of-NR-slivers scratch, panels
// of A (kMC × kKC) into row-major-of-MR-slivers scratch, and a kMR × kNR
// register microkernel walks the packed panels. Packing zero-pads the
// sliver tails, so the microkernel always runs full kMR × kNR with no
// branches; the write-back clips to the real m × n. All scratch is
// kTensorAlignment-aligned and thread-local — concurrent infer() calls
// from scan shards never share packing buffers.

namespace {

// The 6×32 accumulator tile is what GCC's autovectorizer needs to keep the
// whole accumulator in vector registers (four AVX2 lanes or two AVX-512
// lanes per row): measured on an AVX-512 Xeon, 6×32 sustains ~150 GFLOP/s
// where a 4×16 tile fails to vectorize at all (~3 GFLOP/s).
constexpr int kMR = 6;    // microkernel rows (accumulator rows)
constexpr int kNR = 32;   // microkernel cols, in floats
constexpr int kMC = 96;   // A-panel rows kept L2-resident (multiple of kMR)
constexpr int kKC = 256;  // shared K extent of the packed panels
constexpr int kNC = 1024; // B-panel cols kept L3-resident (multiple of kNR)

inline std::size_t uz(int v) { return static_cast<std::size_t>(v); }

/// Pack a (mc × kc) block of A, rows [i0, i0+mc), cols [p0, p0+kc), into
/// slivers of kMR rows: sliver s holds kc groups of kMR floats, column by
/// column, rows beyond mc zero-filled.
void pack_a(const float* a, int lda, int i0, int p0, int mc, int kc,
            float* dst) {
  for (int i = 0; i < mc; i += kMR) {
    const int rows = std::min(kMR, mc - i);
    for (int p = 0; p < kc; ++p) {
      for (int r = 0; r < kMR; ++r) {
        *dst++ = r < rows ? a[uz(i0 + i + r) * uz(lda) + uz(p0 + p)] : 0.0f;
      }
    }
  }
}

/// Pack a (kc × nc) block of B, rows [p0, p0+kc), cols [j0, j0+nc), into
/// slivers of kNR columns: sliver s holds kc groups of kNR floats, row by
/// row, columns beyond nc zero-filled. With trans_b the source is the
/// (n × k) row-major matrix read through its transpose — packing absorbs
/// the transpose so the microkernel never sees it.
void pack_b(const float* b, int ldb, bool trans_b, int p0, int j0, int kc,
            int nc, float* dst) {
  for (int j = 0; j < nc; j += kNR, dst += uz(kc) * uz(kNR)) {
    const int cols = std::min(kNR, nc - j);
    if (trans_b) {
      // Sliver column q is source row j0+j+q: read each row contiguously
      // and write it down the (L1-resident) sliver with stride kNR, rather
      // than gathering kNR rows ldb apart for every p.
      for (int q = 0; q < kNR; ++q) {
        float* out = dst + q;
        if (q < cols) {
          const float* src = b + uz(j0 + j + q) * uz(ldb) + uz(p0);
          for (int p = 0; p < kc; ++p) out[uz(p) * uz(kNR)] = src[p];
        } else {
          for (int p = 0; p < kc; ++p) out[uz(p) * uz(kNR)] = 0.0f;
        }
      }
    } else {
      for (int p = 0; p < kc; ++p) {
        const float* src = b + uz(p0 + p) * uz(ldb) + uz(j0 + j);
        float* out = dst + uz(p) * uz(kNR);
        for (int q = 0; q < kNR; ++q) out[q] = q < cols ? src[q] : 0.0f;
      }
    }
  }
}

/// kMR × kNR microkernel: acc += Asliver * Bsliver over kc, accumulators
/// in registers, then C[i][j] += acc clipped to (rows × cols). The inner
/// q-loop is a fixed kNR-wide float FMA the autovectorizer lowers to full
/// vector lanes; the fixed-trip r/q loops unroll completely.
void micro_kernel(int kc, const float* apanel, const float* bpanel, float* c,
                  int ldc, int rows, int cols) {
  float acc[kMR][kNR] = {};
  for (int p = 0; p < kc; ++p) {
    const float* av = apanel + uz(p) * uz(kMR);
    const float* bv = bpanel + uz(p) * uz(kNR);
    for (int r = 0; r < kMR; ++r) {
      const float ar = av[r];
      for (int q = 0; q < kNR; ++q) {
        acc[r][q] += ar * bv[q];
      }
    }
  }
  for (int r = 0; r < rows; ++r) {
    float* crow = c + uz(r) * uz(ldc);
    for (int q = 0; q < cols; ++q) {
      crow[q] += acc[r][q];
    }
  }
}

/// micro_kernel twin that reads B in place (row-major, stride ldb) instead
/// of from a packed panel. Only called on full kNR-wide tiles, so every
/// bv[q] read stays inside the matrix. Same accumulation order as the
/// packed kernel, and the same loop shape, so the compiler makes the same
/// FMA-contraction choice for both: results are bit-identical, which the
/// batched vs per-sample score contract (docs/PERFORMANCE.md) rests on.
void micro_kernel_direct_b(int kc, const float* apanel, const float* b,
                           int ldb, float* c, int ldc, int rows) {
  float acc[kMR][kNR] = {};
  for (int p = 0; p < kc; ++p) {
    const float* av = apanel + uz(p) * uz(kMR);
    const float* bv = b + uz(p) * uz(ldb);
    for (int r = 0; r < kMR; ++r) {
      const float ar = av[r];
      for (int q = 0; q < kNR; ++q) {
        acc[r][q] += ar * bv[q];
      }
    }
  }
  for (int r = 0; r < rows; ++r) {
    float* crow = c + uz(r) * uz(ldc);
    for (int q = 0; q < kNR; ++q) {
      crow[q] += acc[r][q];
    }
  }
}

}  // namespace

void gemm(int m, int n, int k, const float* a, int lda, const float* b,
          int ldb, bool trans_b, float* c, int ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) return;  // C += A*B with empty K is a no-op
  thread_local AlignedVec apack;
  thread_local AlignedVec bpack;
  apack.resize(uz(kMC) * uz(kKC));
  bpack.resize(uz(kKC) * uz(kNC));

  // With m ≤ kMC there is a single A block, so each packed B panel would be
  // consumed exactly once — packing it is pure memory traffic with zero
  // reuse. Read B in place instead (possible when it isn't transposed: the
  // microkernel's kNR-wide rows are contiguous in memory), and pack only
  // the n-tail sliver, whose zero-padding the direct kernel can't provide.
  // The im2col-lowered convolutions (m = out channels, n = batch·H·W) and
  // Linear up to kMC samples (m = batch, B = the [in][out] weight) are
  // exactly this shape.
  const bool direct_b = !trans_b && m <= kMC;

  for (int j0 = 0; j0 < n; j0 += kNC) {
    const int nc = std::min(kNC, n - j0);
    for (int p0 = 0; p0 < k; p0 += kKC) {
      const int kc = std::min(kKC, k - p0);
      if (!direct_b) pack_b(b, ldb, trans_b, p0, j0, kc, nc, bpack.data());
      for (int i0 = 0; i0 < m; i0 += kMC) {
        const int mc = std::min(kMC, m - i0);
        pack_a(a, lda, i0, p0, mc, kc, apack.data());
        for (int jr = 0; jr < nc; jr += kNR) {
          const int cols = std::min(kNR, nc - jr);
          const float* bdirect = nullptr;
          const float* bpanel = nullptr;
          if (direct_b && cols == kNR) {
            bdirect = b + uz(p0) * uz(ldb) + uz(j0 + jr);
          } else if (direct_b) {
            pack_b(b, ldb, false, p0, j0 + jr, kc, cols, bpack.data());
            bpanel = bpack.data();
          } else {
            bpanel = bpack.data() + uz(jr) * uz(kc);
          }
          for (int ir = 0; ir < mc; ir += kMR) {
            const float* apanel = apack.data() + uz(ir) * uz(kc);
            const int rows = std::min(kMR, mc - ir);
            float* ctile = c + uz(i0 + ir) * uz(ldc) + uz(j0 + jr);
            if (bdirect != nullptr) {
              micro_kernel_direct_b(kc, apanel, bdirect, ldb, ctile, ldc,
                                    rows);
            } else {
              micro_kernel(kc, apanel, bpanel, ctile, ldc, rows, cols);
            }
          }
        }
      }
    }
  }
}

}  // namespace lhd::nn
