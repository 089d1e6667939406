#pragma once
// Differential oracles: two independent implementations (or two execution
// strategies) of the same computation, checked for agreement. Each
// expect_* helper throws PropertyFailure with enough context to pin down
// the first disagreement; combined with CHECK_PROPERTY the failing seed
// is printed too.

#include <cstddef>
#include <span>
#include <vector>

#include "lhd/core/detector.hpp"
#include "lhd/core/scan.hpp"
#include "lhd/data/dataset.hpp"
#include "lhd/feature/dct.hpp"
#include "lhd/gds/model.hpp"
#include "lhd/nn/network.hpp"
#include "lhd/util/rng.hpp"

namespace lhd {
class ThreadPool;
}

namespace lhd::testkit {

// --- DCT --------------------------------------------------------------------

/// Textbook O(n²)-per-coefficient 2-D DCT-II with orthonormal scaling —
/// the slow reference the fast basis-matmul path is checked against.
void naive_dct2d(const double* in, double* out, int n);

/// The production algorithm (cached-basis matrix multiply) recomputed in
/// double precision, so the *algorithm* can be compared against the naive
/// definition at tight tolerance independent of float rounding.
void matrix_dct2d(const double* in, double* out, int n);

/// Three-way DCT check on one n×n block:
///   1. matrix_dct2d (double) vs naive_dct2d (double) within `algo_tol`
///      — same math, so 1e-9 holds;
///   2. production feature::dct2d (float) vs naive_dct2d within
///      `float_tol` — bounds the float rounding of the shipped kernel;
///   3. feature::idct2d(feature::dct2d(x)) round-trips within `float_tol`.
void expect_dct_parity(const std::vector<float>& block, int n,
                       double algo_tol = 1e-9, double float_tol = 5e-5);

/// The block-at-a-time DCT tensor: for every block of `raster`, gather it,
/// transform all b² coefficients with feature::dct2d and keep the first
/// `config.coefficients` in zig-zag order. feature::dct_tensor_from_raster
/// must return these exact bytes (memcmp, not a tolerance).
feature::DctTensor dct_tensor_reference(const geom::FloatImage& raster,
                                        const feature::DctConfig& config);

// --- scan -------------------------------------------------------------------

/// Geometry-density detector for parity tests: score = covered area /
/// window area, no training needed. Deterministic and thread-safe.
class DensityCutDetector : public core::Detector {
 public:
  explicit DensityCutDetector(float threshold = 0.10f)
      : threshold_(threshold) {}

  std::string name() const override { return "testkit-density-cut"; }
  void train(const data::Dataset&) override {}
  float score(const data::Clip& clip) const override;
  bool predict(const data::Clip& clip) const override {
    return score(clip) > threshold_;
  }
  void set_threshold(float threshold) override { threshold_ = threshold; }
  float threshold() const override { return threshold_; }

 private:
  float threshold_;
};

/// The scan's definition, one window at a time: the oracle every
/// scan-parity property compares against. Walks the row-major window grid
/// over chip.extent() (config.window_nm, config.stride_nm), queries each
/// window, skips empty ones (a window with no geometry is never scored),
/// and scores the window's own clip, exactly as it sits, with
/// detector.score(). With a prefilter, a window reaches detector.score() only if
/// prefilter->predict() accepts it (the two-stage scan). Fills
/// windows_total, windows_classified, flagged and hits; ignores threads,
/// dedup and the cache.
core::ScanResult naive_scan(const core::ChipIndex& chip,
                            const core::Detector& detector,
                            const core::ScanConfig& config,
                            const core::Detector* prefilter = nullptr);

/// Plain-scan equality: scan_chip (or scan_chip_two_stage when
/// `prefilter` is set) with dedup off, at threads=1 and at every entry of
/// `thread_counts` on the given pool, must give naive_scan's hits (==),
/// flagged, windows_total and windows_classified.
void expect_scan_parity(const core::ChipIndex& chip,
                        const core::Detector& detector,
                        core::ScanConfig config,
                        const std::vector<std::size_t>& thread_counts,
                        ThreadPool& pool,
                        const core::Detector* prefilter = nullptr);

/// Dedup-scan equality: across every (thread count, cache capacity)
/// combination the dedup scan must give naive_scan's hits (==),
/// flagged and windows_total, for any detector — the memo key is the
/// window's exact geometry. windows_classified is deliberately NOT
/// compared: with a shared cache it counts unique misses, which is
/// schedule-dependent; instead it must never exceed naive_scan's.
void expect_dedup_scan_parity(const core::ChipIndex& chip,
                              const core::Detector& detector,
                              core::ScanConfig config,
                              const std::vector<std::size_t>& thread_counts,
                              const std::vector<std::size_t>& cache_capacities,
                              ThreadPool& pool);

/// Hierarchical-scan equality: naive_scan over the flattened `top`/`layer`
/// is the answer; scan_library with ScanConfig::hierarchical must give its
/// hits (==), flagged and windows_total across every (thread count, dedup
/// on/off) combination, for any detector. windows_classified (detector
/// invocations) must never exceed naive_scan's: replay plus dedup can only
/// shrink the detector work.
void expect_hierarchical_scan_parity(
    const gds::Library& lib, const std::string& top, std::int16_t layer,
    const core::Detector& detector, core::ScanConfig config,
    const std::vector<std::size_t>& thread_counts, ThreadPool& pool);

// --- nn kernels -------------------------------------------------------------

/// Textbook triple loop with nn::gemm's signature and semantics: C (m×n,
/// ldc) += A (m×k, lda) times B (k×n, or n×k read transposed when
/// trans_b). The GEMM oracle the blocked kernel and Linear are held to.
void gemm_reference(int m, int n, int k, const float* a, int lda,
                    const float* b, int ldb, bool trans_b, float* c,
                    int ldc);

/// Double-precision direct convolution — the conv oracle nn::Conv2d is
/// held to. NCHW input, stride 1, symmetric zero padding, weight
/// [out_c][in_c·k·k], bias [out_c]; output side h + 2·pad − kernel + 1.
nn::Tensor conv2d_reference(const nn::Tensor& input,
                            std::span<const float> weight,
                            std::span<const float> bias, int out_channels,
                            int kernel, int pad);

/// The reference forward Network::infer is compared against: walks
/// `net`'s layers, sending each Conv2d through conv2d_reference and each
/// Linear through gemm_reference with the layer's own params(), its
/// weight read in stream order ([out][in]); every other layer runs its own
/// infer().
nn::Tensor reference_forward(nn::Network& net, const nn::Tensor& input);

/// nn kernel parity against the oracles above, three checks per call:
///   1. the blocked GEMM vs gemm_reference on a random (m, n, k)
///      straddling the packing sliver edges, both B orientations, with C
///      seeded non-zero to verify the accumulate (+=) semantics;
///   2. a random conv→relu→pool→linear stack with random (odd-friendly)
///      channel counts, weights and batch: Network::infer() vs
///      reference_forward();
///   3. a batch-1 (m = 1) GEMM, both B orientations: close to
///      gemm_reference and bit-identical to the same row inside a
///      multi-row product.
/// Agreement with the oracles is tolerance-based — |fast - ref| ≤
/// tol·(1 + max magnitude) per element — because they accumulate in
/// different orders and precisions; bit equality is deliberately NOT the
/// contract (see docs/PERFORMANCE.md).
void expect_nn_kernel_parity(Rng& rng, std::size_t size, double tol = 1e-3);

/// The three gradients one layer's backward() produces, each summed over
/// the batch where the parameter is shared.
struct LayerGrads {
  nn::Tensor input;           ///< dL/d(input), shaped like the input
  std::vector<float> weight;  ///< dL/dW in the weight stream's order
  std::vector<float> bias;    ///< dL/db
};

/// Double-precision Conv2d backward straight from the definition
/// out[s][o][y][x] = b[o] + Σ W[o][c][ky][kx] · in[s][c][y+ky−pad][x+kx−pad]:
/// every (output, tap) pair adds its product to dW, dX and db. Same
/// layouts as conv2d_reference; `grad_output` is dL/d(out).
LayerGrads conv2d_backward_reference(const nn::Tensor& input,
                                     std::span<const float> weight,
                                     const nn::Tensor& grad_output,
                                     int kernel, int pad);

/// Double-precision Linear backward from out[s][j] = b[j] + Σ W[j][i]·x[s][i]
/// over the input flattened to [N, in_features]; weight [out][in].
LayerGrads linear_backward_reference(const nn::Tensor& input,
                                     std::span<const float> weight,
                                     const nn::Tensor& grad_output);

/// One Conv2d shape for expect_conv2d_backward_parity.
struct ConvShape {
  int batch = 1;
  int in_channels = 1;
  int out_channels = 1;
  int kernel = 1;
  int pad = 0;
  int height = 1;
  int width = 1;
};

/// Backward parity for one Conv2d of `shape`: random weights, input and
/// dL/d(out); parameter gradients pre-seeded non-zero to verify the
/// accumulate (+=) semantics; forward(training) then backward() must give
/// the reference's input gradient and seed + reference weight and bias
/// gradients within |fast − ref| ≤ tol·(1 + max magnitude) per element.
/// Like the forward oracles, a tolerance, not bit equality: the GEMM sums
/// in float in blocked order, the reference in double in definition order.
void expect_conv2d_backward_parity(const ConvShape& shape, Rng& rng,
                                   double tol = 1e-4);

/// The same check for a Linear(in_features, out_features) on a
/// [batch, in_features] input.
void expect_linear_backward_parity(int batch, int in_features,
                                   int out_features, Rng& rng,
                                   double tol = 1e-4);

// --- serialization fixpoints ------------------------------------------------

/// write → read → write must reproduce the exact byte stream (the writer
/// is canonical: fixed timestamps, deterministic record order).
void expect_gds_fixpoint(const gds::Library& lib);

/// save(a) → load into b (same topology) → save(b) must reproduce the
/// exact byte stream, and b's parameters must equal a's.
void expect_weights_fixpoint(nn::Network& a, nn::Network& b);

/// save → load → save must reproduce the exact byte stream.
void expect_dataset_fixpoint(const data::Dataset& ds);

}  // namespace lhd::testkit
