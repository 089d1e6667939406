#include "lhd/testkit/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "lhd/data/io.hpp"
#include "lhd/feature/dct.hpp"
#include "lhd/gds/reader.hpp"
#include "lhd/gds/writer.hpp"
#include "lhd/geom/polygon.hpp"
#include "lhd/nn/gemm.hpp"
#include "lhd/nn/layers.hpp"
#include "lhd/nn/serialize.hpp"
#include "lhd/testkit/property.hpp"
#include "lhd/util/check.hpp"
#include "lhd/util/thread_pool.hpp"

namespace lhd::testkit {

namespace {

[[noreturn]] void oracle_fail(const std::string& what) {
  throw PropertyFailure(what);
}

std::size_t idx(int n, int r, int c) {
  return static_cast<std::size_t>(r) * static_cast<std::size_t>(n) +
         static_cast<std::size_t>(c);
}

/// Orthonormal DCT-II basis row scale: c(0) = sqrt(1/n), c(k>0) = sqrt(2/n).
double basis_scale(int n, int k) {
  return k == 0 ? std::sqrt(1.0 / n) : std::sqrt(2.0 / n);
}

double basis(int n, int k, int i) {
  return basis_scale(n, k) *
         std::cos(M_PI * (2.0 * i + 1.0) * k / (2.0 * n));
}

void compare_blocks(const double* a, const double* b, int n, double tol,
                    const char* what) {
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      const double diff = std::abs(a[idx(n, r, c)] - b[idx(n, r, c)]);
      if (!(diff <= tol)) {
        std::ostringstream os;
        os << what << ": coefficient (" << r << "," << c << ") differs by "
           << diff << " (tolerance " << tol << "): " << a[idx(n, r, c)]
           << " vs " << b[idx(n, r, c)];
        oracle_fail(os.str());
      }
    }
  }
}

}  // namespace

void naive_dct2d(const double* in, double* out, int n) {
  LHD_CHECK(n > 0, "DCT block side must be positive");
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      double acc = 0.0;
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          acc += in[idx(n, i, j)] * basis(n, u, i) * basis(n, v, j);
        }
      }
      out[idx(n, u, v)] = acc;
    }
  }
}

void matrix_dct2d(const double* in, double* out, int n) {
  LHD_CHECK(n > 0, "DCT block side must be positive");
  // tmp = B * in (rows transformed), out = tmp * B^T (columns transformed)
  // — the same two-matmul shape as the production float kernel.
  std::vector<double> tmp(static_cast<std::size_t>(n) *
                          static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int i = 0; i < n; ++i) acc += basis(n, u, i) * in[idx(n, i, j)];
      tmp[idx(n, u, j)] = acc;
    }
  }
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      double acc = 0.0;
      for (int j = 0; j < n; ++j) acc += tmp[idx(n, u, j)] * basis(n, v, j);
      out[idx(n, u, v)] = acc;
    }
  }
}

void expect_dct_parity(const std::vector<float>& block, int n,
                       double algo_tol, double float_tol) {
  const auto count =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  LHD_CHECK(block.size() == count, "block size must be n*n");

  std::vector<double> in_d(count);
  for (std::size_t i = 0; i < count; ++i) in_d[i] = block[i];

  std::vector<double> ref(count), fast_d(count);
  naive_dct2d(in_d.data(), ref.data(), n);
  matrix_dct2d(in_d.data(), fast_d.data(), n);
  compare_blocks(fast_d.data(), ref.data(), n, algo_tol,
                 "matrix DCT vs naive DCT (double)");

  std::vector<float> prod(count), round(count);
  feature::dct2d(block.data(), prod.data(), n);
  std::vector<double> prod_d(count);
  for (std::size_t i = 0; i < count; ++i) prod_d[i] = prod[i];
  compare_blocks(prod_d.data(), ref.data(), n, float_tol,
                 "production float DCT vs naive DCT");

  feature::idct2d(prod.data(), round.data(), n);
  for (std::size_t i = 0; i < count; ++i) {
    const double diff = std::abs(static_cast<double>(round[i]) - block[i]);
    if (!(diff <= float_tol)) {
      std::ostringstream os;
      os << "idct2d(dct2d(x)) round-trip: element " << i << " differs by "
         << diff << " (tolerance " << float_tol << ")";
      oracle_fail(os.str());
    }
  }
}

float DensityCutDetector::score(const data::Clip& clip) const {
  const double area = static_cast<double>(geom::union_area(clip.rects));
  const double total =
      static_cast<double>(clip.window_nm) * clip.window_nm;
  return static_cast<float>(area / total);
}

core::ScanResult naive_scan(const core::ChipIndex& chip,
                            const core::Detector& detector,
                            const core::ScanConfig& config,
                            const core::Detector* prefilter) {
  LHD_CHECK(config.window_nm > 0 && config.stride_nm > 0, "bad scan config");
  core::ScanResult result;
  const geom::Rect& extent = chip.extent();
  for (geom::Coord y = extent.ylo; y < extent.yhi; y += config.stride_nm) {
    for (geom::Coord x = extent.xlo; x < extent.xhi; x += config.stride_nm) {
      const geom::Rect window(x, y, x + config.window_nm,
                              y + config.window_nm);
      ++result.windows_total;
      data::Clip clip;
      clip.rects = chip.query(window);
      clip.window_nm = config.window_nm;
      if (config.skip_empty && clip.rects.empty()) continue;
      if (prefilter != nullptr && !prefilter->predict(clip)) continue;
      ++result.windows_classified;
      const float score = detector.score(clip);
      if (score > detector.threshold()) {
        ++result.flagged;
        result.hits.push_back({window, score});
      }
    }
  }
  return result;
}

namespace {

/// Same windows, same flagged count, same hit list (==, window and score)
/// as the oracle's result; `label` names the scan under test.
void expect_same_answer(const core::ScanResult& got,
                        const core::ScanResult& want,
                        const std::string& label) {
  std::ostringstream os;
  os << label << " vs naive_scan: ";
  if (got.windows_total != want.windows_total ||
      got.flagged != want.flagged) {
    os << "window counts diverge (total " << got.windows_total << "/"
       << want.windows_total << ", flagged " << got.flagged << "/"
       << want.flagged << ")";
    oracle_fail(os.str());
  }
  if (got.hits.size() != want.hits.size()) {
    os << "hit count " << got.hits.size() << " vs " << want.hits.size();
    oracle_fail(os.str());
  }
  for (std::size_t i = 0; i < want.hits.size(); ++i) {
    if (!(got.hits[i] == want.hits[i])) {
      const auto& g = got.hits[i];
      const auto& w = want.hits[i];
      os << "hit " << i << " differs: window (" << g.window.xlo << ","
         << g.window.ylo << ") score " << g.score << " vs (" << w.window.xlo
         << "," << w.window.ylo << ") score " << w.score;
      oracle_fail(os.str());
    }
  }
}

/// Memoized scans may classify fewer windows than the oracle, never more.
void expect_no_extra_work(const core::ScanResult& got,
                          const core::ScanResult& want,
                          const std::string& label) {
  if (got.windows_classified > want.windows_classified) {
    std::ostringstream os;
    os << label << " classified MORE windows than naive_scan ("
       << got.windows_classified << " vs " << want.windows_classified << ")";
    oracle_fail(os.str());
  }
}

}  // namespace

void expect_scan_parity(const core::ChipIndex& chip,
                        const core::Detector& detector,
                        core::ScanConfig config,
                        const std::vector<std::size_t>& thread_counts,
                        ThreadPool& pool, const core::Detector* prefilter) {
  const auto want = naive_scan(chip, detector, config, prefilter);
  config.dedup = false;
  std::vector<std::size_t> all_threads = {1};
  all_threads.insert(all_threads.end(), thread_counts.begin(),
                     thread_counts.end());
  for (const std::size_t threads : all_threads) {
    config.threads = threads;
    const auto got =
        prefilter != nullptr
            ? core::scan_chip_two_stage(chip, *prefilter, detector, config,
                                        pool)
            : core::scan_chip(chip, detector, config, pool);
    std::ostringstream label;
    label << (prefilter != nullptr ? "two-stage " : "") << "scan(threads="
          << threads << ")";
    expect_same_answer(got, want, label.str());
    // Without a memo every surviving window is scored exactly once.
    if (got.windows_classified != want.windows_classified) {
      oracle_fail(label.str() + " classified " +
                  std::to_string(got.windows_classified) + " windows, " +
                  "naive_scan " + std::to_string(want.windows_classified));
    }
  }
}

void expect_dedup_scan_parity(const core::ChipIndex& chip,
                              const core::Detector& detector,
                              core::ScanConfig config,
                              const std::vector<std::size_t>& thread_counts,
                              const std::vector<std::size_t>& cache_capacities,
                              const std::vector<std::size_t>& batch_sizes,
                              ThreadPool& pool) {
  const auto want = naive_scan(chip, detector, config);
  config.dedup = true;
  for (const std::size_t threads : thread_counts) {
    for (const std::size_t capacity : cache_capacities) {
      for (const std::size_t batch : batch_sizes) {
        config.threads = threads;
        config.cache_capacity = capacity;
        config.batch = batch;
        const auto got = core::scan_chip(chip, detector, config, pool);
        std::ostringstream label;
        label << "dedup scan(threads=" << threads << ", capacity="
              << capacity << ", batch=" << batch << ")";
        expect_same_answer(got, want, label.str());
        expect_no_extra_work(got, want, label.str());
      }
    }
  }
}

void expect_hierarchical_scan_parity(
    const gds::Library& lib, const std::string& top, std::int16_t layer,
    const core::Detector& detector, core::ScanConfig config,
    const std::vector<std::size_t>& thread_counts, ThreadPool& pool) {
  const auto want = naive_scan(core::ChipIndex::from_library(lib, top, layer),
                               detector, config);
  config.hierarchical = true;
  for (const std::size_t threads : thread_counts) {
    for (const bool dedup : {false, true}) {
      config.threads = threads;
      config.dedup = dedup;
      const auto got =
          core::scan_library(lib, top, layer, detector, config, pool);
      std::ostringstream label;
      label << "hierarchical scan(threads=" << threads << ", dedup=" << dedup
            << ")";
      expect_same_answer(got, want, label.str());
      expect_no_extra_work(got, want, label.str());
    }
  }
}

namespace {

std::size_t zu(int v) { return static_cast<std::size_t>(v); }

void fill_uniform(Rng& rng, float* dst, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] = static_cast<float>(rng.next_double(-1.0, 1.0));
  }
}

void compare_close(const float* fast, const float* ref, std::size_t count,
                   double tol, const char* what) {
  for (std::size_t i = 0; i < count; ++i) {
    const double f = fast[i];
    const double r = ref[i];
    const double diff = std::abs(f - r);
    const double bound = tol * (1.0 + std::max(std::abs(f), std::abs(r)));
    if (!(diff <= bound)) {
      std::ostringstream os;
      os << what << ": element " << i << " differs by " << diff << " (bound "
         << bound << "): fast " << f << " vs reference " << r;
      oracle_fail(os.str());
    }
  }
}

}  // namespace

void gemm_reference(int m, int n, int k, const float* a, int lda,
                    const float* b, int ldb, bool trans_b, float* c,
                    int ldc) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + zu(i) * zu(lda);
    float* crow = c + zu(i) * zu(ldc);
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) {
        const float bv = trans_b ? b[zu(j) * zu(ldb) + zu(p)]
                                 : b[zu(p) * zu(ldb) + zu(j)];
        acc += arow[p] * bv;
      }
      crow[j] += acc;
    }
  }
}

nn::Tensor conv2d_reference(const nn::Tensor& input,
                            std::span<const float> weight,
                            std::span<const float> bias, int out_channels,
                            int kernel, int pad) {
  LHD_CHECK(input.rank() == 4, "conv2d_reference wants NCHW");
  const int n = input.dim(0);
  const int in_c = input.dim(1);
  const int h = input.dim(2);
  const int w = input.dim(3);
  const int oh = h + 2 * pad - kernel + 1;
  const int ow = w + 2 * pad - kernel + 1;
  LHD_CHECK(oh > 0 && ow > 0, "conv2d_reference kernel exceeds padded input");
  LHD_CHECK(weight.size() == zu(out_channels) * zu(in_c) * zu(kernel) *
                                 zu(kernel) &&
                bias.size() == zu(out_channels),
            "conv2d_reference weight/bias size mismatch");
  nn::Tensor out({n, out_channels, oh, ow});
  std::size_t o = 0;
  for (int s = 0; s < n; ++s) {
    for (int oc = 0; oc < out_channels; ++oc) {
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          double acc = bias[zu(oc)];
          for (int c = 0; c < in_c; ++c) {
            for (int ky = 0; ky < kernel; ++ky) {
              const int iy = oy + ky - pad;
              if (iy < 0 || iy >= h) continue;
              for (int kx = 0; kx < kernel; ++kx) {
                const int ix = ox + kx - pad;
                if (ix < 0 || ix >= w) continue;
                const float x =
                    input.data()[((zu(s) * zu(in_c) + zu(c)) * zu(h) +
                                  zu(iy)) * zu(w) + zu(ix)];
                const float wt =
                    weight[((zu(oc) * zu(in_c) + zu(c)) * zu(kernel) +
                            zu(ky)) * zu(kernel) + zu(kx)];
                acc += static_cast<double>(x) * static_cast<double>(wt);
              }
            }
          }
          out[o++] = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

nn::Tensor reference_forward(nn::Network& net, const nn::Tensor& input) {
  nn::Tensor t = input;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    nn::Layer& layer = net.layer(i);
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      const std::vector<nn::Param> params = conv->params();
      t = conv2d_reference(t, *params[0].value, *params[1].value,
                           conv->out_channels(), conv->kernel(), conv->pad());
    } else if (auto* linear = dynamic_cast<nn::Linear*>(&layer)) {
      // Linear flattens any input to [N, in_features]: seed the output
      // rows with the bias, then accumulate x · Wᵀ.
      const std::vector<nn::Param> params = linear->params();
      const std::vector<float>& weight = *params[0].value;
      const std::vector<float>& bias = *params[1].value;
      const int n = t.dim(0);
      const int out_f = static_cast<int>(bias.size());
      const int in_f = static_cast<int>(weight.size() / bias.size());
      LHD_CHECK(t.size() == zu(n) * zu(in_f),
                "reference_forward: linear input size mismatch");
      nn::Tensor out({n, out_f});
      for (int s = 0; s < n; ++s) {
        std::copy(bias.begin(), bias.end(), out.data() + zu(s) * zu(out_f));
      }
      gemm_reference(n, out_f, in_f, t.data(), in_f, weight.data(), in_f,
                     /*trans_b=*/true, out.data(), out_f);
      t = std::move(out);
    } else {
      t = std::as_const(layer).infer(t);
    }
  }
  return t;
}

void expect_nn_kernel_parity(Rng& rng, std::size_t size, double tol) {
  // 1. Raw GEMM, blocked vs naive. The bounds keep shapes small enough to
  //    shrink well while still crossing the microkernel sliver edges
  //    (and, at large sizes, the kKC panel edge) so tail handling is hit.
  {
    const int m = static_cast<int>(1 + rng.next_below(6 + size / 4));
    const int n = static_cast<int>(1 + rng.next_below(20 + size));
    const int k = static_cast<int>(1 + rng.next_below(12 + 4 * size));
    const bool trans_b = rng.next_bool();
    std::vector<float> a(zu(m) * zu(k));
    std::vector<float> b(zu(k) * zu(n));
    fill_uniform(rng, a.data(), a.size());
    fill_uniform(rng, b.data(), b.size());
    std::vector<float> c_fast(zu(m) * zu(n));
    fill_uniform(rng, c_fast.data(), c_fast.size());
    std::vector<float> c_ref = c_fast;
    const int ldb = trans_b ? k : n;
    nn::gemm(m, n, k, a.data(), k, b.data(), ldb, trans_b, c_fast.data(), n);
    gemm_reference(m, n, k, a.data(), k, b.data(), ldb, trans_b,
                   c_ref.data(), n);
    std::ostringstream what;
    what << "blocked GEMM vs reference (m=" << m << " n=" << n << " k=" << k
         << " trans_b=" << trans_b << ")";
    compare_close(c_fast.data(), c_ref.data(), c_fast.size(), tol,
                  what.str().c_str());
  }

  // 2. A random conv→relu→pool→linear stack, infer() vs the reference
  //    forward. Channel counts deliberately include values that are not multiples
  //    of any sliver width.
  {
    const int batch = static_cast<int>(1 + rng.next_below(3 + size / 8));
    const int grid = 4 * static_cast<int>(1 + rng.next_below(2));
    const int in_c = static_cast<int>(1 + rng.next_below(4));
    const int mid_c = static_cast<int>(1 + rng.next_below(12));
    const int out_f = static_cast<int>(1 + rng.next_below(8));
    nn::Network net;
    net.add(std::make_unique<nn::Conv2d>(in_c, mid_c, 3, 1));
    net.add(std::make_unique<nn::Relu>());
    net.add(std::make_unique<nn::MaxPool2>());
    net.add(std::make_unique<nn::Linear>(mid_c * (grid / 2) * (grid / 2),
                                         out_f));
    Rng winit(rng.next_u64());
    net.init(winit);

    nn::Tensor in({batch, in_c, grid, grid});
    fill_uniform(rng, in.data(), in.size());

    const nn::Tensor fast = net.infer(in);
    const nn::Tensor ref = reference_forward(net, in);
    std::ostringstream what;
    what << "conv/linear stack infer vs reference forward (batch=" << batch
         << " grid=" << grid << " in_c=" << in_c << " mid_c=" << mid_c
         << " out_f=" << out_f << ")";
    compare_close(fast.data(), ref.data(), fast.size(), tol,
                  what.str().c_str());
  }

  // 3. The batch-1 Linear shape (m = 1, trans_b): gemm() takes the
  //    no-packing row-direct path. Checked two ways: close to the naive
  //    reference, and — the property the per-sample vs batched score
  //    contract rests on — bit-identical to the same row computed by the
  //    blocked multi-row path. k deliberately straddles the kKC = 256
  //    panel edge so the chunked accumulation order is exercised.
  {
    const int n = static_cast<int>(1 + rng.next_below(20 + size));
    const int k = static_cast<int>(200 + rng.next_below(120 + 4 * size));
    const int rows = static_cast<int>(2 + rng.next_below(3));
    std::vector<float> a(zu(rows) * zu(k));
    std::vector<float> b(zu(n) * zu(k));  // n×k weight matrix, used as Bᵀ
    std::vector<float> bias(zu(n));
    fill_uniform(rng, a.data(), a.size());
    fill_uniform(rng, b.data(), b.size());
    fill_uniform(rng, bias.data(), bias.size());

    std::vector<float> c_direct = bias;  // C seeded with the bias, as Linear does
    nn::gemm(1, n, k, a.data(), k, b.data(), k, /*trans_b=*/true,
             c_direct.data(), n);
    std::vector<float> c_batch(zu(rows) * zu(n));
    for (int r = 0; r < rows; ++r) {
      std::copy(bias.begin(), bias.end(), c_batch.begin() + zu(r) * zu(n));
    }
    nn::gemm(rows, n, k, a.data(), k, b.data(), k, /*trans_b=*/true,
             c_batch.data(), n);
    std::vector<float> c_ref = bias;
    gemm_reference(1, n, k, a.data(), k, b.data(), k, /*trans_b=*/true,
                   c_ref.data(), n);

    std::ostringstream what;
    what << "batch-1 row-direct GEMM (n=" << n << " k=" << k << ")";
    compare_close(c_direct.data(), c_ref.data(), zu(n), tol,
                  what.str().c_str());
    if (std::memcmp(c_direct.data(), c_batch.data(),
                    zu(n) * sizeof(float)) != 0) {
      std::ostringstream os;
      os << what.str()
         << ": row 0 is not bit-identical to the blocked multi-row path "
            "(rows="
         << rows << ") — the per-sample vs batched score contract is broken";
      oracle_fail(os.str());
    }
  }
}

namespace {

void compare_bytes(const std::vector<std::uint8_t>& a,
                   const std::vector<std::uint8_t>& b, const char* what) {
  if (a.size() != b.size()) {
    std::ostringstream os;
    os << what << ": byte count " << a.size() << " vs " << b.size();
    oracle_fail(os.str());
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      std::ostringstream os;
      os << what << ": first difference at offset " << i << " (0x" << std::hex
         << static_cast<int>(a[i]) << " vs 0x" << static_cast<int>(b[i])
         << ")";
      oracle_fail(os.str());
    }
  }
}

std::vector<std::uint8_t> stream_bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

}  // namespace

void expect_gds_fixpoint(const gds::Library& lib) {
  const auto first = gds::write_bytes(lib);
  const gds::Library round = gds::read_bytes(first);
  const auto second = gds::write_bytes(round);
  compare_bytes(second, first, "GDS write->read->write fixpoint");
}

void expect_weights_fixpoint(nn::Network& a, nn::Network& b) {
  std::ostringstream first;
  nn::save_weights(a, first);
  std::istringstream in(first.str());
  nn::load_weights(b, in);
  std::ostringstream second;
  nn::save_weights(b, second);
  compare_bytes(stream_bytes(second.str()), stream_bytes(first.str()),
                "weights save->load->save fixpoint");

  const auto pa = a.params();
  const auto pb = b.params();
  if (pa.size() != pb.size()) {
    oracle_fail("weights fixpoint: networks have different topology");
  }
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (*pa[i].value != *pb[i].value) {
      std::ostringstream os;
      os << "weights fixpoint: parameter " << i
         << " differs after load (size " << pa[i].value->size() << " vs "
         << pb[i].value->size() << ")";
      oracle_fail(os.str());
    }
  }
}

void expect_dataset_fixpoint(const data::Dataset& ds) {
  std::ostringstream first;
  data::save_dataset(ds, first);
  std::istringstream in(first.str());
  const data::Dataset round = data::load_dataset(in);
  std::ostringstream second;
  data::save_dataset(round, second);
  compare_bytes(stream_bytes(second.str()), stream_bytes(first.str()),
                "dataset save->load->save fixpoint");
}

}  // namespace lhd::testkit
