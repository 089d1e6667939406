// Tests for lhd/nn: tensors, layers (with numerical gradient checks), loss,
// optimizers, network training, biased learning, serialization.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lhd/nn/gemm.hpp"
#include "lhd/nn/network.hpp"
#include "lhd/nn/serialize.hpp"
#include "lhd/nn/trainer.hpp"
#include "lhd/obs/json.hpp"
#include "lhd/testkit/testkit.hpp"

namespace lhd::nn {
namespace {

// ---------------------------------------------------------------- tensor --

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.rank(), 3u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t[i], 0.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  t[7] = 3.5f;
  t.reshape({3, 4});
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_FLOAT_EQ(t[7], 3.5f);
}

TEST(Tensor, ReshapeSizeMismatchThrows) {
  Tensor t({2, 3});
  EXPECT_THROW(t.reshape({4, 2}), Error);
}

TEST(Tensor, RejectsNonPositiveDims) {
  EXPECT_THROW(Tensor({2, 0}), Error);
}

// ------------------------------------------------------- layer behaviours --

TEST(Relu, ZeroesNegativesForwardAndBackward) {
  Relu relu;
  Tensor in({1, 4});
  in[0] = -1.0f;
  in[1] = 2.0f;
  in[2] = 0.0f;
  in[3] = -0.5f;
  const Tensor out = relu.forward(in, true);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 2.0f);
  EXPECT_FLOAT_EQ(out[2], 0.0f);
  Tensor grad({1, 4}, 1.0f);
  const Tensor gin = relu.backward(grad);
  EXPECT_FLOAT_EQ(gin[0], 0.0f);
  EXPECT_FLOAT_EQ(gin[1], 1.0f);
  EXPECT_FLOAT_EQ(gin[3], 0.0f);
}

TEST(MaxPool2, PicksMaximaAndRoutesGradient) {
  MaxPool2 pool;
  Tensor in({1, 1, 2, 2});
  in[0] = 1.0f;
  in[1] = 5.0f;
  in[2] = 2.0f;
  in[3] = 3.0f;
  const Tensor out = pool.forward(in, true);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  Tensor grad({1, 1, 1, 1});
  grad[0] = 7.0f;
  const Tensor gin = pool.backward(grad);
  EXPECT_FLOAT_EQ(gin[1], 7.0f);
  EXPECT_FLOAT_EQ(gin[0], 0.0f);
}

TEST(MaxPool2, RejectsOddDims) {
  MaxPool2 pool;
  Tensor in({1, 1, 3, 4});
  EXPECT_THROW(pool.forward(in, true), Error);
}

TEST(Backward, RejectsMisShapedGradOutput) {
  // backward() indexes its forward caches by grad_output's extent: a
  // gradient of any other shape must throw instead of reading past them.
  Rng rng(9);
  Conv2d conv(2, 3, 3, 1);
  conv.init(rng);
  (void)conv.forward(Tensor({2, 2, 4, 4}), true);
  EXPECT_THROW(conv.backward(Tensor({3, 3, 4, 4})), Error);
  EXPECT_THROW(conv.backward(Tensor({2, 3, 2, 2})), Error);

  Linear lin(6, 4);
  lin.init(rng);
  (void)lin.forward(Tensor({2, 6}), true);
  EXPECT_THROW(lin.backward(Tensor({3, 4})), Error);
  EXPECT_THROW(lin.backward(Tensor({2, 5})), Error);

  MaxPool2 pool;
  (void)pool.forward(Tensor({1, 2, 4, 4}), true);
  EXPECT_THROW(pool.backward(Tensor({1, 2, 4, 4})), Error);

  Dropout drop(0.5);
  (void)drop.forward(Tensor({2, 8}), true);
  EXPECT_THROW(drop.backward(Tensor({2, 9})), Error);
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout drop(0.5);
  Tensor in({1, 100}, 1.0f);
  EXPECT_EQ(drop.forward(in, false), in);
}

TEST(Dropout, TrainModeDropsAboutP) {
  Dropout drop(0.5, /*seed=*/3);
  Tensor in({1, 2000}, 1.0f);
  const Tensor out = drop.forward(in, true);
  int zeros = 0;
  for (std::size_t i = 0; i < out.size(); ++i) zeros += (out[i] == 0.0f);
  EXPECT_NEAR(zeros / 2000.0, 0.5, 0.06);
  // Survivors are scaled by 1/(1-p).
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] != 0.0f) {
      EXPECT_FLOAT_EQ(out[i], 2.0f);
    }
  }
}

TEST(Linear, ComputesAffineMap) {
  Linear lin(2, 1);
  // Set weights manually: w = [3, -2], b = 1.
  auto params = lin.params();
  (*params[0].value)[0] = 3.0f;
  (*params[0].value)[1] = -2.0f;
  (*params[1].value)[0] = 1.0f;
  Tensor in({1, 2});
  in[0] = 4.0f;
  in[1] = 5.0f;
  const Tensor out = lin.forward(in, true);
  EXPECT_FLOAT_EQ(out[0], 3.0f * 4 - 2 * 5 + 1);
}

TEST(Linear, LoadsOutByInStreamAndReEmitsIt) {
  // A non-square 3→2 layer tells [out][in] from [in][out]. The weight
  // stream stores W as [out][in], whatever the layer keeps in memory:
  // load a hand-built stream, check the affine map against W[o][i]·x + b
  // computed by hand, and check save_weights re-emits the same bytes.
  const float w[2][3] = {{1.0f, 2.0f, 3.0f}, {-4.0f, 5.0f, -6.0f}};
  const float b[2] = {0.5f, -0.25f};
  std::string stream("LHDN", 4);
  const auto put = [&stream](const auto& v) {
    stream.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(std::uint32_t{1});  // version
  put(std::uint32_t{2});  // parameter count
  put(std::uint64_t{6});
  for (const auto& row : w) {
    for (const float v : row) put(v);
  }
  put(std::uint64_t{2});
  for (const float v : b) put(v);

  Network net;
  net.add(std::make_unique<Linear>(3, 2));
  std::istringstream in(stream);
  load_weights(net, in);

  Tensor x({1, 3});
  x[0] = 2.0f;
  x[1] = -1.0f;
  x[2] = 0.5f;
  const Tensor out = net.infer(x);
  ASSERT_EQ(out.shape(), (std::vector<int>{1, 2}));
  EXPECT_EQ(out[0], 1.0f * 2 + 2.0f * -1 + 3.0f * 0.5f + 0.5f);
  EXPECT_EQ(out[1], -4.0f * 2 + 5.0f * -1 + -6.0f * 0.5f - 0.25f);

  std::ostringstream again;
  save_weights(net, again);
  EXPECT_TRUE(again.str() == stream) << "save_weights changed the stream";
}

TEST(Conv2d, MatchesNaiveReference) {
  // 1 input channel, 1 output channel, 3x3 kernel on a 4x4 image, pad 1.
  Conv2d conv(1, 1, 3, 1);
  Rng rng(5);
  auto params = conv.params();
  for (auto& w : *params[0].value) {
    w = static_cast<float>(rng.next_gaussian());
  }
  (*params[1].value)[0] = 0.3f;

  Tensor in({1, 1, 4, 4});
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(rng.next_double());
  }
  const Tensor out = conv.forward(in, true);
  ASSERT_EQ(out.shape(), (std::vector<int>{1, 1, 4, 4}));

  const auto& w = *params[0].value;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      double expect = 0.3;  // bias
      for (int ky = 0; ky < 3; ++ky) {
        for (int kx = 0; kx < 3; ++kx) {
          const int sy = y + ky - 1;
          const int sx = x + kx - 1;
          if (sy < 0 || sy >= 4 || sx < 0 || sx >= 4) continue;
          expect += w[static_cast<std::size_t>(ky * 3 + kx)] *
                    in[static_cast<std::size_t>(sy * 4 + sx)];
        }
      }
      EXPECT_NEAR(out[static_cast<std::size_t>(y * 4 + x)], expect, 1e-4);
    }
  }
}

TEST(Conv2d, ChannelMismatchThrows) {
  Conv2d conv(3, 4, 3, 1);
  Tensor in({1, 2, 4, 4});
  EXPECT_THROW(conv.forward(in, true), Error);
}

// ------------------------------------------------------------ gemm kernel --

template <class Floats>
void fill_random(Rng& rng, Floats& v) {
  for (auto& x : v) x = static_cast<float>(rng.next_double(-1.0, 1.0));
}

TEST(Gemm, BlockedMatchesReferenceAcrossTailShapes) {
  // Shapes straddling the microkernel tile edges (MR=6, NR=32) and, with
  // k=300, the KC=256 panel edge. C is seeded non-zero so the accumulate
  // semantics are part of the comparison.
  Rng rng(71);
  for (const int m : {1, 5, 6, 7, 9, 97}) {
    for (const int n : {1, 31, 32, 33, 65}) {
      for (const int k : {1, 7, 64, 300}) {
        for (const bool trans_b : {false, true}) {
          const auto zm = static_cast<std::size_t>(m);
          const auto zn = static_cast<std::size_t>(n);
          const auto zk = static_cast<std::size_t>(k);
          std::vector<float> a(zm * zk), b(zk * zn), c_fast(zm * zn);
          fill_random(rng, a);
          fill_random(rng, b);
          fill_random(rng, c_fast);
          std::vector<float> c_ref = c_fast;
          const int ldb = trans_b ? k : n;
          gemm(m, n, k, a.data(), k, b.data(), ldb, trans_b, c_fast.data(),
               n);
          testkit::gemm_reference(m, n, k, a.data(), k, b.data(), ldb,
                                  trans_b, c_ref.data(), n);
          for (std::size_t i = 0; i < c_fast.size(); ++i) {
            ASSERT_NEAR(c_fast[i], c_ref[i],
                        1e-4 * (1.0 + std::abs(c_ref[i])))
                << "m=" << m << " n=" << n << " k=" << k
                << " trans_b=" << trans_b << " element " << i;
          }
        }
      }
    }
  }
}

TEST(Gemm, BatchOneRowDirectBitEqualsBlockedRow) {
  // The per-sample vs batched score contract: an m = 1 product must be
  // bit-identical to the same row computed inside a multi-row product, in
  // both B orientations. trans_b = false is the batch-1 Linear forward,
  // which reads its [in][out] weight in place; trans_b = true packs B
  // through its transpose. k values straddle the KC=256 panel edge (the
  // accumulation is chunked by KC), n values cross the NR=32 tile edge.
  Rng rng(76);
  const int rows = 4;
  for (const int n : {1, 8, 9, 33}) {
    for (const int k : {7, 256, 300, 1000}) {
      const auto zn = static_cast<std::size_t>(n);
      const auto zk = static_cast<std::size_t>(k);
      std::vector<float> a(static_cast<std::size_t>(rows) * zk), b(zn * zk);
      std::vector<float> bias(zn);
      fill_random(rng, a);
      fill_random(rng, b);
      fill_random(rng, bias);
      for (const bool trans_b : {false, true}) {
        const int ldb = trans_b ? k : n;
        std::vector<float> c_one = bias;
        gemm(1, n, k, a.data(), k, b.data(), ldb, trans_b, c_one.data(), n);
        std::vector<float> c_all(static_cast<std::size_t>(rows) * zn);
        for (int r = 0; r < rows; ++r) {
          std::copy(bias.begin(), bias.end(),
                    c_all.begin() + static_cast<std::size_t>(r) * zn);
        }
        gemm(rows, n, k, a.data(), k, b.data(), ldb, trans_b, c_all.data(),
             n);
        for (std::size_t j = 0; j < zn; ++j) {
          ASSERT_EQ(c_one[j], c_all[j]) << "n=" << n << " k=" << k
                                        << " trans_b=" << trans_b
                                        << " element " << j;
        }
      }
    }
  }
}

TEST(Gemm, TransBPackBitEqualsPretransposedB) {
  // Packing only copies values, so reading B through its transpose must
  // give exactly the product of the explicitly materialised Bᵀ. m = 100
  // and 200 exceed the MC=96 A block (so B is packed on both sides, not
  // read in place); n values are off the NR=32 sliver edge and 1100
  // crosses the NC=1024 panel edge; k = 300 and 600 cross the KC=256
  // panel edge. m = 7 also covers the in-place B read of small products.
  Rng rng(79);
  for (const int m : {7, 100, 200}) {
    for (const int n : {45, 70, 1100}) {
      for (const int k : {5, 300, 600}) {
        const auto zm = static_cast<std::size_t>(m);
        const auto zn = static_cast<std::size_t>(n);
        const auto zk = static_cast<std::size_t>(k);
        std::vector<float> a(zm * zk), b_nk(zn * zk), c_t(zm * zn);
        fill_random(rng, a);
        fill_random(rng, b_nk);
        fill_random(rng, c_t);
        std::vector<float> b_kn(zk * zn);
        for (std::size_t j = 0; j < zn; ++j) {
          for (std::size_t p = 0; p < zk; ++p) {
            b_kn[p * zn + j] = b_nk[j * zk + p];
          }
        }
        std::vector<float> c_n = c_t;
        gemm(m, n, k, a.data(), k, b_nk.data(), k, /*trans_b=*/true,
             c_t.data(), n);
        gemm(m, n, k, a.data(), k, b_kn.data(), n, /*trans_b=*/false,
             c_n.data(), n);
        ASSERT_EQ(std::memcmp(c_t.data(), c_n.data(),
                              c_t.size() * sizeof(float)),
                  0)
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(Gemm, EmptyKLeavesSeededCUntouched) {
  std::vector<float> a, b;
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  const std::vector<float> saved = c;
  gemm(2, 3, 0, a.data(), 0, b.data(), 3, false, c.data(), 3);
  EXPECT_EQ(c, saved);
}

TEST(Conv2d, KernelWiderThanInputMatchesReference) {
  // k = 5, pad = 2 on inputs one or two columns wide: the outer taps miss
  // every input column. Forward and backward must still match the
  // definition loops, and (under the sanitizer sweeps) the im2col and
  // col2im runs must not read outside the input planes.
  Rng rng(83);
  for (const int h : {1, 2, 5}) {
    for (const int w : {1, 2}) {
      testkit::ConvShape shape;
      shape.batch = 2;
      shape.in_channels = 2;
      shape.out_channels = 3;
      shape.kernel = 5;
      shape.pad = 2;
      shape.height = h;
      shape.width = w;
      testkit::expect_conv2d_backward_parity(shape, rng, 1e-4);

      Conv2d conv(2, 3, 5, 2);
      conv.init(rng);
      Tensor in({2, 2, h, w});
      fill_random(rng, in.storage());
      const auto params = conv.params();
      const Tensor out = conv.infer(in);
      const Tensor ref = testkit::conv2d_reference(
          in, *params[0].value, *params[1].value, 3, 5, 2);
      ASSERT_EQ(out.shape(), ref.shape());
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_NEAR(out[i], ref[i], 1e-4 * (1.0 + std::abs(ref[i])))
            << "h=" << h << " w=" << w << " element " << i;
      }
    }
  }
}

TEST(Conv2d, FastPathMatchesReferencePath) {
  // Odd channel counts so the GEMM runs with sliver tails on every edge.
  Conv2d conv(3, 5, 3, 1);
  Rng rng(73);
  conv.init(rng);
  Tensor in({2, 3, 8, 8});
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(rng.next_double(-1.0, 1.0));
  }
  const Tensor fast = conv.infer(in);
  const auto params = conv.params();
  const Tensor ref = testkit::conv2d_reference(
      in, *params[0].value, *params[1].value, 5, 3, 1);
  ASSERT_EQ(fast.shape(), ref.shape());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_NEAR(fast[i], ref[i], 1e-4 * (1.0 + std::abs(ref[i]))) << i;
  }
}

TEST(Linear, FastPathMatchesReferencePath) {
  Network net;  // one Linear: k past one KC-free run, odd everything
  net.add(std::make_unique<Linear>(201, 7));
  Rng rng(74);
  net.init(rng);
  Tensor in({5, 201});
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(rng.next_double(-1.0, 1.0));
  }
  const Tensor fast = net.infer(in);
  const Tensor ref = testkit::reference_forward(net, in);
  ASSERT_EQ(fast.shape(), ref.shape());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_NEAR(fast[i], ref[i], 1e-4 * (1.0 + std::abs(ref[i]))) << i;
  }
}

TEST(Tensor, StorageIs32ByteAligned) {
  for (const int side : {1, 3, 7, 16, 33}) {
    Tensor t({side, side});
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) %
                  kTensorAlignment,
              0u)
        << "side " << side;
  }
}

/// Every parameter gradient of `params`, copied, then zeroed.
std::vector<std::vector<float>> take_grads(const std::vector<Param>& params) {
  std::vector<std::vector<float>> grads;
  for (const Param& p : params) {
    grads.push_back(*p.grad);
    std::fill(p.grad->begin(), p.grad->end(), 0.0f);
  }
  return grads;
}

void expect_bit_equal(const std::vector<std::vector<float>>& got,
                      const std::vector<std::vector<float>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << "param " << i;
    EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                          got[i].size() * sizeof(float)),
              0)
        << "param " << i;
  }
}

TEST(Network, BackwardSkipsFirstLayerInputGradKeepsParamGrads) {
  // Network::backward skips the first layer's input gradient; that must
  // not move one bit of any parameter gradient against a reverse loop
  // that runs every layer's full backward(g). backward() only reads the
  // forward caches, so both passes run off the same forward.
  Rng rng(81);
  const auto check = [&rng](Network net, const std::vector<int>& in_shape) {
    net.init(rng);
    Tensor in(in_shape);
    fill_random(rng, in.storage());
    const Tensor out = net.forward(in, /*training=*/true);
    Tensor gout(out.shape());
    fill_random(rng, gout.storage());
    const std::vector<Param> params = net.params();
    take_grads(params);
    net.backward(gout);
    const auto skipped = take_grads(params);
    Tensor g = gout;
    for (std::size_t i = net.layer_count(); i-- > 0;) {
      g = net.layer(i).backward(g);
    }
    EXPECT_EQ(g.shape(), in_shape);
    expect_bit_equal(skipped, take_grads(params));
  };
  check(make_hotspot_cnn(16, 16), {3, 16, 16, 16});
  Network linear_first;
  linear_first.add(std::make_unique<Linear>(12, 8));
  linear_first.add(std::make_unique<Relu>());
  linear_first.add(std::make_unique<Linear>(8, 2));
  check(std::move(linear_first), {3, 12});

  // Called directly with the flag cleared, Conv2d returns an empty tensor
  // and accumulates the same weight and bias gradients.
  Conv2d conv(3, 5, 3, 1);
  conv.init(rng);
  Tensor in({2, 3, 6, 6});
  fill_random(rng, in.storage());
  Tensor gout(conv.forward(in, /*training=*/true).shape());
  fill_random(rng, gout.storage());
  const std::vector<Param> params = conv.params();
  EXPECT_EQ(conv.backward(gout).shape(), in.shape());
  const auto full = take_grads(params);
  EXPECT_TRUE(conv.backward(gout, /*input_grad=*/false).empty());
  expect_bit_equal(take_grads(params), full);
}

TEST(Network, ForwardBatchMatchesPerSampleInferBitExact) {
  // The score_batch bit-parity claim: batching changes only the GEMM's
  // m/n extent, never the per-element accumulation order, so a batched
  // forward must equal the batch-of-one forward bit for bit.
  Network net = make_hotspot_cnn(5, 8);
  Rng rng(75);
  net.init(rng);
  const std::size_t sample = 5 * 8 * 8;
  Rows rows(7);
  for (auto& row : rows) {
    row.resize(sample);
    for (auto& x : row) x = static_cast<float>(rng.next_double(-1.0, 1.0));
  }
  const Tensor batched =
      net.forward_batch(std::span<const std::vector<float>>(rows), {5, 8, 8});
  ASSERT_EQ(batched.shape(), (std::vector<int>{7, 2}));
  for (std::size_t s = 0; s < rows.size(); ++s) {
    const Tensor one = net.forward_batch(
        std::span<const std::vector<float>>(rows).subspan(s, 1), {5, 8, 8});
    EXPECT_EQ(one[0], batched[s * 2 + 0]) << s;
    EXPECT_EQ(one[1], batched[s * 2 + 1]) << s;
  }
}

TEST(Serialize, AlignedStorageRoundTripsBitIdentical) {
  // Weights live in plain std::vector<float> and tensors stay dense, so
  // the aligned-storage change must not perturb a single serialized byte
  // or a single loaded weight — proven via the save→load→save fixpoint on
  // a net whose channel counts hit every sliver-tail case.
  Network a;
  a.add(std::make_unique<Conv2d>(3, 5, 3, 1));
  a.add(std::make_unique<Relu>());
  a.add(std::make_unique<MaxPool2>());
  a.add(std::make_unique<Linear>(5 * 4 * 4, 3));
  Network b;
  b.add(std::make_unique<Conv2d>(3, 5, 3, 1));
  b.add(std::make_unique<Relu>());
  b.add(std::make_unique<MaxPool2>());
  b.add(std::make_unique<Linear>(5 * 4 * 4, 3));
  Rng rng(76);
  a.init(rng);
  b.init(rng);  // different weights until load
  testkit::expect_weights_fixpoint(a, b);

  // And the loaded copy computes the same outputs bit for bit.
  Tensor in({2, 3, 8, 8});
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(rng.next_double(-1.0, 1.0));
  }
  const Tensor out_a = a.infer(in);
  const Tensor out_b = b.infer(in);
  for (std::size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_EQ(out_a[i], out_b[i]) << i;
  }
}

// ------------------------------------------------------- gradient checks --

/// Numerical gradient check of a whole (tiny) network through the loss.
/// `training` selects the forward mode for both passes (must be true for
/// nets with batch statistics; nets with dropout need false).
void check_network_gradients(Network& net, const Tensor& input,
                             const Tensor& targets, double tol,
                             bool training = false) {
  // Analytic gradients.
  const Tensor logits = net.forward(input, training);
  const LossResult base = softmax_cross_entropy(logits, targets);
  net.backward(base.grad);

  auto loss_at = [&]() {
    const Tensor l = net.forward(input, training);
    return softmax_cross_entropy(l, targets).loss;
  };

  const double eps = 1e-3;
  for (auto& param : net.params()) {
    auto& w = *param.value;
    auto& g = *param.grad;
    // Spot-check a handful of coordinates per parameter.
    for (std::size_t i = 0; i < w.size(); i += std::max<std::size_t>(1, w.size() / 5)) {
      const float saved = w[i];
      w[i] = static_cast<float>(saved + eps);
      const double up = loss_at();
      w[i] = static_cast<float>(saved - eps);
      const double down = loss_at();
      w[i] = saved;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(g[i], numeric, tol)
          << "param coordinate " << i << " of size " << w.size();
    }
    std::fill(g.begin(), g.end(), 0.0f);  // reset accumulators
  }
}

TEST(GradientCheck, LinearSoftmaxNetwork) {
  Network net;
  net.add(std::make_unique<Linear>(6, 4));
  net.add(std::make_unique<Relu>());
  net.add(std::make_unique<Linear>(4, 2));
  Rng rng(11);
  net.init(rng);
  Tensor in({3, 6});
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(rng.next_gaussian());
  }
  Tensor targets({3, 2});
  targets[0] = 1;  // sample 0: class 0
  targets[3] = 1;  // sample 1: class 1
  targets[4] = 0.7f;  // sample 2: soft target
  targets[5] = 0.3f;
  check_network_gradients(net, in, targets, 2e-3);
}

TEST(GradientCheck, ConvPoolNetwork) {
  Network net;
  net.add(std::make_unique<Conv2d>(2, 3, 3, 1));
  net.add(std::make_unique<Relu>());
  net.add(std::make_unique<MaxPool2>());
  net.add(std::make_unique<Linear>(3 * 2 * 2, 2));
  Rng rng(13);
  net.init(rng);
  Tensor in({2, 2, 4, 4});
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(rng.next_gaussian());
  }
  Tensor targets({2, 2});
  targets[0] = 1;
  targets[3] = 1;
  check_network_gradients(net, in, targets, 5e-3);
}

// ------------------------------------------------------------------ loss --

TEST(Loss, SoftmaxRowsSumToOne) {
  Tensor logits({3, 2});
  logits[0] = 10;
  logits[1] = -3;
  logits[2] = 0;
  logits[3] = 0;
  logits[4] = -50;
  logits[5] = 50;
  const Tensor p = softmax(logits);
  for (int s = 0; s < 3; ++s) {
    EXPECT_NEAR(p[static_cast<std::size_t>(s) * 2] +
                    p[static_cast<std::size_t>(s) * 2 + 1],
                1.0f, 1e-6);
  }
  EXPECT_GT(p[0], 0.99f);
  EXPECT_LT(p[4], 1e-6f);
}

TEST(Loss, PerfectPredictionHasNearZeroLoss) {
  Tensor logits({1, 2});
  logits[0] = 20;
  logits[1] = -20;
  Tensor targets({1, 2});
  targets[0] = 1;
  const auto r = softmax_cross_entropy(logits, targets);
  EXPECT_LT(r.loss, 1e-6);
}

TEST(Loss, GradientIsProbMinusTarget) {
  Tensor logits({1, 2});  // symmetric -> p = (0.5, 0.5)
  Tensor targets({1, 2});
  targets[0] = 1;
  const auto r = softmax_cross_entropy(logits, targets);
  EXPECT_NEAR(r.grad[0], -0.5f, 1e-5);
  EXPECT_NEAR(r.grad[1], 0.5f, 1e-5);
}

TEST(Loss, ShapeMismatchThrows) {
  Tensor logits({1, 2});
  Tensor targets({2, 2});
  EXPECT_THROW(softmax_cross_entropy(logits, targets), Error);
}

// ------------------------------------------------------------- optimizers --

TEST(Optimizers, AdamMinimizesQuadratic) {
  // Minimize f(w) = sum (w - 3)^2 via its gradient 2(w - 3).
  std::vector<float> w = {0.0f, 10.0f};
  std::vector<float> g(2, 0.0f);
  auto opt = make_adam({0.2, 0.9, 0.999, 1e-8, 0.0});
  opt->attach({{&w, &g}});
  for (int it = 0; it < 200; ++it) {
    for (std::size_t i = 0; i < w.size(); ++i) g[i] = 2 * (w[i] - 3.0f);
    opt->step();
  }
  EXPECT_NEAR(w[0], 3.0f, 0.1f);
  EXPECT_NEAR(w[1], 3.0f, 0.1f);
}

TEST(Optimizers, StepZeroesGradients) {
  std::vector<float> w = {1.0f};
  std::vector<float> g = {5.0f};
  auto opt = make_adam();
  opt->attach({{&w, &g}});
  opt->step();
  EXPECT_FLOAT_EQ(g[0], 0.0f);
}

// --------------------------------------------------------------- trainer --

Rows make_xor_rows(int n, std::vector<float>* labels, std::uint64_t seed) {
  Rng rng(seed);
  Rows rows;
  for (int i = 0; i < n; ++i) {
    const bool a = rng.next_bool();
    const bool b = rng.next_bool();
    std::vector<float> row(4, 0.0f);
    row[0] = a ? 1.0f : -1.0f;
    row[1] = b ? 1.0f : -1.0f;
    row[2] = static_cast<float>(rng.next_gaussian(0, 0.1));
    row[3] = static_cast<float>(rng.next_gaussian(0, 0.1));
    rows.push_back(row);
    labels->push_back((a != b) ? 1.0f : -1.0f);
  }
  return rows;
}

Network make_mlp() {
  Network net;
  net.add(std::make_unique<Linear>(4, 16));
  net.add(std::make_unique<Relu>());
  net.add(std::make_unique<Linear>(16, 2));
  return net;
}

TEST(Trainer, LearnsXor) {
  Network net = make_mlp();
  Trainer trainer(&net, {1, 1, 4});
  std::vector<float> y;
  const Rows x = make_xor_rows(200, &y, 31);
  TrainConfig cfg;
  cfg.epochs = 40;
  cfg.learning_rate = 5e-3;
  const auto history = trainer.train(x, y, cfg);
  ASSERT_EQ(history.size(), 40u);
  EXPECT_LT(history.back().loss, history.front().loss);
  EXPECT_GT(history.back().accuracy, 0.95);
  for (const EpochStats& h : history) EXPECT_GT(h.seconds, 0.0) << h.epoch;

  // Fresh samples classify correctly.
  std::vector<float> ty;
  const Rows tx = make_xor_rows(100, &ty, 32);
  int correct = 0;
  for (std::size_t i = 0; i < tx.size(); ++i) {
    const bool pred = trainer.predict_proba(tx[i]) > 0.5f;
    correct += pred == (ty[i] > 0);
  }
  EXPECT_GE(correct, 90);
}

TEST(Trainer, BatchPredictionMatchesSingle) {
  Network net = make_mlp();
  Trainer trainer(&net, {1, 1, 4});
  std::vector<float> y;
  const Rows x = make_xor_rows(60, &y, 33);
  TrainConfig cfg;
  cfg.epochs = 5;
  trainer.train(x, y, cfg);
  const auto batch = trainer.predict_proba_batch(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(batch[i], trainer.predict_proba(x[i]), 1e-5);
  }
}

TEST(Trainer, BiasedLearningIncreasesRecallSideProbability) {
  // After BL fine-tuning with lambda > 0, the mean predicted hotspot
  // probability on *non-hotspot* training samples must increase.
  std::vector<float> y;
  const Rows x = make_xor_rows(200, &y, 34);

  Network plain_net = make_mlp();
  Trainer plain(&plain_net, {1, 1, 4});
  TrainConfig base;
  base.epochs = 30;
  base.learning_rate = 5e-3;
  plain.train(x, y, base);
  double p_plain = 0;
  int negatives = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (y[i] < 0) {
      p_plain += plain.predict_proba(x[i]);
      ++negatives;
    }
  }
  p_plain /= negatives;

  Network bl_net = make_mlp();
  Trainer bl(&bl_net, {1, 1, 4});
  BiasedTrainConfig blc;
  blc.pretrain = base;
  blc.lambda = 0.35;
  blc.bias_epochs = 15;
  const auto history = train_biased(bl, x, y, blc);
  EXPECT_EQ(history.size(), 45u);
  EXPECT_DOUBLE_EQ(history.back().lambda, 0.35);
  double p_bl = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (y[i] < 0) p_bl += bl.predict_proba(x[i]);
  }
  p_bl /= negatives;
  EXPECT_GT(p_bl, p_plain);
}

TEST(Trainer, BatchBiasedStopsAtFalseAlarmGuard) {
  std::vector<float> y;
  const Rows x = make_xor_rows(150, &y, 35);
  Network net = make_mlp();
  Trainer trainer(&net, {1, 1, 4});
  BatchBiasedConfig cfg;
  cfg.pretrain.epochs = 20;
  cfg.pretrain.learning_rate = 5e-3;
  cfg.lambda_schedule = {0.2, 0.4, 0.6};
  cfg.epochs_per_stage = 5;
  cfg.max_false_alarm = -1.0;  // trips immediately after the first stage
  const auto history = train_batch_biased(trainer, x, y, cfg);
  EXPECT_EQ(history.size(), 20u + 5u);  // pretrain + exactly one stage
}

TEST(Trainer, RejectsWrongRowSize) {
  Network net = make_mlp();
  Trainer trainer(&net, {1, 1, 4});
  TrainConfig cfg;
  cfg.epochs = 1;
  EXPECT_THROW(trainer.train({{1.0f, 2.0f}}, {1.0f}, cfg), Error);
}

TEST(Trainer, SameSeedTrainsBitIdenticalWeights) {
  // Training is a pure function of (data, config): the second run happens
  // on a fresh thread, which starts with its own thread_local GEMM
  // scratch, and must still produce byte-identical weights.
  Rng rng(21);
  Rows x;
  std::vector<float> y;
  for (int i = 0; i < 40; ++i) {
    std::vector<float> row(4 * 8 * 8);
    for (float& v : row) v = static_cast<float>(rng.next_gaussian());
    x.push_back(std::move(row));
    y.push_back(i % 3 == 0 ? 1.0f : -1.0f);
  }
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch = 8;
  const auto train_bytes = [&] {
    Network net = make_hotspot_cnn(4, 8);
    Trainer trainer(&net, {4, 8, 8});
    trainer.train(x, y, cfg);
    std::stringstream buf;
    save_weights(net, buf);
    return buf.str();
  };
  const std::string here = train_bytes();
  std::string there;
  std::thread worker([&] { there = train_bytes(); });
  worker.join();
  EXPECT_TRUE(here == there) << "weights differ between same-seed runs";
}

std::string fnv_hex(const std::string& bytes) {
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(testkit::fnv1a(bytes)));
  return hex;
}

TEST(NnDigest, MatchesCommittedDigest) {
  // FNV-1a-64 of the hotspot CNN's bits, compared exactly against
  // tests/fixtures/nn_digest.json: the save_weights stream after a seeded
  // init, the stream after three seeded batch-32 Trainer steps, and the
  // trained net's forward_batch logits at batch 1 and batch 32. A layer,
  // GEMM or serialization change that moves any bit fails here, and the
  // fix is in the code, not in the fixture. Each digest has two values:
  // where the target has FMA (-march=native on most x86-64 hosts) the
  // GEMM's multiply-adds contract and round once, so the bits differ from
  // a build without it (LHD_NATIVE=OFF, the sanitizer sweeps).
  constexpr int kChannels = 16;
  constexpr int kGrid = 16;
  const std::size_t sample = std::size_t{kChannels} * kGrid * kGrid;
  Rng data_rng(16);
  Rows x(96);
  std::vector<float> y;
  for (auto& row : x) {
    row.resize(sample);
    for (float& v : row) v = static_cast<float>(data_rng.next_gaussian());
    y.push_back(y.size() % 3 == 0 ? 1.0f : -1.0f);
  }
  const auto stream = [](Network& net) {
    std::ostringstream out;
    save_weights(net, out);
    return out.str();
  };
  const auto logits = [&x](const Network& net, std::size_t n) {
    const Tensor t = net.forward_batch(
        std::span<const std::vector<float>>(x).first(n),
        {kChannels, kGrid, kGrid});
    return std::string(reinterpret_cast<const char*>(t.data()),
                       t.size() * sizeof(float));
  };

  Network net = make_hotspot_cnn(kChannels, kGrid);
  Rng init_rng(17);
  net.init(init_rng);
  obs::Json got = obs::Json::object();
  got["init"] = fnv_hex(stream(net));
  TrainConfig cfg;
  cfg.epochs = 1;  // 96 rows at batch 32: three optimizer steps
  cfg.batch = 32;
  cfg.seed = 18;
  Trainer trainer(&net, {kChannels, kGrid, kGrid});
  trainer.train(x, y, cfg);
  got["trained"] = fnv_hex(stream(net));
  got["logits_b1"] = fnv_hex(logits(net, 1));
  got["logits_b32"] = fnv_hex(logits(net, 32));

#ifdef __FMA__
  const char* key = "fma";
#else
  const char* key = "no_fma";
#endif
  std::ifstream in(LHD_FIXTURES_DIR "/nn_digest.json");
  ASSERT_TRUE(in) << "missing tests/fixtures/nn_digest.json; computed "
                  << key << ": " << got.dump();
  std::stringstream text;
  text << in.rdbuf();
  const obs::Json want = obs::Json::parse(text.str());
  ASSERT_TRUE(want.contains(key)) << "no \"" << key << "\" entry; computed "
                                  << got.dump();
  EXPECT_EQ(got.dump(), want.at(key).dump())
      << "hotspot CNN bits differ from tests/fixtures/nn_digest.json ("
      << key << ")";
}

// --------------------------------------------------------------- hotspot --

TEST(HotspotCnn, BuildsWithExpectedParamBudget) {
  Network net = make_hotspot_cnn(16, 16);
  const std::size_t params = net.param_count();
  EXPECT_GT(params, 10000u);
  EXPECT_LT(params, 200000u);
  Rng rng(1);
  net.init(rng);
  Tensor in({2, 16, 16, 16});
  const Tensor out = net.forward(in, false);
  EXPECT_EQ(out.shape(), (std::vector<int>{2, 2}));
}

TEST(HotspotCnn, RejectsIndivisibleGrid) {
  EXPECT_THROW(make_hotspot_cnn(16, 6), Error);
}

TEST(HotspotCnn, InferMatchesEvalForwardBitExact) {
  // infer() is the concurrency-safe inference path used by the full-chip
  // scanner; it must reproduce forward(training=false) exactly, including
  // through dropout (identity).
  Network net = make_hotspot_cnn(4, 8);
  Rng rng(17);
  net.init(rng);
  Tensor in({3, 4, 8, 8});
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(rng.next_gaussian());
  }
  const Tensor via_forward = net.forward(in, false);
  const Tensor via_infer = std::as_const(net).infer(in);
  ASSERT_EQ(via_infer.shape(), via_forward.shape());
  for (std::size_t i = 0; i < via_forward.size(); ++i) {
    EXPECT_EQ(via_infer[i], via_forward[i]) << "element " << i;
  }
}

// --------------------------------------------------------------- weights --

TEST(Serialize, RoundTripRestoresOutputs) {
  Network net = make_mlp();
  Rng rng(2);
  net.init(rng);
  Tensor in({1, 4});
  in[0] = 0.3f;
  in[2] = -0.7f;
  const Tensor before = net.forward(in, false);

  std::stringstream buf;
  save_weights(net, buf);

  Network other = make_mlp();
  Rng rng2(99);
  other.init(rng2);  // different weights
  load_weights(other, buf);
  const Tensor after = other.forward(in, false);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(before[i], after[i]);
  }
}

TEST(Serialize, ArchitectureMismatchThrows) {
  Network net = make_mlp();
  Rng rng(2);
  net.init(rng);
  std::stringstream buf;
  save_weights(net, buf);
  Network different;
  different.add(std::make_unique<Linear>(3, 2));
  EXPECT_THROW(load_weights(different, buf), Error);
}

TEST(Serialize, GarbageStreamThrows) {
  Network net = make_mlp();
  std::stringstream buf;
  buf << "garbage";
  EXPECT_THROW(load_weights(net, buf), Error);
}

TEST(Serialize, SaveLoadSaveFixpoint) {
  CHECK_PROPERTY("weights-fixpoint", 16, [](Rng& rng, std::size_t) {
    Network a = make_mlp();
    a.init(rng);
    Network b = make_mlp();
    Rng other(rng.next_u64());
    b.init(other);  // different weights; load must overwrite them all
    testkit::expect_weights_fixpoint(a, b);
  });
}

std::vector<float> snapshot_params(Network& net) {
  std::vector<float> flat;
  for (const auto& p : net.params()) {
    flat.insert(flat.end(), p.value->begin(), p.value->end());
  }
  return flat;
}

TEST(Serialize, TruncationAtEveryOffsetThrowsAndLeavesNetUntouched) {
  Network src = make_mlp();
  Rng rng(21);
  src.init(rng);
  std::ostringstream buf;
  save_weights(src, buf);
  const std::string blob = buf.str();
  const std::vector<std::uint8_t> bytes(blob.begin(), blob.end());

  Network dst = make_mlp();
  Rng rng2(22);
  dst.init(rng2);
  const auto before = snapshot_params(dst);

  testkit::for_each_fail_point(
      bytes, [&](std::istream& in, std::size_t fail_at) {
        try {
          load_weights(dst, in);
          FAIL() << "load succeeded with stream cut at byte " << fail_at;
        } catch (const Error& e) {
          // The error names the stream offset where the read fell short.
          EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos)
              << "cut at " << fail_at << ": " << e.what();
        }
        // Staged load: a failed load must not leave dst half-written.
        EXPECT_EQ(snapshot_params(dst), before)
            << "params modified by failed load cut at byte " << fail_at;
      });

  // And the uncut stream still loads into the very same net.
  std::istringstream whole(blob);
  load_weights(dst, whole);
  EXPECT_EQ(snapshot_params(dst), snapshot_params(src));
}

// ------------------------------------------------- weight-stream corpus --

std::vector<std::uint8_t> nn_corpus(const std::string& name) {
  return testkit::load_hex_file(std::string(LHD_FIXTURES_DIR) +
                                "/nn_corpus/" + name);
}

void expect_corpus_rejected(const std::string& name,
                            const std::string& needle) {
  Network net = make_hotspot_cnn(2, 8);  // 10 params, matches the corpus
  const auto bytes = nn_corpus(name);
  std::istringstream in(std::string(bytes.begin(), bytes.end()));
  try {
    load_weights(net, in);
    FAIL() << name << " loaded without error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << name << ": " << e.what();
  }
}

TEST(SerializeCorpus, BadMagic) {
  expect_corpus_rejected("bad_magic.hex", "byte");
}

TEST(SerializeCorpus, TruncatedAfterMagic) {
  expect_corpus_rejected("truncated_after_magic.hex", "truncated");
}

TEST(SerializeCorpus, HugeParamSizeRejectedBeforeAllocation) {
  expect_corpus_rejected("huge_param_size.hex", "size");
}

TEST(SerializeCorpus, EveryCorpusFileHasARegressionTest) {
  const std::set<std::string> covered = {
      "bad_magic.hex",
      "truncated_after_magic.hex",
      "huge_param_size.hex",
  };
  std::set<std::string> on_disk;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(LHD_FIXTURES_DIR) + "/nn_corpus")) {
    on_disk.insert(entry.path().filename().string());
  }
  EXPECT_EQ(on_disk, covered);
}

}  // namespace
}  // namespace lhd::nn
