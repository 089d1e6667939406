// Tests for lhd/feature: density, CCAS, DCT tensor, extractors, scaler, PCA.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "lhd/feature/extractor.hpp"
#include "lhd/geom/polygon.hpp"
#include "lhd/feature/scaler.hpp"
#include "lhd/feature/squish.hpp"
#include "lhd/obs/json.hpp"
#include "lhd/synth/clip_gen.hpp"
#include "lhd/testkit/testkit.hpp"
#include "lhd/util/rng.hpp"
#include "lhd/util/thread_pool.hpp"

namespace lhd::feature {
namespace {

using geom::Rect;

data::Clip full_clip() {
  data::Clip c;
  c.window_nm = 1024;
  c.rects = {Rect(0, 0, 1024, 1024)};
  return c;
}

data::Clip half_clip() {
  data::Clip c;
  c.window_nm = 1024;
  c.rects = {Rect(0, 0, 512, 1024)};  // left half filled
  return c;
}

// --------------------------------------------------------------- density --

TEST(Density, FullClipIsAllOnes) {
  const auto f = density_features(full_clip(), {8, 8});
  ASSERT_EQ(f.size(), 64u);
  for (const float v : f) EXPECT_NEAR(v, 1.0f, 1e-6);
}

TEST(Density, EmptyClipIsAllZeros) {
  data::Clip c;
  c.window_nm = 1024;
  const auto f = density_features(c, {8, 8});
  for (const float v : f) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Density, HalfClipSplitsCleanly) {
  const auto f = density_features(half_clip(), {8, 8});
  // Row-major 8x8: columns 0..3 full, 4..7 empty.
  for (int gy = 0; gy < 8; ++gy) {
    for (int gx = 0; gx < 8; ++gx) {
      const float v = f[static_cast<std::size_t>(gy) * 8 + gx];
      EXPECT_NEAR(v, gx < 4 ? 1.0f : 0.0f, 1e-6);
    }
  }
}

TEST(Density, MeanEqualsGlobalDensity) {
  data::Clip c;
  c.window_nm = 1024;
  c.rects = {Rect(100, 200, 400, 500), Rect(600, 100, 900, 900)};
  const auto f = density_features(c, {8, 16});
  double mean = 0;
  for (const float v : f) mean += v;
  mean /= static_cast<double>(f.size());
  const double expected =
      static_cast<double>(geom::union_area(c.rects)) / (1024.0 * 1024.0);
  EXPECT_NEAR(mean, expected, 1e-5);
}

TEST(Density, RejectsIndivisibleGrid) {
  EXPECT_THROW(density_features(full_clip(), {8, 7}), Error);
}

// ------------------------------------------------------------------ ccas --

TEST(Ccas, FullClipRingsAreOne) {
  const auto f = ccas_features(full_clip(), {8, 8, 4});
  ASSERT_EQ(f.size(), 32u);
  for (const float v : f) EXPECT_NEAR(v, 1.0f, 1e-6);
}

TEST(Ccas, CentreDotOnlyLightsInnerRing) {
  data::Clip c;
  c.window_nm = 1024;
  c.rects = {Rect(472, 472, 552, 552)};  // 80 nm square at centre
  const CcasConfig cfg{8, 8, 1};
  const auto f = ccas_features(c, cfg);
  EXPECT_GT(f[0], 0.2f);
  for (std::size_t i = 3; i < f.size(); ++i) EXPECT_FLOAT_EQ(f[i], 0.0f);
}

TEST(Ccas, SectorsDistinguishOrientation) {
  const CcasConfig cfg{8, 4, 4};
  // Right half filled vs left half filled must produce different vectors.
  data::Clip right;
  right.window_nm = 1024;
  right.rects = {Rect(512, 0, 1024, 1024)};
  data::Clip left;
  left.window_nm = 1024;
  left.rects = {Rect(0, 0, 512, 1024)};
  EXPECT_NE(ccas_features(right, cfg), ccas_features(left, cfg));
}

TEST(Ccas, SingleSectorIsMirrorInvariant) {
  const CcasConfig cfg{8, 8, 1};
  data::Clip right;
  right.window_nm = 1024;
  right.rects = {Rect(512, 0, 1024, 1024)};
  data::Clip left;
  left.window_nm = 1024;
  left.rects = {Rect(0, 0, 512, 1024)};
  const auto fr = ccas_features(right, cfg);
  const auto fl = ccas_features(left, cfg);
  for (std::size_t i = 0; i < fr.size(); ++i) {
    EXPECT_NEAR(fr[i], fl[i], 0.02f);
  }
}

TEST(Ccas, RejectsBadConfig) {
  EXPECT_THROW(ccas_features(full_clip(), {8, 0, 4}), Error);
}

// ------------------------------------------------------------------- dct --

TEST(Dct, ConstantBlockHasOnlyDc) {
  constexpr int n = 8;
  std::vector<float> block(n * n, 0.5f);
  std::vector<float> coef(n * n);
  dct2d(block.data(), coef.data(), n);
  // Orthonormal DCT: DC = n * mean = 8 * 0.5 = 4.
  EXPECT_NEAR(coef[0], 4.0f, 1e-5);
  for (std::size_t i = 1; i < coef.size(); ++i) EXPECT_NEAR(coef[i], 0.0f, 1e-5);
}

TEST(Dct, InverseRecoversInput) {
  constexpr int n = 8;
  std::vector<float> block(n * n);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<float>(std::sin(0.37 * static_cast<double>(i)));
  }
  std::vector<float> coef(n * n), back(n * n);
  dct2d(block.data(), coef.data(), n);
  idct2d(coef.data(), back.data(), n);
  for (std::size_t i = 0; i < block.size(); ++i) {
    EXPECT_NEAR(back[i], block[i], 1e-4);
  }
}

TEST(Dct, ParsevalEnergyPreserved) {
  // Orthonormal transform: energy is preserved for every input block.
  CHECK_PROPERTY("dct-parseval", 32, [](Rng& rng, std::size_t) {
    constexpr int n = 8;
    const auto block = testkit::random_block(rng, n);
    std::vector<float> coef(block.size());
    dct2d(block.data(), coef.data(), n);
    double e_in = 0, e_out = 0;
    for (const float v : block) e_in += static_cast<double>(v) * v;
    for (const float v : coef) e_out += static_cast<double>(v) * v;
    EXPECT_NEAR(e_in, e_out, 1e-3);
  });
}

TEST(Dct, ZigzagIsPermutation) {
  for (const int n : {4, 8, 16}) {
    const auto& zz = zigzag_order(n);
    ASSERT_EQ(zz.size(), static_cast<std::size_t>(n) * n);
    std::set<int> unique(zz.begin(), zz.end());
    EXPECT_EQ(unique.size(), zz.size());
    EXPECT_EQ(*unique.begin(), 0);
    EXPECT_EQ(*unique.rbegin(), n * n - 1);
  }
}

TEST(Dct, ZigzagStartsLowFrequency) {
  const auto& zz = zigzag_order(8);
  EXPECT_EQ(zz[0], 0);       // (0,0)
  EXPECT_EQ(zz[1] % 8 + zz[1] / 8, 1);  // first anti-diagonal
  EXPECT_EQ(zz[2] % 8 + zz[2] / 8, 1);
}

TEST(Dct, TensorShapeMatchesConfig) {
  const DctConfig cfg{8, 8, 16};
  const auto t = dct_tensor(full_clip(), cfg);
  EXPECT_EQ(t.channels, 16);
  EXPECT_EQ(t.height, 16);
  EXPECT_EQ(t.width, 16);
  EXPECT_EQ(t.values.size(), 16u * 16 * 16);
}

TEST(Dct, FullClipTensorHasUniformDcOnly) {
  const auto t = dct_tensor(full_clip(), {8, 8, 16});
  for (int y = 0; y < t.height; ++y) {
    for (int x = 0; x < t.width; ++x) {
      EXPECT_NEAR(t.at(0, y, x), 8.0f, 1e-4);  // DC of all-ones 8x8 block
      for (int c = 1; c < t.channels; ++c) {
        EXPECT_NEAR(t.at(c, y, x), 0.0f, 1e-4);
      }
    }
  }
}

TEST(Dct, RejectsTooManyCoefficients) {
  EXPECT_THROW(dct_tensor(full_clip(), {8, 8, 65}), Error);
}

TEST(Dct, MatchesCommittedDigest) {
  // FNV-1a-64 over the raw `values` bytes of dct_tensor for 16 seeded
  // synthetic clips, per config, compared exactly against
  // tests/fixtures/dct_digest.json. The fixture pins the feature bits the
  // CNN was trained on: a kernel change that moves any bit fails here, and
  // the fix is in the kernel, not in the fixture.
  constexpr int kClips = 16;
  const DctConfig configs[] = {{8, 8, 16}, {8, 8, 64}, {8, 4, 10}};
  obs::Json got = obs::Json::object();
  for (const auto& cfg : configs) {
    std::string bytes;
    for (int seed = 1; seed <= kClips; ++seed) {
      Rng rng(static_cast<std::uint64_t>(seed));
      data::Clip clip;
      clip.window_nm = 1024;
      clip.rects = synth::generate_clip(synth::StyleConfig{}, rng);
      const auto t = dct_tensor(clip, cfg);
      bytes.append(reinterpret_cast<const char*>(t.values.data()),
                   t.values.size() * sizeof(float));
    }
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(testkit::fnv1a(bytes)));
    std::ostringstream key;
    key << cfg.pixel_nm << "," << cfg.block << "," << cfg.coefficients;
    got[key.str()] = std::string(hex);
  }

  std::ifstream in(LHD_FIXTURES_DIR "/dct_digest.json");
  ASSERT_TRUE(in) << "missing tests/fixtures/dct_digest.json; computed "
                  << got.dump();
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(got.dump(), obs::Json::parse(text.str()).dump())
      << "DCT tensor bits differ from tests/fixtures/dct_digest.json";
}

TEST(Dct, ConcurrentTensorsEqualSerial) {
  // 64 clips on a dedicated 4-worker pool against the same clips run
  // serially. The block sides cycle so the shared basis and zig-zag caches
  // meet some sizes for the first time from several workers at once —
  // the race the TSan sweep runs this binary for.
  constexpr std::size_t kClips = 64;
  const DctConfig configs[] = {{8, 2, 4}, {8, 4, 10}, {8, 8, 16}, {8, 16, 16}};
  std::vector<data::Clip> clips(kClips);
  for (std::size_t i = 0; i < kClips; ++i) {
    Rng rng(100 + i);
    clips[i].window_nm = 1024;
    clips[i].rects = synth::generate_clip(synth::StyleConfig{}, rng);
  }
  std::vector<DctTensor> parallel(kClips);
  ThreadPool pool(4);
  pool.parallel_for(0, kClips, [&](std::size_t i) {
    parallel[i] = dct_tensor(clips[i], configs[i % 4]);
  });
  for (std::size_t i = 0; i < kClips; ++i) {
    const auto serial = dct_tensor(clips[i], configs[i % 4]);
    EXPECT_EQ(parallel[i].values, serial.values) << "clip " << i;
  }
}

// ------------------------------------------------------------- extractor --

TEST(Extractor, DimsMatchShapes) {
  const auto density = make_density_extractor({8, 16});
  EXPECT_EQ(density->dim(), 256);
  const auto ccas = make_ccas_extractor({8, 16, 4});
  EXPECT_EQ(ccas->dim(), 64);
  const auto dct = make_dct_extractor({8, 8, 16});
  EXPECT_EQ(dct->dim(), 16 * 16 * 16);
  const auto s = dct->shape();
  EXPECT_EQ(s[0], 16);
  EXPECT_EQ(s[1], 16);
  EXPECT_EQ(s[2], 16);
}

TEST(Extractor, ExtractMatchesDim) {
  data::Clip c;
  c.window_nm = 1024;
  c.rects = {Rect(0, 0, 500, 300)};
  std::vector<std::unique_ptr<Extractor>> extractors;
  extractors.push_back(make_density_extractor());
  extractors.push_back(make_ccas_extractor());
  extractors.push_back(make_dct_extractor());
  for (const auto& e : extractors) {
    EXPECT_EQ(e->extract(c).size(), static_cast<std::size_t>(e->dim()))
        << e->name();
  }
}

TEST(Extractor, ExtractAllMatchesPerClip) {
  data::Dataset ds;
  for (int i = 0; i < 5; ++i) {
    data::Clip c;
    c.window_nm = 1024;
    c.rects = {Rect(i * 50, 0, i * 50 + 100, 800)};
    ds.add(std::move(c));
  }
  const auto extractor = make_density_extractor();
  const auto rows = extract_all(*extractor, ds);
  ASSERT_EQ(rows.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rows[i], extractor->extract(ds[i]));
  }
}

TEST(Extractor, SignedLabels) {
  data::Dataset ds;
  data::Clip h;
  h.label = data::Label::Hotspot;
  data::Clip n;
  n.label = data::Label::NonHotspot;
  ds.add(h);
  ds.add(n);
  EXPECT_EQ(signed_labels(ds), (std::vector<float>{1.0f, -1.0f}));
}

// ---------------------------------------------------------------- scaler --

TEST(Scaler, StandardizesToZeroMeanUnitVar) {
  std::vector<std::vector<float>> rows = {
      {1.0f, 10.0f}, {2.0f, 20.0f}, {3.0f, 30.0f}, {4.0f, 40.0f}};
  Scaler s;
  s.fit(rows);
  s.transform_all(rows);
  for (int d = 0; d < 2; ++d) {
    double mean = 0, var = 0;
    for (const auto& r : rows) mean += r[static_cast<std::size_t>(d)];
    mean /= 4;
    for (const auto& r : rows) {
      var += (r[static_cast<std::size_t>(d)] - mean) *
             (r[static_cast<std::size_t>(d)] - mean);
    }
    var /= 4;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-4);
  }
}

TEST(Scaler, ConstantDimensionPassesThrough) {
  std::vector<std::vector<float>> rows = {{5.0f}, {5.0f}, {5.0f}};
  Scaler s;
  s.fit(rows);
  std::vector<float> row = {5.0f};
  s.transform(row);
  EXPECT_FLOAT_EQ(row[0], 0.0f);  // (5-5)/1
}

TEST(Scaler, RejectsEmptyFit) {
  Scaler s;
  EXPECT_THROW(s.fit({}), Error);
}

TEST(Scaler, RejectsUnfittedTransform) {
  Scaler s;
  std::vector<float> row = {1.0f};
  EXPECT_THROW(s.transform(row), Error);
}

TEST(Scaler, RejectsDimensionMismatch) {
  Scaler s;
  s.fit({{1.0f, 2.0f}});
  std::vector<float> row = {1.0f};
  EXPECT_THROW(s.transform(row), Error);
}

// ---------------------------------------------------------------- squish --

TEST(Squish, EncodeDecodeIsLossless) {
  const std::vector<Rect> rects = {Rect(100, 200, 400, 500),
                                   Rect(600, 100, 900, 900),
                                   Rect(100, 600, 400, 700)};
  const auto pattern = squish_encode(rects, 1024);
  const auto back = squish_decode(pattern);
  EXPECT_EQ(geom::union_area(back), geom::union_area(rects));
}

TEST(Squish, EmptyClipEncodesToEmptyTopology) {
  const auto pattern = squish_encode({}, 1024);
  EXPECT_EQ(pattern.nx(), 1);
  EXPECT_EQ(pattern.ny(), 1);
  EXPECT_EQ(pattern.topology[0], 0);
}

TEST(Squish, SingleRectTopology) {
  const auto pattern = squish_encode({Rect(100, 200, 400, 500)}, 1024);
  // Cuts: x {0,100,400,1024}, y {0,200,500,1024} -> 3x3 cells, centre on.
  EXPECT_EQ(pattern.nx(), 3);
  EXPECT_EQ(pattern.ny(), 3);
  EXPECT_EQ(pattern.topology[1 * 3 + 1], 1);
  EXPECT_EQ(pattern.topology[0], 0);
}

TEST(Squish, FeatureHasFixedLength) {
  data::Clip simple;
  simple.window_nm = 1024;
  simple.rects = {Rect(0, 0, 100, 100)};
  data::Clip busy;
  busy.window_nm = 1024;
  for (int i = 0; i < 30; ++i) {
    busy.rects.push_back(Rect(i * 30, i * 20, i * 30 + 25, i * 20 + 15));
  }
  const SquishConfig cfg{16};
  EXPECT_EQ(squish_features(simple, cfg).size(),
            squish_features(busy, cfg).size());
  EXPECT_EQ(squish_features(simple, cfg).size(), 15u * 15 + 2 * 15);
}

TEST(Squish, DeltasSumToWindow) {
  data::Clip c;
  c.window_nm = 1024;
  c.rects = {Rect(100, 200, 400, 500), Rect(600, 100, 900, 900)};
  const SquishConfig cfg{16};
  const auto f = squish_features(c, cfg);
  const int cells = cfg.max_cuts - 1;
  double dx = 0, dy = 0;
  for (int i = 0; i < cells; ++i) {
    dx += f[static_cast<std::size_t>(cells) * cells + i];
    dy += f[static_cast<std::size_t>(cells) * cells + cells + i];
  }
  EXPECT_NEAR(dx, 1.0, 1e-5);  // normalized deltas tile the window
  EXPECT_NEAR(dy, 1.0, 1e-5);
}

TEST(Squish, AdaptiveReductionPreservesCoverageApproximately) {
  // A clip with many more cuts than the frame: total covered fraction of
  // the topology must survive the merging within a tolerance.
  data::Clip c;
  c.window_nm = 1024;
  Rng rng(3);
  for (int i = 0; i < 25; ++i) {
    const auto x = static_cast<geom::Coord>(rng.next_int(0, 900));
    const auto y = static_cast<geom::Coord>(rng.next_int(0, 900));
    c.rects.push_back(Rect(x, y, x + 80, y + 60));
  }
  const SquishConfig cfg{12};
  const auto f = squish_features(c, cfg);
  double on = 0;
  const int cells = cfg.max_cuts - 1;
  for (int i = 0; i < cells * cells; ++i) on += f[static_cast<std::size_t>(i)];
  EXPECT_GT(on, 0.0);  // merging may only grow coverage, never erase it
}

TEST(Squish, ExtractorInterface) {
  const auto e = make_squish_extractor({16});
  EXPECT_EQ(e->name(), "squish");
  EXPECT_EQ(e->dim(), 15 * 15 + 2 * 15);
  data::Clip c;
  c.window_nm = 1024;
  c.rects = {Rect(0, 0, 512, 512)};
  EXPECT_EQ(e->extract(c).size(), static_cast<std::size_t>(e->dim()));
}

TEST(Squish, RejectsTinyFrame) {
  data::Clip c;
  c.window_nm = 1024;
  EXPECT_THROW(squish_features(c, {2}), Error);
}

}  // namespace
}  // namespace lhd::feature
