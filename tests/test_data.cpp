// Tests for lhd/data: clips, datasets, augmentation, serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <utility>
#include <vector>

#include "lhd/data/augment.hpp"
#include "lhd/geom/polygon.hpp"
#include "lhd/data/clip_hash.hpp"
#include "lhd/data/dataset.hpp"
#include "lhd/data/io.hpp"
#include "lhd/testkit/testkit.hpp"

namespace lhd::data {
namespace {

using geom::Rect;

Clip make_clip(std::vector<Rect> rects, Label label,
               geom::Coord window = 1024) {
  Clip c;
  c.rects = std::move(rects);
  c.window_nm = window;
  c.label = label;
  return c;
}

Dataset make_dataset(int hotspots, int non_hotspots) {
  Dataset ds("test");
  for (int i = 0; i < hotspots; ++i) {
    make_clip({Rect(0, i * 10, 50, i * 10 + 8)}, Label::Hotspot);
    ds.add(make_clip({Rect(0, i * 10, 50, i * 10 + 8)}, Label::Hotspot));
  }
  for (int i = 0; i < non_hotspots; ++i) {
    ds.add(make_clip({Rect(100, i * 10, 150, i * 10 + 8)},
                     Label::NonHotspot));
  }
  return ds;
}

// ----------------------------------------------------------------- clips --

TEST(Clip, RasterUsesWindowAndPixel) {
  const Clip c = make_clip({Rect(0, 0, 512, 512)}, Label::Hotspot);
  const auto img = c.raster(8);
  EXPECT_EQ(img.width(), 128);
  EXPECT_FLOAT_EQ(img.at(10, 10), 1.0f);
  EXPECT_FLOAT_EQ(img.at(100, 100), 0.0f);
}

TEST(Clip, IsHotspotReflectsLabel) {
  EXPECT_TRUE(make_clip({}, Label::Hotspot).is_hotspot());
  EXPECT_FALSE(make_clip({}, Label::NonHotspot).is_hotspot());
}

// --------------------------------------------------------------- dataset --

TEST(Dataset, AddAssignsSequentialIds) {
  Dataset ds;
  ds.add(make_clip({}, Label::Hotspot));
  ds.add(make_clip({}, Label::NonHotspot));
  EXPECT_EQ(ds[0].id, 0u);
  EXPECT_EQ(ds[1].id, 1u);
}

TEST(Dataset, StatsCountsClasses) {
  const Dataset ds = make_dataset(3, 7);
  const auto s = ds.stats();
  EXPECT_EQ(s.total, 10u);
  EXPECT_EQ(s.hotspots, 3u);
  EXPECT_EQ(s.non_hotspots, 7u);
  EXPECT_DOUBLE_EQ(s.hotspot_ratio, 0.3);
}

TEST(Dataset, StatsOnEmpty) {
  const Dataset ds;
  EXPECT_EQ(ds.stats().total, 0u);
  EXPECT_DOUBLE_EQ(ds.stats().hotspot_ratio, 0.0);
}

TEST(Dataset, FilterByLabel) {
  const Dataset ds = make_dataset(3, 7);
  EXPECT_EQ(ds.filter(Label::Hotspot).size(), 3u);
  EXPECT_EQ(ds.filter(Label::NonHotspot).size(), 7u);
}

TEST(Dataset, AppendRenumbersIds) {
  Dataset a = make_dataset(1, 1);
  const Dataset b = make_dataset(2, 0);
  a.append(b);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(a[3].id, 3u);
}

TEST(Dataset, ShufflePermutes) {
  Dataset ds = make_dataset(0, 30);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    ds[i].rects = {Rect(0, 0, static_cast<geom::Coord>(i + 1), 1)};
  }
  Rng rng(3);
  ds.shuffle(rng);
  std::multiset<geom::Coord> widths;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    widths.insert(ds[i].rects[0].width());
  }
  EXPECT_EQ(widths.size(), 30u);
  EXPECT_EQ(*widths.begin(), 1);
  EXPECT_EQ(*widths.rbegin(), 30);
}

// ---------------------------------------------------------- augmentation --

TEST(Augment, FlipXIsInvolution) {
  const Clip c = make_clip({Rect(10, 20, 100, 200), Rect(500, 0, 700, 50)},
                           Label::Hotspot);
  EXPECT_EQ(flip_clip_x(flip_clip_x(c)).rects, c.rects);
}

TEST(Augment, FlipYIsInvolution) {
  const Clip c = make_clip({Rect(10, 20, 100, 200)}, Label::Hotspot);
  EXPECT_EQ(flip_clip_y(flip_clip_y(c)).rects, c.rects);
}

TEST(Augment, Rotate90FourTimesIsIdentity) {
  const Clip c = make_clip({Rect(10, 20, 100, 200)}, Label::Hotspot);
  Clip r = c;
  for (int i = 0; i < 4; ++i) r = rotate_clip_90(r);
  EXPECT_EQ(r.rects, c.rects);
}

TEST(Augment, FlipPreservesAreaAndWindow) {
  const Clip c = make_clip({Rect(10, 20, 100, 200)}, Label::Hotspot);
  const Clip f = flip_clip_x(c);
  EXPECT_EQ(f.window_nm, c.window_nm);
  EXPECT_EQ(f.label, c.label);
  EXPECT_EQ(f.rects[0].area(), c.rects[0].area());
  EXPECT_EQ(f.rects[0], Rect(1024 - 100, 20, 1024 - 10, 200));
}

TEST(Augment, TranslateClipsAtWindow) {
  const Clip c = make_clip({Rect(1000, 0, 1024, 50)}, Label::Hotspot);
  const Clip t = translate_clip(c, 50, 0);
  EXPECT_TRUE(t.rects.empty());  // pushed out of the window
  const Clip t2 = translate_clip(c, -100, 10);
  ASSERT_EQ(t2.rects.size(), 1u);
  EXPECT_EQ(t2.rects[0], Rect(900, 10, 924, 60));
}

TEST(Augment, RandomSymmetryPreservesLabelAndArea) {
  Rng rng(17);
  const Clip c = make_clip({Rect(100, 100, 300, 200)}, Label::Hotspot);
  for (int i = 0; i < 16; ++i) {
    const Clip s = random_symmetry(c, rng);
    EXPECT_EQ(s.label, Label::Hotspot);
    EXPECT_EQ(geom::union_area(s.rects), geom::union_area(c.rects));
  }
}

TEST(Augment, UpsampleReachesTargetRatio) {
  const Dataset ds = make_dataset(5, 95);
  Rng rng(1);
  const Dataset up = upsample_minority(ds, 0.3, rng);
  EXPECT_GE(up.stats().hotspot_ratio, 0.3);
  EXPECT_EQ(up.stats().non_hotspots, 95u);  // majority untouched
}

TEST(Augment, UpsampleNoopWhenAlreadyBalanced) {
  const Dataset ds = make_dataset(50, 50);
  Rng rng(1);
  EXPECT_EQ(upsample_minority(ds, 0.3, rng).size(), ds.size());
}

TEST(Augment, UpsampleCapsAtBalance) {
  const Dataset ds = make_dataset(10, 20);
  Rng rng(1);
  const Dataset up = upsample_minority(ds, 0.95, rng);
  EXPECT_LE(up.stats().hotspots, up.stats().non_hotspots);
}

TEST(Augment, UpsampleHandlesAllHotspot) {
  const Dataset ds = make_dataset(10, 0);
  Rng rng(1);
  EXPECT_EQ(upsample_minority(ds, 0.5, rng).size(), 10u);
}

TEST(Augment, UpsampleRejectsBadRatio) {
  const Dataset ds = make_dataset(5, 5);
  Rng rng(1);
  EXPECT_THROW(upsample_minority(ds, 0.0, rng), Error);
  EXPECT_THROW(upsample_minority(ds, 1.0, rng), Error);
}

TEST(Augment, MirrorUpsampleAddsOnlyHotspots) {
  const Dataset ds = make_dataset(5, 95);
  Rng rng(1);
  const Dataset up = upsample_minority_mirror(ds, 0.3, rng, 16);
  EXPECT_GE(up.stats().hotspot_ratio, 0.3);
  for (std::size_t i = 0; i < up.size(); ++i) {
    if (up[i].is_hotspot()) continue;
    EXPECT_EQ(up[i].rects[0].width(), 50);  // originals only
  }
}

TEST(Augment, AugmentDatasetMultipliesSize) {
  const Dataset ds = make_dataset(4, 16);
  Rng rng(2);
  const Dataset aug = augment_dataset(ds, 3, 16, rng);
  EXPECT_EQ(aug.size(), 60u);
  const auto s = aug.stats();
  EXPECT_EQ(s.hotspots, 12u);  // class balance preserved exactly
}

TEST(Augment, AugmentFactorOneIsCopy) {
  const Dataset ds = make_dataset(2, 2);
  Rng rng(2);
  EXPECT_EQ(augment_dataset(ds, 1, 16, rng).size(), 4u);
}

TEST(Augment, AugmentRejectsBadFactor) {
  const Dataset ds = make_dataset(2, 2);
  Rng rng(2);
  EXPECT_THROW(augment_dataset(ds, 0, 16, rng), Error);
}

TEST(Augment, PrepareTrainingSetMatchesExplicitSteps) {
  const Dataset ds = make_dataset(3, 13);
  const geom::Coord shift = 16;
  for (const int factor : {1, 3}) {
    for (const bool mirror : {true, false}) {
      for (const double ratio : {0.0, 0.35}) {
        SCOPED_TRACE(testing::Message() << "factor " << factor << " mirror "
                                        << mirror << " ratio " << ratio);
        Rng rng(7);
        Dataset scratch;
        const Dataset& got = prepare_training_set(ds, factor, mirror, shift,
                                                  ratio, rng, scratch);
        Rng want_rng(7);
        Dataset want = ds;
        const bool augment = factor > 1 && mirror;
        if (augment) want = augment_dataset(want, factor, shift, want_rng);
        if (ratio > 0) {
          want = mirror ? upsample_minority_mirror(want, ratio, want_rng, shift)
                        : upsample_minority(want, ratio, want_rng);
        }
        // No step runs: the input itself comes back, never a copy.
        EXPECT_EQ(&got, augment || ratio > 0 ? &scratch : &ds);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].rects, want[i].rects) << "clip " << i;
          EXPECT_EQ(got[i].label, want[i].label) << "clip " << i;
          EXPECT_EQ(got[i].id, want[i].id) << "clip " << i;
        }
        EXPECT_EQ(rng.next_u64(), want_rng.next_u64());  // same draws
      }
    }
  }
}

// --------------------------------------------------------------- data io --

TEST(DataIo, StreamRoundTripPreservesEverything) {
  Dataset ds("roundtrip");
  ds.add(make_clip({Rect(1, 2, 3, 4), Rect(-5, -6, 7, 8)}, Label::Hotspot,
                   2048));
  ds.add(make_clip({}, Label::NonHotspot));
  std::stringstream buf;
  save_dataset(ds, buf);
  const Dataset back = load_dataset(buf);
  EXPECT_EQ(back.name(), "roundtrip");
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].rects, ds[0].rects);
  EXPECT_EQ(back[0].window_nm, 2048);
  EXPECT_EQ(back[0].label, Label::Hotspot);
  EXPECT_TRUE(back[1].rects.empty());
  EXPECT_EQ(back[1].label, Label::NonHotspot);
}

TEST(DataIo, FileRoundTrip) {
  namespace fs = std::filesystem;
  const auto path = fs::temp_directory_path() / "lhd_test_dataset.lhdd";
  const Dataset ds = make_dataset(3, 4);
  save_dataset_file(ds, path.string());
  const Dataset back = load_dataset_file(path.string());
  EXPECT_EQ(back.size(), 7u);
  EXPECT_EQ(back.stats().hotspots, 3u);
  fs::remove(path);
}

TEST(DataIo, RejectsGarbageMagic) {
  std::stringstream buf;
  buf << "NOT A DATASET STREAM AT ALL";
  EXPECT_THROW(load_dataset(buf), Error);
}

TEST(DataIo, RejectsTruncatedStream) {
  Dataset ds = make_dataset(2, 2);
  std::stringstream buf;
  save_dataset(ds, buf);
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_dataset(cut), Error);
}

TEST(DataIo, MissingFileThrows) {
  EXPECT_THROW(load_dataset_file("/nonexistent/path/x.lhdd"), Error);
}

TEST(DataIo, StreamFailureAtEveryByteThrowsCleanly) {
  // Fault injection: cut the stream at every single byte offset. The
  // loader must throw lhd::Error each time — never crash, hang, or return
  // a half-parsed dataset.
  Rng rng(41);
  Dataset ds("faulty");
  for (int i = 0; i < 5; ++i) {
    ds.add(testkit::random_clip(rng, 1 + static_cast<std::size_t>(i)));
  }
  std::ostringstream buf;
  save_dataset(ds, buf);
  const std::string blob = buf.str();
  const std::vector<std::uint8_t> bytes(blob.begin(), blob.end());

  testkit::for_each_fail_point(
      bytes, [&](std::istream& in, std::size_t fail_at) {
        EXPECT_THROW(load_dataset(in), Error)
            << "load succeeded with stream cut at byte " << fail_at;
      });

  // Sanity: the unfaulted stream still loads.
  std::istringstream whole(blob);
  EXPECT_EQ(load_dataset(whole).size(), ds.size());
}

// -------------------------------------------------------------- clip hash --

TEST(ClipHash, CanonicalFormIsWindowLocalSorted) {
  // The form keeps every rect where it sits in the window and only erases
  // the list order.
  const auto canon = canonical_clip(
      {Rect(700, 400, 800, 500), Rect(300, 200, 400, 300)}, 1024);
  ASSERT_EQ(canon.rects.size(), 2u);
  EXPECT_EQ(canon.rects[0], Rect(300, 200, 400, 300));
  EXPECT_EQ(canon.rects[1], Rect(700, 400, 800, 500));
  EXPECT_EQ(canon.window_nm, 1024);
}

TEST(ClipHash, TranslationInvariant) {
  // The memo key must NOT be translation invariant: detectors score
  // position-dependent features, so a pattern moved inside its window is
  // a different clip. Permuting the rect list is the only freedom the key
  // erases.
  const Clip base =
      make_clip({Rect(100, 100, 300, 200), Rect(400, 100, 500, 600)},
                Label::Hotspot);
  for (const auto& [dx, dy] : {std::pair(8, 0), std::pair(0, -64),
                               std::pair(123, 67)}) {
    Clip moved = base;
    for (auto& r : moved.rects) r = r.shifted(dx, dy);
    EXPECT_NE(canonical_clip(moved), canonical_clip(base)) << dx << "," << dy;
    EXPECT_NE(clip_hash(moved), clip_hash(base)) << dx << "," << dy;
  }
  Clip permuted = base;
  std::reverse(permuted.rects.begin(), permuted.rects.end());
  EXPECT_EQ(canonical_clip(permuted), canonical_clip(base));
  EXPECT_EQ(clip_hash(permuted), clip_hash(base));
}

TEST(ClipHash, RectOrderInvariant) {
  const Clip ab =
      make_clip({Rect(0, 0, 100, 100), Rect(200, 300, 400, 500)},
                Label::Hotspot);
  const Clip ba =
      make_clip({Rect(200, 300, 400, 500), Rect(0, 0, 100, 100)},
                Label::Hotspot);
  EXPECT_EQ(canonical_clip(ab), canonical_clip(ba));
  EXPECT_EQ(clip_hash(ab), clip_hash(ba));
}

TEST(ClipHash, MirrorAndRotationAreDistinctPatterns) {
  // Detectors are not symmetry-invariant, so symmetric variants must not
  // share a cache entry: an asymmetric L-shaped pair and its mirrored /
  // rotated images must canonicalize differently.
  const Clip base =
      make_clip({Rect(0, 0, 300, 100), Rect(0, 100, 100, 400)},
                Label::Hotspot);
  Clip mirrored = base;  // flip x inside the 1024 nm window: x -> 1024 - x
  for (auto& r : mirrored.rects) {
    r = Rect(1024 - r.xhi, r.ylo, 1024 - r.xlo, r.yhi);
  }
  Clip rotated = base;  // rotate 90° in the window: (x, y) -> (1024 - y, x)
  for (auto& r : rotated.rects) {
    r = Rect(1024 - r.yhi, r.xlo, 1024 - r.ylo, r.xhi);
  }
  EXPECT_NE(canonical_clip(mirrored), canonical_clip(base));
  EXPECT_NE(canonical_clip(rotated), canonical_clip(base));
  EXPECT_NE(clip_hash(mirrored), clip_hash(base));
  EXPECT_NE(clip_hash(rotated), clip_hash(base));
}

TEST(ClipHash, WindowSizeIsPartOfTheForm) {
  // Same rects in a different window = a different classification problem.
  const Clip small = make_clip({Rect(0, 0, 100, 100)}, Label::Hotspot, 512);
  const Clip large = make_clip({Rect(0, 0, 100, 100)}, Label::Hotspot, 1024);
  EXPECT_NE(canonical_clip(small), canonical_clip(large));
  EXPECT_NE(clip_hash(small), clip_hash(large));
}

TEST(ClipHash, LabelAndIdDoNotAffectTheForm) {
  Clip hot = make_clip({Rect(0, 0, 100, 100)}, Label::Hotspot);
  Clip cold = make_clip({Rect(0, 0, 100, 100)}, Label::NonHotspot);
  EXPECT_EQ(canonical_clip(hot), canonical_clip(cold));
  EXPECT_EQ(clip_hash(hot), clip_hash(cold));
}

}  // namespace
}  // namespace lhd::data
