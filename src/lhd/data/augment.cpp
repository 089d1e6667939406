#include "lhd/data/augment.hpp"

#include "lhd/geom/polygon.hpp"

#include <algorithm>

#include "lhd/util/check.hpp"

namespace lhd::data {

Clip flip_clip_x(const Clip& clip) {
  Clip out = clip;
  for (auto& r : out.rects) {
    const geom::Coord xlo = clip.window_nm - r.xhi;
    const geom::Coord xhi = clip.window_nm - r.xlo;
    r.xlo = xlo;
    r.xhi = xhi;
  }
  return out;
}

Clip flip_clip_y(const Clip& clip) {
  Clip out = clip;
  for (auto& r : out.rects) {
    const geom::Coord ylo = clip.window_nm - r.yhi;
    const geom::Coord yhi = clip.window_nm - r.ylo;
    r.ylo = ylo;
    r.yhi = yhi;
  }
  return out;
}

Clip rotate_clip_90(const Clip& clip) {
  Clip out = clip;
  for (auto& r : out.rects) {
    // CCW within the window: (x, y) -> (window - y, x).
    const geom::Rect rot(clip.window_nm - r.yhi, r.xlo,
                         clip.window_nm - r.ylo, r.xhi);
    r = rot;
  }
  return out;
}

Clip random_symmetry(const Clip& clip, Rng& rng) {
  Clip out = clip;
  if (rng.next_bool()) out = flip_clip_x(out);
  if (rng.next_bool()) out = flip_clip_y(out);
  if (rng.next_bool()) out = rotate_clip_90(out);
  return out;
}

Clip translate_clip(const Clip& clip, geom::Coord dx, geom::Coord dy) {
  Clip out = clip;
  for (auto& r : out.rects) r = r.shifted(dx, dy);
  out.rects = geom::clip_rects(out.rects,
                               geom::Rect(0, 0, clip.window_nm, clip.window_nm));
  return out;
}

Clip random_symmetry_shift(const Clip& clip, geom::Coord max_shift,
                           Rng& rng) {
  Clip out = random_symmetry(clip, rng);
  if (max_shift > 0) {
    const auto dx = static_cast<geom::Coord>(
        rng.next_int(-max_shift, max_shift));
    const auto dy = static_cast<geom::Coord>(
        rng.next_int(-max_shift, max_shift));
    out = translate_clip(out, dx, dy);
  }
  return out;
}

Dataset augment_dataset(const Dataset& ds, int factor, geom::Coord max_shift,
                        Rng& rng) {
  LHD_CHECK(factor >= 1, "factor must be >= 1");
  Dataset out(ds.name());
  out.reserve(ds.size() * static_cast<std::size_t>(factor));
  out.append(ds);
  for (int k = 1; k < factor; ++k) {
    for (std::size_t i = 0; i < ds.size(); ++i) {
      out.add(random_symmetry_shift(ds[i], max_shift, rng));
    }
  }
  out.shuffle(rng);
  return out;
}

namespace {

Dataset upsample_impl(const Dataset& ds, double target_ratio, Rng& rng,
                      bool mirror, geom::Coord max_shift) {
  LHD_CHECK(target_ratio > 0 && target_ratio < 1,
            "target_ratio must be in (0,1)");
  const DatasetStats s = ds.stats();
  Dataset out(ds.name());
  out.append(ds);
  if (s.hotspots == 0 || s.hotspots == s.total) return out;

  // Solve for the number of replicas k so that
  // (hotspots + k) / (total + k) >= target_ratio, capped at class balance.
  const double h = static_cast<double>(s.hotspots);
  const double t = static_cast<double>(s.total);
  long long k = 0;
  if (h / t < target_ratio) {
    k = static_cast<long long>((target_ratio * t - h) / (1.0 - target_ratio)) +
        1;
  }
  const long long cap = static_cast<long long>(s.non_hotspots - s.hotspots);
  k = std::min(k, std::max(cap, 0LL));

  const Dataset minority = ds.filter(Label::Hotspot);
  for (long long i = 0; i < k; ++i) {
    const Clip& src =
        minority[static_cast<std::size_t>(rng.next_below(minority.size()))];
    out.add(mirror ? random_symmetry_shift(src, max_shift, rng) : src);
  }
  out.shuffle(rng);
  return out;
}

}  // namespace

Dataset upsample_minority(const Dataset& ds, double target_ratio, Rng& rng) {
  return upsample_impl(ds, target_ratio, rng, /*mirror=*/false, 0);
}

Dataset upsample_minority_mirror(const Dataset& ds, double target_ratio,
                                 Rng& rng, geom::Coord max_shift) {
  return upsample_impl(ds, target_ratio, rng, /*mirror=*/true, max_shift);
}

const Dataset& prepare_training_set(const Dataset& ds, int augment_factor,
                                    bool mirror_augment, geom::Coord shift_nm,
                                    double upsample_ratio, Rng& rng,
                                    Dataset& scratch) {
  const Dataset* source = &ds;
  if (augment_factor > 1 && mirror_augment) {
    scratch = augment_dataset(ds, augment_factor, shift_nm, rng);
    source = &scratch;
  }
  if (upsample_ratio > 0) {
    scratch = mirror_augment ? upsample_minority_mirror(*source, upsample_ratio,
                                                        rng, shift_nm)
                             : upsample_minority(*source, upsample_ratio, rng);
    source = &scratch;
  }
  return *source;
}

}  // namespace lhd::data
