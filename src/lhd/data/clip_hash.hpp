#pragma once
// Canonical form + 64-bit content hash for clip geometry — the key the
// deduplicated full-chip scan caches detector scores under.
//
// Real layouts are massively repetitive: the same local pattern recurs
// across a chip thousands to millions of times (the observation behind the
// pattern-matching generation, EPIC, and clip-library compression). Two
// scan windows whose window-local rect lists are equal up to order are
// the *same clip*, so one detector invocation can serve all of them. The
// canonical form is that clip with the list order erased, nothing more:
//
//   * exact — the rects stay where they sit in the window; a pattern at a
//     different offset in its window is a different key, because the
//     detector scores position-dependent features (the CNN's DCT tensor);
//   * sorted — rects are ordered lexicographically by (xlo, ylo, xhi, yhi),
//     erasing enumeration order (rasterization sums per-pixel coverage in
//     exact multiples of the pixel area, so it does not depend on order —
//     asserted by the raster-permute property);
//   * window-tagged — window_nm is part of the form, since the same rects
//     in a different window are a different classification problem.
//
// A memo keyed on this form therefore returns exactly the score of the
// clip it is asked about. Mirrored, rotated and translated variants are
// different keys. All of this is asserted by the ClipHash tests.

#include <cstdint>
#include <vector>

#include "lhd/data/clip.hpp"
#include "lhd/geom/rect.hpp"

namespace lhd::data {

/// A clip's geometry in canonical (window-local, sorted) form. Equality on
/// this struct is the "same clip" relation the score caches deduplicate
/// by; keep the full form next to the hash so a 64-bit collision can never
/// alias two distinct clips.
struct CanonicalClip {
  std::vector<geom::Rect> rects;  ///< window-local, lexicographically sorted
  geom::Coord window_nm = 0;

  friend bool operator==(const CanonicalClip&, const CanonicalClip&) = default;
};

/// Canonicalize a window-local rect soup (the scan's per-window extraction).
CanonicalClip canonical_clip(std::vector<geom::Rect> rects,
                             geom::Coord window_nm);

/// Canonicalize a clip's geometry (label and id are not part of the form).
CanonicalClip canonical_clip(const Clip& clip);

/// 64-bit content hash of a canonical form (stable within a process run
/// and across runs — pure arithmetic, no pointer or seed dependence).
std::uint64_t canonical_hash(const CanonicalClip& canon);

/// Hash of `clip`'s canonical form: invariant under rect order, sensitive
/// to any change of the geometry (translation, mirroring, rotation) and to
/// window_nm. Convenience for `canonical_hash(canonical_clip(clip))`.
std::uint64_t clip_hash(const Clip& clip);

}  // namespace lhd::data
