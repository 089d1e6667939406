#pragma once
// Imbalance-aware training-set preparation: minority upsampling and
// mirror/rotate augmentation.
//
// Hotspots are a small minority of real layout clips; trained naively, a
// classifier collapses to the majority class. The survey's deep-learning
// recipe (Yang et al., SPIE'17) upsamples the minority class and applies
// random mirror flips — both label-preserving here because the optical
// model is isotropic, so a mirrored layout has an identical process window.

#include "lhd/data/dataset.hpp"

namespace lhd::data {

/// Mirror a clip about the vertical axis (x -> window - x).
Clip flip_clip_x(const Clip& clip);
/// Mirror a clip about the horizontal axis (y -> window - y).
Clip flip_clip_y(const Clip& clip);
/// Rotate a clip 90 degrees counter-clockwise within its window.
Clip rotate_clip_90(const Clip& clip);

/// Replicate minority-class (hotspot) clips until they make up at least
/// `target_ratio` of the dataset (or the majority count is reached).
/// Replicas are exact copies. Order is re-shuffled.
Dataset upsample_minority(const Dataset& ds, double target_ratio, Rng& rng);

/// Same as upsample_minority, but each replica is passed through a random
/// symmetry (flip-x / flip-y / rotate / combinations) and, when max_shift
/// is non-zero, a random translation — so replicas are not
/// pixel-identical. This is the survey's "random mirror flipping"
/// augmentation (plus shift jitter for block-feature tolerance).
Dataset upsample_minority_mirror(const Dataset& ds, double target_ratio,
                                 Rng& rng, geom::Coord max_shift = 0);

/// Apply a random symmetry (possibly identity) to a clip.
Clip random_symmetry(const Clip& clip, Rng& rng);

/// Translate a clip's geometry by (dx, dy) nm, re-clipping to the window.
/// Small shifts teach the detector translation tolerance — block-based
/// features (density grids, DCT tensors) are not shift-invariant.
Clip translate_clip(const Clip& clip, geom::Coord dx, geom::Coord dy);

/// random_symmetry plus a uniform random shift in [-max_shift, max_shift]².
Clip random_symmetry_shift(const Clip& clip, geom::Coord max_shift, Rng& rng);

/// Grow the dataset to `factor` times its size by appending random
/// symmetry+shift replicas of every clip (both classes). Teaches
/// block-feature detectors translation/orientation tolerance.
Dataset augment_dataset(const Dataset& ds, int factor, geom::Coord max_shift,
                        Rng& rng);

/// The detectors' training-set preparation. When `mirror_augment` and
/// `augment_factor` > 1, augment_dataset grows the set; then, when
/// `upsample_ratio` > 0, the minority is upsampled (through
/// upsample_minority_mirror when `mirror_augment`). Each step's result is
/// built into `scratch`. Returns `ds` itself when no step runs, so the
/// no-op case never copies.
const Dataset& prepare_training_set(const Dataset& ds, int augment_factor,
                                    bool mirror_augment, geom::Coord shift_nm,
                                    double upsample_ratio, Rng& rng,
                                    Dataset& scratch);

}  // namespace lhd::data
