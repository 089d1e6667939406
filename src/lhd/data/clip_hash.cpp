#include "lhd/data/clip_hash.hpp"

#include <algorithm>

namespace lhd::data {

namespace {

/// splitmix64 finalizer — full-avalanche mixing so structured coordinate
/// streams (small ints, aligned to grids) spread over the whole 64 bits.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t combine(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ mix64(v));
}

bool rect_less(const geom::Rect& a, const geom::Rect& b) {
  if (a.xlo != b.xlo) return a.xlo < b.xlo;
  if (a.ylo != b.ylo) return a.ylo < b.ylo;
  if (a.xhi != b.xhi) return a.xhi < b.xhi;
  return a.yhi < b.yhi;
}

}  // namespace

CanonicalClip canonical_clip(std::vector<geom::Rect> rects,
                             geom::Coord window_nm) {
  CanonicalClip canon;
  canon.window_nm = window_nm;
  canon.rects = std::move(rects);
  std::sort(canon.rects.begin(), canon.rects.end(), rect_less);
  return canon;
}

CanonicalClip canonical_clip(const Clip& clip) {
  return canonical_clip(clip.rects, clip.window_nm);
}

std::uint64_t canonical_hash(const CanonicalClip& canon) {
  std::uint64_t h = 0x6c68645f636c6970ULL;  // "lhd_clip"
  h = combine(h, static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(canon.window_nm)));
  h = combine(h, canon.rects.size());
  for (const auto& r : canon.rects) {
    // Pack two 32-bit coords per mix step: fewer rounds, same avalanche.
    h = combine(h, (static_cast<std::uint64_t>(
                        static_cast<std::uint32_t>(r.xlo))
                    << 32) |
                       static_cast<std::uint32_t>(r.ylo));
    h = combine(h, (static_cast<std::uint64_t>(
                        static_cast<std::uint32_t>(r.xhi))
                    << 32) |
                       static_cast<std::uint32_t>(r.yhi));
  }
  return h;
}

std::uint64_t clip_hash(const Clip& clip) {
  return canonical_hash(canonical_clip(clip));
}

}  // namespace lhd::data
