#pragma once
/// @file obs.hpp
/// @brief Umbrella header for the lhd::obs observability layer: named
/// counters/histograms (`Registry`), RAII scoped timers (`ScopedTimer`),
/// deterministic JSON (`Json`) and whole-run reports (`RunReport`).
///
/// Instruments are always on and only ever observe, never steer: no
/// result depends on what they record.
///
/// Thread-safety: everything here is safe for concurrent use; see the
/// individual headers for the precise guarantees.

#include "lhd/obs/json.hpp"
#include "lhd/obs/registry.hpp"
#include "lhd/obs/report.hpp"
#include "lhd/obs/timer.hpp"
