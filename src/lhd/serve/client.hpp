#pragma once
/// @file client.hpp
/// @brief Small blocking client for the serve protocol: one call() per
/// request, strictly request/response over a Transport. This is the
/// reference counterpart the round-trip example, the tests, and any
/// out-of-process driver of tools/lhd_served use.
///
/// Thread-safety: a Client wraps one Transport (one connection) and is
/// NOT thread-safe — frames would interleave. Concurrency comes from many
/// clients over many transports, which is exactly what the admission-
/// control tests drive.

#include <cstdint>
#include <string>
#include <vector>

#include "lhd/geom/rect.hpp"
#include "lhd/serve/protocol.hpp"
#include "lhd/serve/transport.hpp"

namespace lhd::serve {

class Client {
 public:
  /// Borrows `transport` (caller keeps it alive). `tenant` stamps every
  /// request this client sends.
  explicit Client(Transport& transport, std::uint32_t tenant = 0);

  /// Send one request, block for its answer. Throws WireError if the
  /// response stream is malformed and lhd::Error if the transport died.
  Response call(const Request& request);

  // Typed conveniences over call(); each returns the raw Response so
  // callers can observe Busy/Error without exceptions.
  Response score_clip(const std::string& model, std::int32_t window_nm,
                      std::vector<geom::Rect> rects);
  Response scan_region(const std::string& model, std::int32_t window_nm,
                       std::int32_t stride_nm, std::vector<geom::Rect> rects);
  Response stats();

  std::uint32_t tenant() const { return tenant_; }

 private:
  Transport& transport_;
  std::uint32_t tenant_ = 0;
};

}  // namespace lhd::serve
