#include "lhd/serve/client.hpp"

#include <istream>
#include <ostream>
#include <utility>

#include "lhd/util/check.hpp"

namespace lhd::serve {

Client::Client(Transport& transport, std::uint32_t tenant)
    : transport_(transport), tenant_(tenant) {}

Response Client::call(const Request& request) {
  std::ostream& out = transport_.out();
  encode_request(request, out);
  out.flush();
  LHD_CHECK(out.good(), "serve client: transport write failed");
  return decode_response(transport_.in());
}

Response Client::score_clip(const std::string& model, std::int32_t window_nm,
                            std::vector<geom::Rect> rects) {
  Request req;
  req.tenant = tenant_;
  req.body = ScoreClip{model, window_nm, std::move(rects)};
  return call(req);
}

Response Client::scan_region(const std::string& model, std::int32_t window_nm,
                             std::int32_t stride_nm,
                             std::vector<geom::Rect> rects) {
  Request req;
  req.tenant = tenant_;
  req.body = ScanRegion{model, window_nm, stride_nm, std::move(rects)};
  return call(req);
}

Response Client::stats() {
  Request req;
  req.tenant = tenant_;
  req.body = Stats{};
  return call(req);
}

}  // namespace lhd::serve
