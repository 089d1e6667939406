#pragma once
// Network weight (de)serialization. The architecture is not encoded —
// callers rebuild the same topology (e.g. via make_hotspot_cnn) and load
// weights into it; sizes are checked parameter-by-parameter. Each
// parameter is stored in stream order (see Param::stream_rows), so a
// layer's in-memory layout can change without changing the format.

#include <iosfwd>
#include <string>

#include "lhd/nn/network.hpp"

namespace lhd::nn {

void save_weights(Network& net, std::ostream& out);
void load_weights(Network& net, std::istream& in);

void save_weights_file(Network& net, const std::string& path);
void load_weights_file(Network& net, const std::string& path);

}  // namespace lhd::nn
