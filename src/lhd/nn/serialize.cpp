#include "lhd/nn/serialize.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "lhd/util/bounded.hpp"
#include "lhd/util/check.hpp"

namespace lhd::nn {

namespace {
constexpr char kMagic[4] = {'L', 'H', 'D', 'N'};
constexpr std::uint32_t kVersion = 1;

[[noreturn]] void fail_at(std::uint64_t offset, const std::string& msg) {
  std::ostringstream os;
  os << "weight stream error at byte " << offset << ": " << msg;
  throw Error(os.str());
}

/// Offset-tracking reader so every failure names the byte it happened at.
class StreamReader {
 public:
  explicit StreamReader(std::istream& in) : in_(in) {}

  void read_exact(void* dst, std::size_t n, const char* what) {
    in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    const auto got = static_cast<std::size_t>(in_.gcount());
    if (got != n) {
      std::ostringstream os;
      os << "truncated reading " << what << " (wanted " << n
         << " bytes, got " << got << ")";
      fail_at(offset_ + got, os.str());
    }
    offset_ += n;
  }

  std::uint64_t offset() const { return offset_; }

 private:
  std::istream& in_;
  std::uint64_t offset_ = 0;
};
}  // namespace

void save_weights(Network& net, std::ostream& out) {
  out.write(kMagic, 4);
  out.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
  const auto params = net.params();
  const auto count = static_cast<std::uint32_t>(params.size());
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& p : params) {
    const std::vector<float> blob = to_stream_order(p, *p.value);
    const auto n = static_cast<std::uint64_t>(blob.size());
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(n * sizeof(float)));
  }
  LHD_CHECK(out.good(), "weight write failed");
}

void load_weights(Network& net, std::istream& in) {
  StreamReader r(in);
  char magic[4];
  r.read_exact(magic, sizeof(magic), "magic");
  if (std::memcmp(magic, kMagic, 4) != 0) {
    fail_at(0, "not a lhd weight stream (bad magic)");
  }
  std::uint32_t version = 0;
  std::uint64_t field_at = r.offset();
  r.read_exact(&version, sizeof(version), "version");
  if (version != kVersion) {
    std::ostringstream os;
    os << "unsupported weight version " << version;
    fail_at(field_at, os.str());
  }
  std::uint32_t count = 0;
  field_at = r.offset();
  r.read_exact(&count, sizeof(count), "parameter count");
  const auto params = net.params();
  if (count != params.size()) {
    std::ostringstream os;
    os << "parameter count mismatch: stream has " << count
       << ", network has " << params.size();
    fail_at(field_at, os.str());
  }
  // Stage every blob before touching the network, so a stream that fails
  // mid-way never leaves a half-loaded model. Each size field is validated
  // against the expected parameter size before the allocation it drives.
  std::vector<std::vector<float>> staged(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::uint64_t n = 0;
    field_at = r.offset();
    r.read_exact(&n, sizeof(n), "parameter size");
    if (n != params[i].value->size()) {
      std::ostringstream os;
      os << "parameter " << i << " size mismatch: stream has " << n
         << ", network wants " << params[i].value->size();
      fail_at(field_at, os.str());
    }
    // n == params[i].value->size() was just validated, so the cap is the
    // network's own parameter size — the stream cannot out-allocate it.
    lhd::bounded_resize(staged[i], n, params[i].value->size());
    r.read_exact(staged[i].data(),
                 static_cast<std::size_t>(n) * sizeof(float),
                 "parameter data");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    *params[i].value = from_stream_order(params[i], staged[i]);
  }
}

void save_weights_file(Network& net, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  LHD_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  save_weights(net, out);
}

void load_weights_file(Network& net, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  LHD_CHECK_MSG(in.good(), "cannot open " << path << " for reading");
  load_weights(net, in);
}

}  // namespace lhd::nn
