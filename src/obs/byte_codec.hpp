// Little-endian byte codec shared by the repository's binary formats: the
// trace export (export.cpp), RecordedRun (replay.cpp) and the model
// checker's worker-result wire format (mcheck/explorer.cpp).  Internal:
// no public header includes it.
//
// Writers append to a std::string.  The Reader never reads past its
// input: every method returns false, consuming nothing, when too few bytes
// remain, so a decoder rejects malformed or truncated input instead of
// reading out of bounds.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tfr::obs::codec {

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out += static_cast<char>((v >> (8 * i)) & 0xff);
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out += static_cast<char>((v >> (8 * i)) & 0xff);
}

inline void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool u8(std::uint8_t& v) {
    if (pos_ >= bytes_.size()) return false;
    v = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
  }

  bool u32(std::uint32_t& v) { return little_endian(v, 4); }
  bool u64(std::uint64_t& v) { return little_endian(v, 8); }

  bool i64(std::int64_t& v) {
    std::uint64_t u = 0;
    if (!u64(u)) return false;
    v = static_cast<std::int64_t>(u);
    return true;
  }

  /// The next `len` bytes, verbatim.
  bool str(std::string& s, std::size_t len) {
    if (bytes_.size() - pos_ < len) return false;
    s.assign(bytes_.substr(pos_, len));
    pos_ += len;
    return true;
  }

 private:
  template <class U>
  bool little_endian(U& v, std::size_t width) {
    if (bytes_.size() - pos_ < width) return false;
    v = 0;
    for (std::size_t i = 0; i < width; ++i)
      v |= static_cast<U>(static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    pos_ += width;
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace tfr::obs::codec
