#include "util/codec.hpp"

namespace plwg {

void Encoder::put_bytes(std::span<const std::uint8_t> bytes) {
  put_u32(static_cast<std::uint32_t>(bytes.size()));
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void Encoder::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

std::span<const std::uint8_t> Decoder::get_bytes_view() {
  const std::uint32_t len = get_u32();
  require(len);
  const std::span<const std::uint8_t> out = data_.subspan(pos_, len);
  pos_ += len;
  return out;
}

SharedBytes SharedBytes::copy_of(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return {};
  std::shared_ptr<std::uint8_t[]> buf =
      std::make_shared_for_overwrite<std::uint8_t[]>(bytes.size());
  std::uint8_t* const first = buf.get();
  std::ranges::copy(bytes, first);
  return SharedBytes(BytesOwner(std::move(buf), first), {first, bytes.size()});
}

SharedBytes Decoder::get_shared_bytes() {
  const auto view = get_bytes_view();
  if (owner_ == nullptr) return SharedBytes::copy_of(view);
  return SharedBytes(*owner_, view);
}

void Decoder::get_u64_span(std::span<std::uint64_t> out) {
  if (out.empty()) return;  // data() may be null: memcpy would be UB
  require(out.size_bytes());
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data(), data_.data() + pos_, out.size_bytes());
    pos_ += out.size_bytes();
  } else {
    for (std::uint64_t& v : out) v = get_u64();
  }
}

std::vector<std::uint8_t> Decoder::get_bytes() {
  const auto view = get_bytes_view();
  return {view.begin(), view.end()};
}

std::string Decoder::get_string() {
  const std::uint32_t len = get_u32();
  require(len);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return out;
}

std::uint32_t Decoder::get_count(std::size_t min_element_bytes) {
  const std::uint32_t n = get_u32();
  // Compare by division so an enormous `min_element_bytes` can't overflow
  // the check itself; equivalent to n * min > remaining for min != 0.
  if (min_element_bytes != 0 && n > remaining() / min_element_bytes) {
    throw CodecError("decoder: count " + std::to_string(n) +
                     " exceeds remaining input");
  }
  return n;
}

void Decoder::expect_done() const {
  if (!done()) {
    throw CodecError("decoder: " + std::to_string(remaining()) +
                     " trailing bytes");
  }
}

void Decoder::require(std::size_t n) const {
  if (remaining() < n) {
    throw CodecError("decoder: need " + std::to_string(n) + " bytes, have " +
                     std::to_string(remaining()));
  }
}

}  // namespace plwg
