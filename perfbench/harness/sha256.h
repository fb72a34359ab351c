// SHA-256 (FIPS 180-4) for the benchmark's output digests.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

class sha256 {
 public:
  sha256();
  void update(const void* data, std::size_t len);
  void update(std::string_view s) { update(s.data(), s.size()); }
  template <class T>
  void update_pod(const T& v) {
    update(&v, sizeof v);
  }
  /// Lower-case hex digest; the object must not be updated afterwards.
  [[nodiscard]] std::string hex();

 private:
  void block(const std::uint8_t* p);

  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, 64> buf_{};
  std::size_t fill_ = 0;
  std::uint64_t bits_ = 0;
};

[[nodiscard]] std::string sha256_hex(std::string_view s);

}  // namespace perfbench
