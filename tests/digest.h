// FNV-1a digest shared by the bit-for-bit pin tests.

#ifndef LQOLAB_TESTS_DIGEST_H_
#define LQOLAB_TESTS_DIGEST_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace lqolab::testutil {

/// FNV-1a over text. Doubles are hashed as hex-float renderings (printf
/// "%a"), so a change to any bit of any pinned number changes the digest.
class Digest {
 public:
  void Add(std::string_view text) {
    for (const char c : text) {
      value_ ^= static_cast<uint8_t>(c);
      value_ *= 1099511628211ull;
    }
    value_ ^= 0xff;  // Field separator.
    value_ *= 1099511628211ull;
  }
  void AddDouble(double d) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", d);
    Add(buf);
  }
  void AddInt(int64_t v) { Add(std::to_string(v)); }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 1469598103934665603ull;
};

}  // namespace lqolab::testutil

#endif  // LQOLAB_TESTS_DIGEST_H_
