#include "log/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define TPSTREAM_CRC32C_SSE42 1
#endif

namespace tpstream {
namespace log {
namespace {

constexpr uint32_t kPoly = 0x82f63b78u;  // 0x1EDC6F41 reflected

// Slicing-by-4 tables for the reflected Castagnoli polynomial, generated
// once at static-init time. Table 0 is the classic byte-at-a-time table;
// table k folds a zero byte k positions later, letting the hot loop
// consume four bytes per iteration without per-byte carries.
struct Tables {
  std::array<std::array<uint32_t, 256>, 4> t;

  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xffu];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xffu];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xffu];
    }
  }
};

const Tables& tables() {
  static const Tables kTables;
  return kTables;
}

// Product of two polynomials modulo the CRC polynomial, both in the
// reflected bit order (bit 31 is x^0).
uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// p[k] = x^(2^k) modulo the CRC polynomial, for every k a 64-bit byte
// count can reach (bit 63 of the count is bit 66 of the bit count).
struct Powers {
  std::array<uint32_t, 67> p;

  Powers() {
    p[0] = 1u << 30;  // x^1
    for (size_t k = 1; k < p.size(); ++k) p[k] = MultModP(p[k - 1], p[k - 1]);
  }
};

// x^(8 * bytes) modulo the CRC polynomial: the factor that shifts a CRC
// past `bytes` zero bytes.
uint32_t ShiftFactor(uint64_t bytes) {
  static const Powers kPowers;
  uint32_t factor = 1u << 31;  // x^0
  for (size_t k = 3; bytes != 0; bytes >>= 1, ++k) {
    if (bytes & 1u) factor = MultModP(kPowers.p[k], factor);
  }
  return factor;
}

#ifdef TPSTREAM_CRC32C_SSE42
// The SSE4.2 CRC32 instruction computes exactly this polynomial, eight
// bytes per instruction. Only called after the run-time CPU check.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t crc, std::string_view data) {
  uint64_t c = crc ^ 0xffffffffu;
  const char* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n-- > 0) {
    c32 = _mm_crc32_u8(c32, static_cast<unsigned char>(*p++));
  }
  return c32 ^ 0xffffffffu;
}

bool HasSse42() {
  static const bool kSupported = __builtin_cpu_supports("sse4.2");
  return kSupported;
}
#endif

}  // namespace

uint32_t Crc32cExtendTable(uint32_t crc, std::string_view data) {
  const Tables& tb = tables();
  uint32_t c = crc ^ 0xffffffffu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  while (n >= 4) {
    c ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
    c = tb.t[3][c & 0xffu] ^ tb.t[2][(c >> 8) & 0xffu] ^
        tb.t[1][(c >> 16) & 0xffu] ^ tb.t[0][c >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    c = (c >> 8) ^ tb.t[0][(c ^ *p++) & 0xffu];
  }
  return c ^ 0xffffffffu;
}

uint32_t Crc32cExtend(uint32_t crc, std::string_view data) {
#ifdef TPSTREAM_CRC32C_SSE42
  if (HasSse42()) return Crc32cExtendSse42(crc, data);
#endif
  return Crc32cExtendTable(crc, data);
}

uint32_t Crc32c(std::string_view data) { return Crc32cExtend(0, data); }

uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b) {
  // The pre- and post-inversions cancel: crc(a + b) is crc(a) shifted
  // past len_b zero bytes, xor crc(b).
  return MultModP(ShiftFactor(len_b), crc_a) ^ crc_b;
}

}  // namespace log
}  // namespace tpstream
