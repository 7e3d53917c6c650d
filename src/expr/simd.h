#ifndef TPSTREAM_EXPR_SIMD_H_
#define TPSTREAM_EXPR_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tpstream::simd {

/// Vector width tier of the columnar kernels. Levels are ordered: a
/// request above what the machine supports clamps down (Effective).
/// Every level runs the same SoA executor, each on its own kernel table.
///
/// kOff is the scalar-width tier: the generic kernels built at one
/// 64-bit lane per vector, available on every platform. kSse2 is the
/// portable 128-bit tier: on x86-64 it compiles to SSE2
/// (baseline, always present); elsewhere the same generic-vector kernels
/// compile to whatever 128-bit ISA the target has (or scalar code), so
/// the tier is always available. kAvx2 exists only when the build could
/// compile the 256-bit translation unit *and* the CPU reports AVX2.
enum class SimdLevel : uint8_t { kOff = 0, kSse2 = 1, kAvx2 = 2 };

/// "off" / "sse2" / "avx2".
const char* SimdLevelName(SimdLevel level);

/// Best level this machine supports (cached capability probe).
SimdLevel BestSimdLevel();

/// Parses "off" | "sse2" | "avx2" | "native" ("native" resolves to
/// BestSimdLevel()). Returns false (and leaves *out alone) on anything
/// else, including empty.
bool ParseSimdLevel(std::string_view text, SimdLevel* out);

/// The level a request actually runs at: min(requested, best).
SimdLevel Effective(SimdLevel requested);

/// Process-wide default: the TPSTREAM_SIMD environment variable when set
/// to a parsable value, otherwise BestSimdLevel(). Cached on first call.
SimdLevel DefaultSimdLevel();

/// Function-pointer table of one level's kernels (after clamping with
/// Effective); never nullptr. Cross-TU dispatch: the AVX2 table lives in
/// a TU compiled with -mavx2, so 256-bit code can never leak into paths
/// executed on narrower CPUs.
struct Kernels;
const Kernels* KernelsFor(SimdLevel level);

/// One tier's columnar kernels. Boolean columns are byte arrays (one
/// 0/1 byte per row); null masks are byte arrays too (1 = null,
/// nullptr = no nulls) and only become packed words at the
/// RunPredicateColumnBits boundary (pack_bits). Value lanes under a set
/// null byte are *don't-care*: every consumer folds the mask, so kernels
/// are free to write garbage there (they never trap — integer ops wrap,
/// float ops follow IEEE, division guards zero divisors).
///
/// Comparison families are indexed by `opcode - kCmpEq`
/// (eq, ne, lt, le, gt, ge). Exactness contract (fuzzer-enforced):
///  - *_i64 compares run in the integer domain, never widened;
///  - *_f64 compares write out_null=1 on any NaN operand (matching the
///    interpreter's incomparable-null) and the raw IEEE predicate byte
///    otherwise;
///  - widen_i64 is static_cast<double> per lane;
///  - add/sub/mul/neg_i64 wrap exactly like common/value.h WrapAdd &co;
///  - div_f64 writes out_null=1 where b == 0.0 (quotient lane then
///    unspecified) and a/b elsewhere;
///  - neg_f64 flips the sign bit (preserves -0.0 / NaN payloads);
///  - truthy_f64 is `x != 0.0` (NaN is truthy), truthy_i64 is `x != 0`.
struct Kernels {
  size_t vector_bytes;  // lane register width this tier was built at

  // Column vs broadcast scalar.
  void (*cmp_f64_k[6])(const double* a, double b, uint8_t* out,
                       uint8_t* out_null, size_t n);
  void (*cmp_i64_k[6])(const int64_t* a, int64_t b, uint8_t* out, size_t n);
  // Column vs column.
  void (*cmp_f64[6])(const double* a, const double* b, uint8_t* out,
                     uint8_t* out_null, size_t n);
  void (*cmp_i64[6])(const int64_t* a, const int64_t* b, uint8_t* out,
                     size_t n);
  // Bool equality over 0/1 bytes (the only bool fast compares; order
  // compares on bools stay on the generic path).
  void (*cmp_bool_eq)(const uint8_t* a, const uint8_t* b, uint8_t* out,
                      size_t n);
  void (*cmp_bool_ne)(const uint8_t* a, const uint8_t* b, uint8_t* out,
                      size_t n);
  void (*cmp_bool_eq_k)(const uint8_t* a, uint8_t b, uint8_t* out, size_t n);
  void (*cmp_bool_ne_k)(const uint8_t* a, uint8_t b, uint8_t* out, size_t n);

  // Arithmetic.
  void (*add_f64)(const double* a, const double* b, double* out, size_t n);
  void (*sub_f64)(const double* a, const double* b, double* out, size_t n);
  void (*mul_f64)(const double* a, const double* b, double* out, size_t n);
  void (*div_f64)(const double* a, const double* b, double* out,
                  uint8_t* out_null, size_t n);
  void (*add_i64)(const int64_t* a, const int64_t* b, int64_t* out, size_t n);
  void (*sub_i64)(const int64_t* a, const int64_t* b, int64_t* out, size_t n);
  void (*mul_i64)(const int64_t* a, const int64_t* b, int64_t* out, size_t n);
  void (*neg_i64)(const int64_t* a, int64_t* out, size_t n);
  void (*neg_f64)(const double* a, double* out, size_t n);
  void (*widen_i64)(const int64_t* a, double* out, size_t n);

  // Truthiness and mask combination over 0/1 bytes.
  void (*truthy_i64)(const int64_t* a, uint8_t* out, size_t n);
  void (*truthy_f64)(const double* a, uint8_t* out, size_t n);
  void (*and_bool)(const uint8_t* a, const uint8_t* b, uint8_t* out,
                   size_t n);
  void (*or_bool)(const uint8_t* a, const uint8_t* b, uint8_t* out,
                  size_t n);
  void (*not_bool)(const uint8_t* a, uint8_t* out, size_t n);
  // out = value & ~nulls: folds a null mask into truthiness bytes
  // (null is falsy, like the interpreter's Truthy(null)).
  void (*andnot_bool)(const uint8_t* value, const uint8_t* nulls,
                      uint8_t* out, size_t n);

  bool (*any_byte)(const uint8_t* a, size_t n);
  // Packs n 0/1 bytes into ceil(n/64) words, row r at word r/64 bit
  // r%64; tail bits of the last word are zero.
  void (*pack_bits)(const uint8_t* bytes, size_t n, uint64_t* words);
};

namespace internal {
const Kernels* KernelsOff();
const Kernels* KernelsSse2();
#if defined(TPSTREAM_HAVE_AVX2_TU)
const Kernels* KernelsAvx2();
#endif
}  // namespace internal

}  // namespace tpstream::simd

#endif  // TPSTREAM_EXPR_SIMD_H_
