#ifndef TPSTREAM_CKPT_SERDE_H_
#define TPSTREAM_CKPT_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/event.h"
#include "common/situation.h"
#include "common/status.h"
#include "common/value.h"

namespace tpstream {
namespace ckpt {

/// Checkpoint wire format (Durability contract, docs/architecture.md):
/// little-endian fixed-width scalars, length-prefixed strings and
/// sections. Every top-level checkpoint starts with an envelope
///
///   u32 magic "TPCK" | u32 format version | u64 event-log offset
///
/// and every component writes one *section*: a u32 byte length followed
/// by the component tag (u32) and its payload. Readers verify that each
/// section is consumed exactly, so corruption and version skew surface as
/// Status errors instead of silently mis-restored state. Doubles are
/// serialized bit-exact (memcpy through uint64), which is what makes the
/// replay differential tests byte-identical: restored EMA statistics are
/// the same IEEE-754 values, not a rounded decimal round-trip.
inline constexpr uint32_t kMagic = 0x4b435054;  // "TPCK" little-endian
inline constexpr uint32_t kFormatVersion = 1;

/// Footer magic for the trailing integrity section appended by
/// SealChecksum (shared CRC-32C with the durable log, log/crc32c.h).
inline constexpr uint32_t kChecksumMagic = 0x53435054;  // "TPCS"

/// Component tags: each Checkpoint() payload is labelled so a Restore()
/// into the wrong component fails loudly. Values are part of the on-disk
/// format — append only, never renumber.
enum class Tag : uint32_t {
  kSituationBuffer = 1,
  kMatcherStats = 2,
  kJoiner = 3,
  kLowLatencyMatcher = 4,
  kBaselineMatcher = 5,
  kController = 6,
  kAggregatorSet = 7,
  kDeriver = 8,
  kMatchEngine = 9,
  kOperator = 10,
  kPartitioned = 11,
  // 12 is retired and never reused (the former multi-query layout; a
  // multi-query TPStreamOperator writes kOperator sections).
  // 13 is retired and never reused (the former out-of-order reorder
  // buffer).
  kParallel = 14,
  // 15 and 16 are retired and never reused.
  /// Dirty-partition delta of a PARTITION BY TPStreamOperator
  /// (incremental checkpoints; full snapshots keep kPartitioned).
  kPartitionedDelta = 17,
  // 18 is retired and never reused (the former multi-query delta).
};

/// Append-only binary writer. Infallible: it grows an in-memory byte
/// string; the caller persists `buffer()` (file, socket, test vector).
class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(uint32_t v) { AppendLE(v); }
  void U64(uint64_t v) { AppendLE(v); }
  void I64(int64_t v) { AppendLE(static_cast<uint64_t>(v)); }

  /// Bit-exact: NaNs, signed zeros and subnormals round-trip unchanged.
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  void Str(std::string_view s) {
    U64(s.size());
    buf_.append(s.data(), s.size());
  }

  /// Appends `bytes` verbatim, no length prefix: splices bytes another
  /// Writer encoded (sections are position-independent).
  void Raw(std::string_view bytes) { buf_.append(bytes.data(), bytes.size()); }

  /// Makes room for `n` more bytes without reallocating.
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }

  void WriteValue(const Value& v);
  void WriteTuple(const Tuple& t);
  void WriteSituation(const Situation& s);
  void WriteEvent(const Event& e);

  /// Top-level envelope: magic, format version, event-log offset.
  void Envelope(uint64_t offset) {
    U32(kMagic);
    U32(kFormatVersion);
    U64(offset);
  }

  /// Opens a length-prefixed section labelled `tag`; returns a cookie for
  /// EndSection, which backpatches the byte length. Sections may nest.
  size_t BeginSection(Tag tag);
  void EndSection(size_t cookie);

  /// Appends the trailing integrity footer (u32 "TPCS" magic + u32
  /// CRC-32C over every preceding byte). Call exactly once, at the
  /// persistence boundary, after the whole blob is built — components'
  /// nested Checkpoint() calls never seal. VerifyAndStripChecksum
  /// detects bit-flips anywhere in the sealed bytes deterministically.
  void SealChecksum();

  /// Appends the same footer for bytes whose CRC-32C is `crc`, for a
  /// sealed blob whose bytes are not all in this Writer.
  void ChecksumFooter(uint32_t crc);

  /// Overwrites the u32 at byte `pos` (a placeholder written earlier).
  void PatchU32(size_t pos, uint32_t v) {
    for (size_t i = 0; i < 4; ++i) {
      buf_[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }

  /// Empties the buffer but keeps its capacity, so one Writer can encode
  /// record after record without reallocating.
  void Clear() { buf_.clear(); }

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void AppendLE(T v) {
    char bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buf_.append(bytes, sizeof(T));
  }

  std::string buf_;
};

/// Bounds-checked reader over a checkpoint byte string. The first
/// malformed read latches an error Status; subsequent reads return
/// zero values, so Restore() code can read a whole component and check
/// `status()` once at the end (plus any semantic validation).
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  uint8_t U8();
  bool Bool() { return U8() != 0; }
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  std::string Str();

  Value ReadValue();
  Tuple ReadTuple();
  Situation ReadSituation();
  Event ReadEvent();

  /// Validates the envelope; on success stores the event-log offset in
  /// `*offset` (when non-null).
  Status Envelope(uint64_t* offset);

  /// Opens a section and validates its tag; returns the absolute end
  /// position for EndSection.
  size_t BeginSection(Tag expected);
  /// Verifies the section was consumed exactly (detects format drift
  /// between writer and reader versions of a component).
  Status EndSection(size_t end_pos);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

  /// Latches an error from component-level validation so it is reported
  /// through the same channel as wire-format errors.
  void Fail(Status status) {
    if (status_.ok()) status_ = std::move(status);
  }

 private:
  bool Need(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  Status status_;
};

/// Validates a blob sealed with Writer::SealChecksum and strips the
/// footer: on success `*payload` views the bytes to hand to Reader. A
/// blob without the footer magic, or whose checksum does not match,
/// fails with kParseError (deterministic — this is how bit-flips are
/// detected before any structural parsing).
Status VerifyAndStripChecksum(std::string_view blob, std::string_view* payload);

}  // namespace ckpt
}  // namespace tpstream

#endif  // TPSTREAM_CKPT_SERDE_H_
