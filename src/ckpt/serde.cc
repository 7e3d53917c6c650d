#include "ckpt/serde.h"

#include <utility>

#include "log/crc32c.h"

namespace tpstream {
namespace ckpt {

void Writer::WriteValue(const Value& v) {
  U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      I64(v.AsInt());
      break;
    case ValueType::kDouble:
      F64(v.AsDouble());
      break;
    case ValueType::kBool:
      Bool(v.AsBool());
      break;
    case ValueType::kString:
      Str(v.AsString());
      break;
  }
}

void Writer::WriteTuple(const Tuple& t) {
  U64(t.size());
  for (const Value& v : t) WriteValue(v);
}

void Writer::WriteSituation(const Situation& s) {
  WriteTuple(s.payload);
  I64(s.ts);
  I64(s.te);
}

void Writer::WriteEvent(const Event& e) {
  WriteTuple(e.payload);
  I64(e.t);
}

size_t Writer::BeginSection(Tag tag) {
  U32(0);  // placeholder byte length, backpatched by EndSection
  const size_t cookie = buf_.size();
  U32(static_cast<uint32_t>(tag));
  return cookie;
}

void Writer::EndSection(size_t cookie) {
  PatchU32(cookie - 4, static_cast<uint32_t>(buf_.size() - cookie));
}

void Writer::SealChecksum() { ChecksumFooter(log::Crc32c(buf_)); }

void Writer::ChecksumFooter(uint32_t crc) {
  U32(kChecksumMagic);
  U32(crc);
}

Status VerifyAndStripChecksum(std::string_view blob,
                              std::string_view* payload) {
  constexpr size_t kFooterSize = 8;
  auto footer_u32 = [&blob](size_t from_end) {
    uint32_t v = 0;
    const size_t base = blob.size() - from_end;
    for (size_t i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(blob[base + i]))
           << (8 * i);
    }
    return v;
  };
  if (blob.size() < kFooterSize || footer_u32(kFooterSize) != kChecksumMagic) {
    return Status::ParseError("checkpoint: missing checksum footer");
  }
  const std::string_view body = blob.substr(0, blob.size() - kFooterSize);
  if (log::Crc32c(body) != footer_u32(4)) {
    return Status::ParseError("checkpoint: checksum mismatch (blob corrupted)");
  }
  *payload = body;
  return Status::OK();
}

bool Reader::Need(size_t n) {
  if (!status_.ok()) return false;
  if (data_.size() - pos_ < n) {
    status_ = Status::ParseError("checkpoint truncated at byte " +
                                 std::to_string(pos_));
    return false;
  }
  return true;
}

uint8_t Reader::U8() {
  if (!Need(1)) return 0;
  return static_cast<uint8_t>(data_[pos_++]);
}

uint32_t Reader::U32() {
  if (!Need(4)) return 0;
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

uint64_t Reader::U64() {
  if (!Need(8)) return 0;
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double Reader::F64() {
  const uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::Str() {
  const uint64_t n = U64();
  if (!Need(n)) return std::string();
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

Value Reader::ReadValue() {
  const uint8_t tag = U8();
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt:
      return Value(I64());
    case ValueType::kDouble:
      return Value(F64());
    case ValueType::kBool:
      return Value(Bool());
    case ValueType::kString:
      return Value(Str());
  }
  Fail(Status::ParseError("checkpoint: unknown value type tag " +
                          std::to_string(tag)));
  return Value::Null();
}

Tuple Reader::ReadTuple() {
  const uint64_t n = U64();
  // A tuple has at least one serialized byte per value; reject sizes the
  // remaining input cannot possibly hold before reserving.
  if (n > remaining()) {
    Fail(Status::ParseError("checkpoint: tuple size exceeds input"));
    return Tuple();
  }
  Tuple t;
  t.reserve(n);
  for (uint64_t i = 0; i < n && ok(); ++i) t.push_back(ReadValue());
  return t;
}

Situation Reader::ReadSituation() {
  Situation s;
  s.payload = ReadTuple();
  s.ts = I64();
  s.te = I64();
  return s;
}

Event Reader::ReadEvent() {
  Event e;
  e.payload = ReadTuple();
  e.t = I64();
  return e;
}

Status Reader::Envelope(uint64_t* offset) {
  const uint32_t magic = U32();
  const uint32_t version = U32();
  const uint64_t off = U64();
  if (!status_.ok()) return status_;
  if (magic != kMagic) {
    status_ = Status::ParseError("checkpoint: bad magic (not a TPCK blob)");
    return status_;
  }
  if (version != kFormatVersion) {
    status_ = Status::InvalidArgument(
        "checkpoint: unsupported format version " + std::to_string(version) +
        " (reader supports " + std::to_string(kFormatVersion) + ")");
    return status_;
  }
  if (offset != nullptr) *offset = off;
  return Status::OK();
}

size_t Reader::BeginSection(Tag expected) {
  const uint32_t len = U32();
  if (!status_.ok()) return pos_;
  if (len > remaining() || len < 4) {
    Fail(Status::ParseError("checkpoint: section length out of bounds"));
    return pos_;
  }
  const size_t end = pos_ + len;
  const uint32_t tag = U32();
  if (status_.ok() && tag != static_cast<uint32_t>(expected)) {
    Fail(Status::ParseError(
        "checkpoint: component tag mismatch (expected " +
        std::to_string(static_cast<uint32_t>(expected)) + ", found " +
        std::to_string(tag) + ")"));
  }
  return end;
}

Status Reader::EndSection(size_t end_pos) {
  if (!status_.ok()) return status_;
  if (pos_ != end_pos) {
    status_ = Status::ParseError(
        "checkpoint: section size mismatch (component read " +
        std::to_string(pos_) + ", section ends at " +
        std::to_string(end_pos) + ")");
  }
  return status_;
}

}  // namespace ckpt
}  // namespace tpstream
