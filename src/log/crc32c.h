#ifndef TPSTREAM_LOG_CRC32C_H_
#define TPSTREAM_LOG_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace tpstream {
namespace log {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected). The same
/// checksum guards durable log records and checkpoint blobs, so a
/// bit-flip anywhere in the persistence path is detected by the same
/// deterministic check. Reference vector: Crc32c("123456789") ==
/// 0xE3069283 (RFC 3720 appendix).
uint32_t Crc32c(std::string_view data);

/// Incremental form: extends `crc` (a previous Crc32c result) with
/// `data`, as if the two byte ranges had been checksummed in one call.
/// Used for checkpoint-chain hashes: h_g = Crc32cExtend(h_{g-1}, blob).
/// Runs the SSE4.2 CRC32 instruction when the CPU has it (checked once
/// at run time), the table path otherwise; both give the same bits.
uint32_t Crc32cExtend(uint32_t crc, std::string_view data);

/// Combines two checksums: given crc_a = Crc32c(a) and crc_b = Crc32c(b)
/// with len_b = b.size(), returns Crc32c(a + b) without reading either
/// range again (a GF(2) multiply by x^(8*len_b), O(log len_b)). So one
/// pass over a blob serves every checksum that covers it.
uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b);

/// The portable table (slicing-by-4) path, the only one on CPUs without
/// SSE4.2. Exposed so tests can hold both paths to one reference.
uint32_t Crc32cExtendTable(uint32_t crc, std::string_view data);

}  // namespace log
}  // namespace tpstream

#endif  // TPSTREAM_LOG_CRC32C_H_
