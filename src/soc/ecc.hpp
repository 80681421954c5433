// SECDED (single-error-correct, double-error-detect) Hamming code.
//
// OpenTitan's embedded flash and SRAM are ECC-protected (paper Sec. III-B);
// the queue controller runs an injected memory bit flip through this codec.
// The construction is the classic extended Hamming code: parity bits at
// power-of-two positions plus one overall parity bit, parameterised over the
// data width (32 -> (39,32), 64 -> (72,64)).
#pragma once

#include <cstdint>

namespace titan::soc {

enum class EccStatus {
  kOk,             ///< Clean codeword.
  kCorrected,      ///< Single-bit error corrected (data valid).
  kUncorrectable,  ///< Double-bit error detected (data invalid).
};

struct EccResult {
  std::uint64_t data = 0;
  EccStatus status = EccStatus::kOk;
  /// 1-based codeword position of the corrected bit (0 when none; the
  /// overall-parity position is reported as the codeword length).
  unsigned corrected_position = 0;
};

/// Extended-Hamming SECDED codec for data widths 1..64.
class Secded {
 public:
  explicit Secded(unsigned data_bits);

  [[nodiscard]] unsigned data_bits() const { return data_bits_; }
  [[nodiscard]] unsigned parity_bits() const { return parity_bits_; }
  /// Total codeword width including the overall parity bit.
  [[nodiscard]] unsigned codeword_bits() const {
    return data_bits_ + parity_bits_ + 1;
  }

  [[nodiscard]] std::uint64_t encode(std::uint64_t data) const;
  [[nodiscard]] EccResult decode(std::uint64_t codeword) const;

 private:
  unsigned data_bits_;
  unsigned parity_bits_;
};

}  // namespace titan::soc
