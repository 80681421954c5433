// ECC tests: exhaustive single/double bit-error properties for the SECDED
// codec.
#include <gtest/gtest.h>

#include "sim/rng.hpp"
#include "soc/ecc.hpp"

namespace titan::soc {
namespace {

TEST(Secded, WidthParameters) {
  const Secded ecc32(32);
  EXPECT_EQ(ecc32.parity_bits(), 6u);
  EXPECT_EQ(ecc32.codeword_bits(), 39u);  // classic (39,32)
  const Secded ecc16(16);
  EXPECT_EQ(ecc16.parity_bits(), 5u);
  EXPECT_EQ(ecc16.codeword_bits(), 22u);
}

TEST(Secded, RejectsBadWidths) {
  EXPECT_THROW(Secded(0), std::invalid_argument);
  EXPECT_THROW(Secded(58), std::invalid_argument);
}

TEST(Secded, CleanRoundTrip) {
  const Secded ecc(32);
  sim::Rng rng(5);
  for (int trial = 0; trial < 1000; ++trial) {
    const auto data = static_cast<std::uint32_t>(rng.next());
    const EccResult result = ecc.decode(ecc.encode(data));
    ASSERT_EQ(result.status, EccStatus::kOk);
    ASSERT_EQ(result.data, data);
  }
}

// Property: every single-bit error in the codeword is corrected, for every
// bit position, across random payloads.
class SecdedWidthTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SecdedWidthTest, CorrectsAllSingleBitErrors) {
  const Secded ecc(GetParam());
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t data =
        rng.next() & ((GetParam() == 64 ? ~0ULL : (1ULL << GetParam()) - 1));
    const std::uint64_t codeword = ecc.encode(data);
    for (unsigned bit = 0; bit < ecc.codeword_bits(); ++bit) {
      const std::uint64_t corrupted = codeword ^ (1ULL << bit);
      const EccResult result = ecc.decode(corrupted);
      ASSERT_EQ(result.status, EccStatus::kCorrected)
          << "bit=" << bit << " data=" << data;
      ASSERT_EQ(result.data, data) << "bit=" << bit;
    }
  }
}

TEST_P(SecdedWidthTest, DetectsAllDoubleBitErrors) {
  const Secded ecc(GetParam());
  sim::Rng rng(GetParam() + 100);
  const std::uint64_t data =
      rng.next() & ((GetParam() == 64 ? ~0ULL : (1ULL << GetParam()) - 1));
  const std::uint64_t codeword = ecc.encode(data);
  for (unsigned bit_a = 0; bit_a < ecc.codeword_bits(); ++bit_a) {
    for (unsigned bit_b = bit_a + 1; bit_b < ecc.codeword_bits(); ++bit_b) {
      const std::uint64_t corrupted =
          codeword ^ (1ULL << bit_a) ^ (1ULL << bit_b);
      const EccResult result = ecc.decode(corrupted);
      ASSERT_EQ(result.status, EccStatus::kUncorrectable)
          << "bits=" << bit_a << "," << bit_b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SecdedWidthTest,
                         ::testing::Values(8, 16, 32, 57));

}  // namespace
}  // namespace titan::soc
