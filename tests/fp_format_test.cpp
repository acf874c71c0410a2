// IEEE 754-2008 format tests (paper Table IV) and encode/decode round trips.
#include <gtest/gtest.h>

#include "fp/format.h"

namespace mfm::fp {
namespace {

struct TableIvRow {
  const FormatSpec* f;
  int storage, precision, exp_bits, emax, bias, trailing;
  // Without this gtest prints the raw bytes, pointer included, and the
  // pointer would make the ctest name differ from build to build.
  friend void PrintTo(const TableIvRow& r, std::ostream* os) {
    *os << r.f->name;
  }
};

class TableIv : public ::testing::TestWithParam<TableIvRow> {};

TEST_P(TableIv, ParametersMatchStandard) {
  const auto& r = GetParam();
  EXPECT_EQ(r.f->storage_bits, r.storage);
  EXPECT_EQ(r.f->precision, r.precision);
  EXPECT_EQ(r.f->exp_bits, r.exp_bits);
  EXPECT_EQ(r.f->emax, r.emax);
  EXPECT_EQ(r.f->bias, r.bias);
  EXPECT_EQ(r.f->trailing_bits, r.trailing);
  // Structural identities of IEEE 754 binary formats.
  EXPECT_EQ(r.f->storage_bits, 1 + r.f->exp_bits + r.f->trailing_bits);
  EXPECT_EQ(r.f->precision, r.f->trailing_bits + 1);
  EXPECT_EQ(r.f->bias, r.f->emax);
  EXPECT_EQ(r.f->emin(), 1 - r.f->emax);
}

INSTANTIATE_TEST_SUITE_P(
    PaperTableIV, TableIv,
    ::testing::Values(TableIvRow{&kBinary16, 16, 11, 5, 15, 15, 10},
                      TableIvRow{&kBinary32, 32, 24, 8, 127, 127, 23},
                      TableIvRow{&kBinary64, 64, 53, 11, 1023, 1023, 52},
                      TableIvRow{&kBinary128, 128, 113, 15, 16383, 16383,
                                 112}),
    [](const auto& info) { return std::string(info.param.f->name); });

TEST(FormatDecode, RoundTripExhaustiveBinary16) {
  for (std::uint32_t bits = 0; bits < (1u << 16); ++bits) {
    const Decoded d = decode(bits, kBinary16);
    EXPECT_EQ(encode(d, kBinary16), bits) << bits;
  }
}

TEST(FormatDecode, ClassificationBinary32) {
  EXPECT_EQ(decode(0x00000000, kBinary32).cls, FpClass::Zero);
  EXPECT_EQ(decode(0x80000000, kBinary32).cls, FpClass::Zero);
  EXPECT_EQ(decode(0x00000001, kBinary32).cls, FpClass::Subnormal);
  EXPECT_EQ(decode(0x007FFFFF, kBinary32).cls, FpClass::Subnormal);
  EXPECT_EQ(decode(0x00800000, kBinary32).cls, FpClass::Normal);
  EXPECT_EQ(decode(0x3F800000, kBinary32).cls, FpClass::Normal);  // 1.0f
  EXPECT_EQ(decode(0x7F7FFFFF, kBinary32).cls, FpClass::Normal);  // max
  EXPECT_EQ(decode(0x7F800000, kBinary32).cls, FpClass::Infinity);
  EXPECT_EQ(decode(0xFF800000, kBinary32).cls, FpClass::Infinity);
  EXPECT_EQ(decode(0x7FC00000, kBinary32).cls, FpClass::NaN);
  EXPECT_EQ(decode(0x7F800001, kBinary32).cls, FpClass::NaN);
}

TEST(FormatDecode, HiddenBitApplied) {
  const Decoded one = decode(0x3F800000, kBinary32);
  EXPECT_EQ(one.significand, kBinary32.hidden_bit());
  EXPECT_EQ(one.exp_biased, 127);
  EXPECT_FALSE(one.sign);
}

TEST(FormatEncode, SpecialsAreCanonical) {
  EXPECT_EQ(infinity(kBinary32, false), 0x7F800000u);
  EXPECT_EQ(infinity(kBinary32, true), 0xFF800000u);
  EXPECT_EQ(zero(kBinary32, true), 0x80000000u);
  const Decoded n = decode(quiet_nan(kBinary32), kBinary32);
  EXPECT_EQ(n.cls, FpClass::NaN);
  EXPECT_EQ(infinity(kBinary64, false), 0x7FF0000000000000ull);
  EXPECT_EQ(quiet_nan(kBinary64), 0x7FF8000000000000ull);
}

TEST(FormatEncode, Binary128FieldsFit) {
  Decoded d;
  d.cls = FpClass::Normal;
  d.sign = true;
  d.exp_biased = kBinary128.bias;
  d.significand = kBinary128.hidden_bit() | 0x1234;
  const u128 bits = encode(d, kBinary128);
  const Decoded back = decode(bits, kBinary128);
  EXPECT_EQ(back.cls, FpClass::Normal);
  EXPECT_EQ(back.exp_biased, kBinary128.bias);
  EXPECT_EQ(back.significand, d.significand);
  EXPECT_TRUE(back.sign);
}

}  // namespace
}  // namespace mfm::fp
