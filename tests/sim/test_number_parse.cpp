// Strict numeric parsing (sim/config_parse.hpp), shared by config values
// and every tool flag: the whole token must be a finite in-range number —
// the atof/atoi behaviors these parsers replace mapped garbage to 0 and ran
// the wrong experiment silently.
#include "sim/config_parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace uvmsim {
namespace {

TEST(ParseDouble, AcceptsWholeTokenNumbers) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("1.25", v));
  EXPECT_DOUBLE_EQ(v, 1.25);
  EXPECT_TRUE(parse_double("-0.5", v));
  EXPECT_DOUBLE_EQ(v, -0.5);
  EXPECT_TRUE(parse_double("2e3", v));
  EXPECT_DOUBLE_EQ(v, 2000.0);
}

TEST(ParseDouble, RejectsPartialAndNonFinite) {
  double v = 42.0;
  EXPECT_FALSE(parse_double("0..5", v));
  EXPECT_FALSE(parse_double("1.5x", v));
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double(nullptr, v));
  EXPECT_FALSE(parse_double("inf", v));
  EXPECT_FALSE(parse_double("nan", v));
  EXPECT_FALSE(parse_double("1e999", v));
  EXPECT_DOUBLE_EQ(v, 42.0);  // rejected parses leave the output untouched
}

TEST(ParseU64, AcceptsDecimalAndRejectsJunk) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(parse_u64("-1", v));  // strtoull would wrap this to 2^64-1
  EXPECT_FALSE(parse_u64("8x", v));
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("18446744073709551616", v));  // overflow
}

TEST(ParseU64, AcceptsHexAndSizeSuffixesButNoOctalOrSign) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("0x10", v));
  EXPECT_EQ(v, 16u);
  EXPECT_TRUE(parse_u64("48MB", v));
  EXPECT_EQ(v, 48ull << 20);
  EXPECT_TRUE(parse_u64("1 gb", v));
  EXPECT_EQ(v, 1ull << 30);
  EXPECT_TRUE(parse_u64("17592186044415MB", v));  // 2^64 - 1 MB, the largest that fits
  EXPECT_EQ(v, UINT64_MAX - (1ull << 20) + 1);
  v = 7;
  EXPECT_FALSE(parse_u64("17592186044418MB", v));  // wrapped to 2 MB under std::stoull
  EXPECT_FALSE(parse_u64("010", v));               // read as octal 8 under std::stoull
  EXPECT_FALSE(parse_u64("+1", v));
  EXPECT_FALSE(parse_u64(" 1", v));
  EXPECT_FALSE(parse_u64("1 ", v));
  EXPECT_FALSE(parse_u64("0x", v));
  EXPECT_FALSE(parse_u64("1TB", v));
  EXPECT_EQ(v, 7u);
}

TEST(ParseU32, EnforcesRange) {
  std::uint32_t v = 0;
  EXPECT_TRUE(parse_u32("4294967295", v));
  EXPECT_EQ(v, UINT32_MAX);
  EXPECT_FALSE(parse_u32("4294967296", v));
  EXPECT_FALSE(parse_u32("-2", v));
  EXPECT_TRUE(parse_u32("3G", v));
  EXPECT_EQ(v, 3u << 30);
  EXPECT_FALSE(parse_u32("4G", v));  // the suffixed value must fit too
}

TEST(ParseUnsigned, EnforcesRange) {
  unsigned v = 0;
  EXPECT_TRUE(parse_unsigned("64", v));
  EXPECT_EQ(v, 64u);
  EXPECT_FALSE(parse_unsigned("99999999999999999999", v));
}

}  // namespace
}  // namespace uvmsim
