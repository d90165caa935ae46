#include "common/strings.hpp"

#include <gtest/gtest.h>

namespace qucp {
namespace {

TEST(Strings, SplitKeepsEmptyTokens) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n"), "");
  EXPECT_EQ(trim("ab"), "ab");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("OPENQASM 2.0", "OPENQASM"));
  EXPECT_FALSE(starts_with("OPEN", "OPENQASM"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Strings, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
}

TEST(Strings, FmtPercent) {
  EXPECT_EQ(fmt_percent(0.267, 1), "26.7%");
  EXPECT_EQ(fmt_percent(1.0, 0), "100%");
}

}  // namespace
}  // namespace qucp
