#include "util/error.h"

#include <gtest/gtest.h>

namespace psnt::util {
namespace {

TEST(Check, ThrowsOnViolation) {
  EXPECT_NO_THROW(PSNT_CHECK(1 + 1 == 2, "math works"));
  EXPECT_THROW(PSNT_CHECK(false, "must fail"), std::logic_error);
}

TEST(Check, MessageNamesTheCondition) {
  try {
    PSNT_CHECK(2 < 1, "ordering");
    FAIL() << "expected throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ordering"), std::string::npos);
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
  }
}

}  // namespace
}  // namespace psnt::util
