#include "scoping/signature_io.h"

#include <gtest/gtest.h>

namespace colscope::scoping {
namespace {

TEST(KeepMaskIoTest, RoundTrips) {
  const std::vector<bool> keep = {true, false, true, true, false};
  Result<std::vector<bool>> restored =
      DeserializeKeepMask(SerializeKeepMask(keep));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, keep);
}

TEST(KeepMaskIoTest, RoundTripsEmptyMask) {
  Result<std::vector<bool>> restored =
      DeserializeKeepMask(SerializeKeepMask({}));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->empty());
}

TEST(KeepMaskIoTest, RejectsBitCountMismatch) {
  EXPECT_FALSE(
      DeserializeKeepMask("colscope-keep-mask v1\nelements 3\nmask 10\n")
          .ok());
}

TEST(KeepMaskIoTest, RejectsNonBinaryBits) {
  EXPECT_FALSE(
      DeserializeKeepMask("colscope-keep-mask v1\nelements 2\nmask 1x\n")
          .ok());
}

TEST(KeepMaskIoTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(DeserializeKeepMask(
                   "colscope-keep-mask v1\nelements 1\nmask 1\nextra\n")
                   .ok());
}

}  // namespace
}  // namespace colscope::scoping
