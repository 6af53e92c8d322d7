#include <gtest/gtest.h>

#include <cstdlib>

#include "common/log.hpp"

namespace fastcons {
namespace {

TEST(LogTest, ThresholdGatesOutput) {
  const LogLevel original = log_threshold();
  set_log_threshold(LogLevel::error);
  EXPECT_FALSE(FASTCONS_LOG(debug, "test").enabled());
  EXPECT_FALSE(FASTCONS_LOG(warn, "test").enabled());
  EXPECT_TRUE(FASTCONS_LOG(error, "test").enabled());
  set_log_threshold(LogLevel::trace);
  EXPECT_TRUE(FASTCONS_LOG(trace, "test").enabled());
  set_log_threshold(original);
}

TEST(LogTest, InitFromEnvSetsLevel) {
  const LogLevel original = log_threshold();
  ::setenv("FASTCONS_LOG", "debug", 1);
  init_log_from_env();
  EXPECT_EQ(log_threshold(), LogLevel::debug);
  ::setenv("FASTCONS_LOG", "not-a-level", 1);
  init_log_from_env();                          // unknown value: unchanged
  EXPECT_EQ(log_threshold(), LogLevel::debug);
  ::unsetenv("FASTCONS_LOG");
  set_log_threshold(original);
}

TEST(LogTest, StreamingDisabledLineIsCheap) {
  const LogLevel original = log_threshold();
  set_log_threshold(LogLevel::error);
  // Streaming into a disabled line must not crash and must not evaluate
  // into visible output; mostly a smoke test for the operator<< chain.
  FASTCONS_LOG(debug, "test") << "value " << 42 << " and " << 2.5;
  set_log_threshold(original);
}

}  // namespace
}  // namespace fastcons
