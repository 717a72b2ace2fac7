// Base fixture for tests that assert metrics-registry counts.
//
// Serve, solve-cache and solver events are counted only in the process-wide
// obs::MetricsRegistry, and the sanitizer and chaos ctest configurations run
// many tests in one process. Resetting the registry before each test keeps
// the counts a test asserts its own.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace syccl {

class CountingTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::MetricsRegistry::instance().reset(); }
  /// Current value of the registry counter `name`.
  static std::int64_t count(const std::string& name) {
    return obs::MetricsRegistry::instance().counter(name).value();
  }
};

}  // namespace syccl
