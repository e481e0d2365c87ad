// Round-trip check for the JSON documents the suite emits: each one must
// parse with the service parser and re-serialize to the same bytes, so a
// writer that drops a comma or mis-escapes a byte fails here even when a
// digest or a substring check would not notice.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "service/json.h"

namespace prop::testing {

inline ::testing::AssertionResult json_round_trips(const std::string& text) {
  std::string error;
  const auto doc = service::json_parse(text, &error);
  if (!doc) return ::testing::AssertionFailure() << error << "\n" << text;
  const std::string again = doc->dump();
  if (again != text) {
    return ::testing::AssertionFailure()
           << "re-serialized bytes differ\n  emitted: " << text
           << "\n  re-dump: " << again;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace prop::testing
