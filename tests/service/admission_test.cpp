#include "service/admission.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace prop::service {
namespace {

JobSpec job(std::string id, std::string tenant = "default", int priority = 0) {
  JobSpec spec;
  spec.id = std::move(id);
  spec.tenant = std::move(tenant);
  spec.priority = priority;
  return spec;
}

TEST(Admission, ShedsAtDepthLimitWithStructuredStatus) {
  AdmissionQueue q(AdmissionConfig{/*max_depth=*/2, /*aging_interval=*/4});
  EXPECT_TRUE(q.push(job("a")).ok());
  EXPECT_TRUE(q.push(job("b")).ok());

  const Status shed = q.push(job("c"));
  EXPECT_EQ(shed.code, StatusCode::kShedOverload);
  EXPECT_NE(shed.message.find("limit 2"), std::string::npos) << shed.message;
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.shed_count(), 1u);
  EXPECT_EQ(q.max_depth_seen(), 2u);

  // Popping frees a slot: admission resumes.
  (void)q.pop();
  EXPECT_TRUE(q.push(job("d")).ok());
  EXPECT_EQ(q.shed_count(), 1u);
}

TEST(Admission, FifoAtEqualPriority) {
  AdmissionQueue q(AdmissionConfig{8, 4});
  ASSERT_TRUE(q.push(job("first")).ok());
  ASSERT_TRUE(q.push(job("second")).ok());
  ASSERT_TRUE(q.push(job("third")).ok());
  EXPECT_EQ(q.pop().id, "first");
  EXPECT_EQ(q.pop().id, "second");
  EXPECT_EQ(q.pop().id, "third");
}

TEST(Admission, HigherPriorityJumpsTheQueue) {
  AdmissionQueue q(AdmissionConfig{8, 4});
  ASSERT_TRUE(q.push(job("low", "t", 0)).ok());
  ASSERT_TRUE(q.push(job("high", "t", 5)).ok());
  ASSERT_TRUE(q.push(job("mid", "t", 2)).ok());
  EXPECT_EQ(q.pop().id, "high");
  EXPECT_EQ(q.pop().id, "mid");
  EXPECT_EQ(q.pop().id, "low");
}

TEST(Admission, AgingPreventsStarvation) {
  // aging_interval=2: every 2 admissions boost effective priority by 1.
  // After enough arrivals the priority-0 job ties the priority-1 backlog on
  // effective priority, and the FIFO tie-break (oldest seq) then serves it —
  // a permanently starved job is impossible.
  AdmissionQueue q(AdmissionConfig{/*max_depth=*/64, /*aging_interval=*/2});
  ASSERT_TRUE(q.push(job("starved", "old", 0)).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.push(job("fresh" + std::to_string(i), "new", 1)).ok());
  }
  // seqs: starved=1, fresh0..4=2..6, logical now=7.  starved: 0 + 6/2 = 3;
  // fresh0: 1 + 5/2 = 3.  Tied -> lowest seq wins.
  EXPECT_EQ(q.pop().id, "starved");
}

TEST(Admission, TenantFairnessBreaksTies) {
  AdmissionQueue q(AdmissionConfig{64, 1000});  // aging effectively off
  // alpha floods, beta submits one job later; after alpha is served once,
  // beta's equal-priority job must be preferred over alpha's backlog.
  ASSERT_TRUE(q.push(job("a1", "alpha")).ok());
  ASSERT_TRUE(q.push(job("a2", "alpha")).ok());
  ASSERT_TRUE(q.push(job("b1", "beta")).ok());
  ASSERT_TRUE(q.push(job("a3", "alpha")).ok());

  EXPECT_EQ(q.pop().id, "a1");  // FIFO among never-served tenants
  EXPECT_EQ(q.pop().id, "b1");  // beta never served, alpha just was
  EXPECT_EQ(q.pop().id, "a2");
  EXPECT_EQ(q.pop().id, "a3");
}

TEST(Admission, PriorityBeatsFairness) {
  AdmissionQueue q(AdmissionConfig{64, 1000});
  ASSERT_TRUE(q.push(job("a1", "alpha", 0)).ok());
  ASSERT_TRUE(q.push(job("a2", "alpha", 9)).ok());
  ASSERT_TRUE(q.push(job("b1", "beta", 0)).ok());
  EXPECT_EQ(q.pop().id, "a2");  // fairness only breaks priority ties
}

TEST(Admission, PopOnEmptyIsAServerBug) {
  AdmissionQueue q(AdmissionConfig{4, 4});
  EXPECT_THROW((void)q.pop(), std::logic_error);
}

TEST(Admission, ScheduleIsDeterministic) {
  // The schedule is a pure function of the push/pop sequence (logical
  // admission counter, no wall clock): two identical replays pop
  // identically.
  const auto replay = [] {
    AdmissionQueue q(AdmissionConfig{16, 3});
    std::vector<std::string> order;
    int id = 0;
    for (int round = 0; round < 5; ++round) {
      for (int i = 0; i < 3; ++i) {
        (void)q.push(job(std::string("j") + std::to_string(id++),
                         i == 0 ? "alpha" : "beta", i % 2 ? 1 : 0));
      }
      order.push_back(q.pop().id);
    }
    while (q.depth() > 0) order.push_back(q.pop().id);
    return order;
  };
  EXPECT_EQ(replay(), replay());
}

TEST(Admission, BoundsTenantHistory) {
  // A stream of one-shot tenant names must not grow memory without limit;
  // eviction must also not crash or break subsequent scheduling.
  AdmissionQueue q(AdmissionConfig{4, 4});
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(q.push(job(std::string("j") + std::to_string(i),
                           std::string("tenant") + std::to_string(i)))
                    .ok());
    EXPECT_EQ(q.pop().id, std::string("j") + std::to_string(i));
  }
  ASSERT_TRUE(q.push(job("last", "alpha")).ok());
  EXPECT_EQ(q.pop().id, "last");
}

}  // namespace
}  // namespace prop::service
