#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "stats/cdf.hpp"
#include "stats/counters.hpp"
#include "stats/online_stats.hpp"
#include "stats/table.hpp"

namespace fastcons {
namespace {

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStatsTest, SingleValue) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStatsTest, KnownMeanAndVariance) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of the classic dataset: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStatsTest, MergeMatchesSequential) {
  Rng rng(3);
  OnlineStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5.0, 5.0);
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(OnlineStatsTest, MergeWithEmptySides) {
  OnlineStats a, b;
  a.add(1.0);
  a.add(3.0);
  OnlineStats a_copy = a;
  a.merge(b);  // empty right side: no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a_copy);  // empty left side: adopt
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(CdfTest, EmptyAtIsZero) {
  EmpiricalCdf cdf;
  EXPECT_EQ(cdf.at(10.0), 0.0);
  EXPECT_TRUE(cdf.empty());
}

TEST(CdfTest, StepFunctionSemantics) {
  EmpiricalCdf cdf;
  cdf.add(1.0);
  cdf.add(2.0);
  cdf.add(3.0);
  cdf.add(4.0);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);  // inclusive at sample points
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
}

TEST(CdfTest, QuantilesNearestRank) {
  EmpiricalCdf cdf;
  for (int i = 1; i <= 10; ++i) cdf.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.1), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 10.0);
}

TEST(CdfTest, MeanMinMax) {
  EmpiricalCdf cdf;
  cdf.add(3.0);
  cdf.add(1.0);
  cdf.add(2.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 2.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 3.0);
}

TEST(CdfTest, CurveIsMonotoneAndEndsAtOne) {
  EmpiricalCdf cdf;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) cdf.add(rng.uniform(0.0, 10.0));
  const auto curve = cdf.curve(0.0, 10.0, 21);
  ASSERT_EQ(curve.size(), 21u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i - 1]);
  }
  EXPECT_DOUBLE_EQ(curve.back(), 1.0);
}

TEST(CdfTest, InterleavedAddAndQuery) {
  EmpiricalCdf cdf;
  cdf.add(5.0);
  EXPECT_DOUBLE_EQ(cdf.at(5.0), 1.0);
  cdf.add(1.0);  // must invalidate the sorted cache
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 0.5);
}

TEST(CountersTest, RecordAndTotals) {
  TrafficCounters c;
  c.record(TrafficClass::session_control, 10);
  c.record(TrafficClass::session_control, 15);
  c.record(TrafficClass::fast_payload, 100);
  EXPECT_EQ(c.messages(TrafficClass::session_control), 2u);
  EXPECT_EQ(c.bytes(TrafficClass::session_control), 25u);
  EXPECT_EQ(c.total_messages(), 3u);
  EXPECT_EQ(c.total_bytes(), 125u);
}

TEST(CountersTest, MergeAddsCellwise) {
  TrafficCounters a, b;
  a.record(TrafficClass::demand_advert, 8);
  b.record(TrafficClass::demand_advert, 8);
  b.record(TrafficClass::fast_control, 20);
  a.merge(b);
  EXPECT_EQ(a.messages(TrafficClass::demand_advert), 2u);
  EXPECT_EQ(a.bytes(TrafficClass::demand_advert), 16u);
  EXPECT_EQ(a.messages(TrafficClass::fast_control), 1u);
}

TEST(CountersTest, ClassNamesAreDistinct) {
  EXPECT_NE(traffic_class_name(TrafficClass::session_control),
            traffic_class_name(TrafficClass::fast_control));
  EXPECT_NE(traffic_class_name(TrafficClass::session_payload),
            traffic_class_name(TrafficClass::fast_payload));
}

TEST(TableTest, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream out;
  t.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22222"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<std::uint64_t>(42)), "42");
}

TEST(TableTest, CsvEscapesSpecialCells) {
  Table t({"k", "v"});
  t.add_row({"a,b", "say \"hi\""});
  const std::string path = ::testing::TempDir() + "/fastcons_table_test.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "k,v");
  EXPECT_EQ(row, "\"a,b\",\"say \"\"hi\"\"\"");
}

}  // namespace
}  // namespace fastcons
