#include <gtest/gtest.h>

#include <cstdint>

#include "types/date.h"

namespace tioga2::types {
namespace {

TEST(DateTest, EpochIsJanuaryFirst1970) {
  Date epoch;
  EXPECT_EQ(epoch.DaysValue(), 0);
  EXPECT_EQ(epoch.Year(), 1970);
  EXPECT_EQ(epoch.Month(), 1);
  EXPECT_EQ(epoch.Day(), 1);
}

TEST(DateTest, KnownDates) {
  EXPECT_EQ(Date::FromYmd(1970, 1, 2).DaysValue(), 1);
  EXPECT_EQ(Date::FromYmd(1969, 12, 31).DaysValue(), -1);
  EXPECT_EQ(Date::FromYmd(2000, 3, 1).DaysValue(), 11017);
}

TEST(DateTest, LeapYearHandling) {
  // 2000 was a leap year (divisible by 400); 1900 was not.
  Date feb29_2000 = Date::FromYmd(2000, 2, 29);
  EXPECT_EQ(feb29_2000.Month(), 2);
  EXPECT_EQ(feb29_2000.Day(), 29);
  EXPECT_EQ(feb29_2000.AddDays(1).Month(), 3);
  EXPECT_EQ(feb29_2000.AddDays(1).Day(), 1);
  // 1900-02-28 + 1 day is March 1 (no Feb 29 in 1900).
  Date feb28_1900 = Date::FromYmd(1900, 2, 28);
  EXPECT_EQ(feb28_1900.AddDays(1).Month(), 3);
}

TEST(DateTest, RoundTripYmd) {
  for (int year : {1960, 1970, 1985, 1999, 2000, 2024}) {
    for (int month : {1, 2, 6, 12}) {
      for (int day : {1, 15, 28}) {
        Date date = Date::FromYmd(year, month, day);
        EXPECT_EQ(date.Year(), year);
        EXPECT_EQ(date.Month(), month);
        EXPECT_EQ(date.Day(), day);
      }
    }
  }
}

TEST(DateTest, MonthOverflowNormalizes) {
  EXPECT_EQ(Date::FromYmd(1990, 13, 1), Date::FromYmd(1991, 1, 1));
  EXPECT_EQ(Date::FromYmd(1990, 0, 1), Date::FromYmd(1989, 12, 1));
  EXPECT_EQ(Date::FromYmd(1990, 25, 1), Date::FromYmd(1992, 1, 1));
}

TEST(DateTest, ToStringFormat) {
  EXPECT_EQ(Date::FromYmd(1995, 7, 4).ToString(), "1995-07-04");
  EXPECT_EQ(Date::FromYmd(2024, 12, 25).ToString(), "2024-12-25");
}

TEST(DateTest, ParseValid) {
  Date date;
  ASSERT_TRUE(Date::Parse("1985-01-01", &date));
  EXPECT_EQ(date, Date::FromYmd(1985, 1, 1));
  ASSERT_TRUE(Date::Parse("2000-2-9", &date));
  EXPECT_EQ(date, Date::FromYmd(2000, 2, 9));
}

TEST(DateTest, ParseInvalid) {
  Date date;
  EXPECT_FALSE(Date::Parse("not a date", &date));
  EXPECT_FALSE(Date::Parse("1985-13-01", &date));
  EXPECT_FALSE(Date::Parse("1985-00-10", &date));
  EXPECT_FALSE(Date::Parse("1985-01-32", &date));
  EXPECT_FALSE(Date::Parse("1985-01-01x", &date));
  EXPECT_FALSE(Date::Parse("", &date));
}

TEST(DateTest, ParseRejectsDaysTheMonthLacks) {
  Date date;
  EXPECT_FALSE(Date::Parse("2023-02-29", &date));  // not a leap year
  EXPECT_FALSE(Date::Parse("1900-02-29", &date));  // centuries skip it
  EXPECT_FALSE(Date::Parse("2024-04-31", &date));
  EXPECT_FALSE(Date::Parse("2024-06-31", &date));
  EXPECT_FALSE(Date::Parse("2024-02-30", &date));
  ASSERT_TRUE(Date::Parse("2024-02-29", &date));
  EXPECT_EQ(date, Date::FromYmd(2024, 2, 29));
  ASSERT_TRUE(Date::Parse("2000-02-29", &date));
  EXPECT_EQ(date, Date::FromYmd(2000, 2, 29));
  ASSERT_TRUE(Date::Parse("2024-12-31", &date));
  EXPECT_EQ(date.ToString(), "2024-12-31");
}

TEST(DateTest, ParseRejectsYearsPastFourDigitsAndMalformedFields) {
  Date date;
  EXPECT_FALSE(Date::Parse("99999999999-01-01", &date));  // overflowed int before
  EXPECT_FALSE(Date::Parse("10000-01-01", &date));
  EXPECT_FALSE(Date::Parse("-0001-01-01", &date));
  EXPECT_FALSE(Date::Parse("-1-01-01", &date));
  EXPECT_FALSE(Date::Parse("1985-001-01", &date));
  EXPECT_FALSE(Date::Parse("1985-01-001", &date));
  EXPECT_FALSE(Date::Parse("1985--01", &date));
  EXPECT_FALSE(Date::Parse("1985-01-", &date));
  EXPECT_FALSE(Date::Parse("1985-01", &date));
  ASSERT_TRUE(Date::Parse("9999-12-31", &date));
  EXPECT_EQ(date.DaysValue(), Date::kMaxDays);
  EXPECT_EQ(date.ToString(), "9999-12-31");
  ASSERT_TRUE(Date::Parse("0000-01-01", &date));
  EXPECT_EQ(date.DaysValue(), Date::kMinDays);
  EXPECT_EQ(date.ToString(), "0000-01-01");
}

TEST(DateTest, DayCountsOutsideTheRangeAreRefused) {
  EXPECT_EQ(Date::FromYmd(0, 1, 1).DaysValue(), Date::kMinDays);
  EXPECT_EQ(Date::FromYmd(9999, 12, 31).DaysValue(), Date::kMaxDays);
  EXPECT_TRUE(Date::FromDays(Date::kMinDays).ok());
  EXPECT_TRUE(Date::FromDays(Date::kMaxDays).ok());
  EXPECT_TRUE(Date::FromDays(Date::kMaxDays + 1).status().IsOutOfRange());
  EXPECT_TRUE(Date::FromDays(Date::kMinDays - 1).status().IsOutOfRange());
  EXPECT_TRUE(Date::FromDays(INT64_MAX - 5).status().IsOutOfRange());
  EXPECT_TRUE(Date::FromDays(INT64_MIN).status().IsOutOfRange());
  EXPECT_EQ(Date::FromDays(-1).value(), Date::FromYmd(1969, 12, 31));
}

TEST(DateTest, Ordering) {
  EXPECT_LT(Date::FromYmd(1989, 12, 31), Date::FromYmd(1990, 1, 1));
  EXPECT_GT(Date::FromYmd(1990, 2, 1), Date::FromYmd(1990, 1, 31));
  EXPECT_EQ(Date::FromYmd(1990, 1, 1), Date::FromYmd(1990, 1, 1));
}

TEST(DateTest, AddDaysArithmetic) {
  Date start = Date::FromYmd(1990, 1, 1);
  EXPECT_EQ(start.AddDays(365), Date::FromYmd(1991, 1, 1));  // 1990 not leap
  EXPECT_EQ(start.AddDays(-1), Date::FromYmd(1989, 12, 31));
  EXPECT_EQ(start.AddDays(0), start);
}

class DateRoundTripTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(DateRoundTripTest, DaysToCivilAndBack) {
  Date date(GetParam());
  Date rebuilt = Date::FromYmd(date.Year(), date.Month(), date.Day());
  EXPECT_EQ(rebuilt.DaysValue(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(SweepDays, DateRoundTripTest,
                         ::testing::Values(-100000, -365, -1, 0, 1, 59, 60, 365, 366,
                                           10000, 36524, 100000));

}  // namespace
}  // namespace tioga2::types
