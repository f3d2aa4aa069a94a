#include "types/date.h"

#include <cstdio>

namespace tioga2::types {

namespace {

// Civil-from-days and days-from-civil, Howard Hinnant's public-domain
// algorithms for the proleptic Gregorian calendar.
int64_t DaysFromCivil(int64_t y, int64_t m, int64_t d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t yoe = y - era * 400;                                  // [0, 399]
  const int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0, 146096]
  return era * 146097 + doe - 719468;
}

void CivilFromDays(int64_t z, int* year, int* month, int* day) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;                                    // [0, 146096]
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;  // [0, 399]
  const int64_t y = yoe + era * 400;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0, 365]
  const int64_t mp = (5 * doy + 2) / 153;                       // [0, 11]
  const int64_t d = doy - (153 * mp + 2) / 5 + 1;               // [1, 31]
  const int64_t m = mp + (mp < 10 ? 3 : -9);                    // [1, 12]
  *year = static_cast<int>(y + (m <= 2));
  *month = static_cast<int>(m);
  *day = static_cast<int>(d);
}

}  // namespace

Date Date::FromYmd(int year, int month, int day) {
  // Normalize month outside [1,12] arithmetically.
  int64_t y = year;
  int64_t m = month;
  if (m < 1 || m > 12) {
    int64_t zero_based = m - 1;
    int64_t carry = zero_based >= 0 ? zero_based / 12 : (zero_based - 11) / 12;
    y += carry;
    m = zero_based - carry * 12 + 1;
  }
  return Date(DaysFromCivil(y, m, day));
}

Result<Date> Date::FromDays(int64_t days) {
  if (days < kMinDays || days > kMaxDays) {
    return Status::OutOfRange("day count " + std::to_string(days) +
                              " is outside the dates 0000-01-01 to 9999-12-31");
  }
  return Date(days);
}

bool Date::Parse(const std::string& text, Date* out) {
  int year = 0;
  int month = 0;
  int day = 0;
  char trailing = 0;
  // The field widths bound each number, so no year overflows an int.
  if (std::sscanf(text.c_str(), "%4d-%2d-%2d%c", &year, &month, &day, &trailing) != 3) {
    return false;
  }
  static constexpr int kMonthDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (year < 0 || month < 1 || month > 12 || day < 1) return false;
  const bool leap = year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
  if (day > kMonthDays[month - 1] + (month == 2 && leap ? 1 : 0)) return false;
  *out = FromYmd(year, month, day);
  return true;
}

int Date::Year() const {
  int y = 0;
  int m = 0;
  int d = 0;
  CivilFromDays(days_, &y, &m, &d);
  return y;
}

int Date::Month() const {
  int y = 0;
  int m = 0;
  int d = 0;
  CivilFromDays(days_, &y, &m, &d);
  return m;
}

int Date::Day() const {
  int y = 0;
  int m = 0;
  int d = 0;
  CivilFromDays(days_, &y, &m, &d);
  return d;
}

std::string Date::ToString() const {
  int y = 0;
  int m = 0;
  int d = 0;
  CivilFromDays(days_, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

}  // namespace tioga2::types
