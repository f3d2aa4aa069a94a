#ifndef TIOGA2_TYPES_DATE_H_
#define TIOGA2_TYPES_DATE_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace tioga2::types {

/// A calendar date, stored as days since the Unix epoch (1970-01-01).
/// The Observations relation of the paper's running example is keyed by
/// date; location attributes derived from dates convert through DaysValue().
///
/// Every Date made from outside input or from arithmetic — Parse, and
/// FromDays behind `date_from_days`, `date ± int` and the snapshot/WAL
/// decoders — lies in [kMinDays, kMaxDays], the years 0000 through 9999
/// that "YYYY-MM-DD" spells; a day count outside is refused. Within the
/// range the civil conversions and ToString cannot overflow.
class Date {
 public:
  static constexpr int64_t kMinDays = -719528;  // 0000-01-01
  static constexpr int64_t kMaxDays = 2932896;  // 9999-12-31

  /// The epoch, 1970-01-01.
  Date() = default;

  /// From a trusted day count relative to 1970-01-01 (may be negative).
  explicit Date(int64_t days) : days_(days) {}

  /// From a day count out of input or arithmetic: an OutOfRange status
  /// outside [kMinDays, kMaxDays].
  static Result<Date> FromDays(int64_t days);

  /// From a civil (proleptic Gregorian) date. Out-of-range month/day values
  /// are normalized arithmetically (e.g. month 13 rolls into the next year).
  static Date FromYmd(int year, int month, int day);

  /// Parses "YYYY-MM-DD" naming a day the calendar has; returns false on
  /// malformed input, 2023-02-29, 2024-04-31 and a five-digit year.
  static bool Parse(const std::string& text, Date* out);

  /// Days since the epoch.
  int64_t DaysValue() const { return days_; }

  /// Civil components.
  int Year() const;
  int Month() const;
  int Day() const;

  /// Formats as "YYYY-MM-DD".
  std::string ToString() const;

  Date AddDays(int64_t days) const { return Date(days_ + days); }

  friend bool operator==(const Date& a, const Date& b) = default;
  friend auto operator<=>(const Date& a, const Date& b) = default;

 private:
  int64_t days_ = 0;
};

}  // namespace tioga2::types

#endif  // TIOGA2_TYPES_DATE_H_
