//! Proleptic Gregorian civil calendar from Unix timestamps.
//!
//! Implements the classic `civil_from_days` algorithm (Howard Hinnant,
//! "chrono-Compatible Low-Level Date Algorithms"), which is exact over the
//! entire proleptic Gregorian calendar. Only the pieces the time grid needs
//! are exposed: date components, weekday, and hour-of-day.

/// Day of week.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Weekday {
    /// Monday
    Monday,
    /// Tuesday
    Tuesday,
    /// Wednesday
    Wednesday,
    /// Thursday
    Thursday,
    /// Friday
    Friday,
    /// Saturday
    Saturday,
    /// Sunday
    Sunday,
}

impl Weekday {
    /// Index with Monday = 0 … Sunday = 6.
    pub fn index_from_monday(self) -> u32 {
        match self {
            Weekday::Monday => 0,
            Weekday::Tuesday => 1,
            Weekday::Wednesday => 2,
            Weekday::Thursday => 3,
            Weekday::Friday => 4,
            Weekday::Saturday => 5,
            Weekday::Sunday => 6,
        }
    }

    /// Inverse of [`Self::index_from_monday`].
    pub fn from_index_monday(idx: u32) -> Weekday {
        match idx % 7 {
            0 => Weekday::Monday,
            1 => Weekday::Tuesday,
            2 => Weekday::Wednesday,
            3 => Weekday::Thursday,
            4 => Weekday::Friday,
            5 => Weekday::Saturday,
            _ => Weekday::Sunday,
        }
    }

    /// Saturday or Sunday.
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Saturday | Weekday::Sunday)
    }
}

/// A broken-down civil date-time (no timezone; the timestamp is interpreted
/// as already being in the event's local time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CivilDateTime {
    /// Gregorian year (may be negative for ancient timestamps).
    pub year: i32,
    /// Month, 1–12.
    pub month: u32,
    /// Day of month, 1–31.
    pub day: u32,
    /// Hour of day, 0–23.
    pub hour: u32,
    /// Minute, 0–59.
    pub minute: u32,
    /// Second, 0–59.
    pub second: u32,
    /// Day of week.
    pub weekday: Weekday,
}

impl CivilDateTime {
    /// Break a Unix timestamp (seconds) into civil components.
    pub fn from_unix(ts: i64) -> Self {
        let days = ts.div_euclid(86_400);
        let secs_of_day = ts.rem_euclid(86_400);
        let (year, month, day) = civil_from_days(days);
        // 1970-01-01 was a Thursday (index 3 from Monday).
        let weekday = Weekday::from_index_monday((days.rem_euclid(7) as u32 + 3) % 7);
        CivilDateTime {
            year,
            month,
            day,
            hour: (secs_of_day / 3600) as u32,
            minute: (secs_of_day % 3600 / 60) as u32,
            second: (secs_of_day % 60) as u32,
            weekday,
        }
    }

    /// Convert civil components back to a Unix timestamp (seconds).
    ///
    /// # Panics
    /// Panics if a component is out of range (month 1–12, day 1–31,
    /// hour < 24, minute < 60, second < 60). Day validity against the month
    /// length is *not* checked (matching `mktime`-style normalisation is out
    /// of scope); use only with well-formed dates.
    pub fn to_unix(&self) -> i64 {
        assert!((1..=12).contains(&self.month), "bad month {}", self.month);
        assert!((1..=31).contains(&self.day), "bad day {}", self.day);
        assert!(self.hour < 24 && self.minute < 60 && self.second < 60);
        days_from_civil(self.year, self.month, self.day) * 86_400
            + self.hour as i64 * 3600
            + self.minute as i64 * 60
            + self.second as i64
    }

    /// Convenience constructor from components (computes the weekday).
    pub fn new(year: i32, month: u32, day: u32, hour: u32, minute: u32, second: u32) -> Self {
        let days = days_from_civil(year, month, day);
        let weekday = Weekday::from_index_monday((days.rem_euclid(7) as u32 + 3) % 7);
        CivilDateTime { year, month, day, hour, minute, second, weekday }
    }
}

/// Days since 1970-01-01 for a civil date (Hinnant's `days_from_civil`).
pub fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // Mar=0 … Feb=11
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date for a days-since-epoch count (Hinnant's `civil_from_days`).
pub fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_thursday_midnight() {
        let c = CivilDateTime::from_unix(0);
        assert_eq!((c.year, c.month, c.day), (1970, 1, 1));
        assert_eq!((c.hour, c.minute, c.second), (0, 0, 0));
        assert_eq!(c.weekday, Weekday::Thursday);
    }

    #[test]
    fn paper_example_2017_06_29_is_thursday_weekday() {
        // "2017-06-29 18:00" → 18:00, Thursday, weekday (paper §II).
        let c = CivilDateTime::new(2017, 6, 29, 18, 0, 0);
        assert_eq!(c.weekday, Weekday::Thursday);
        assert!(!c.weekday.is_weekend());
        assert_eq!(c.hour, 18);
        let round = CivilDateTime::from_unix(c.to_unix());
        assert_eq!(round, c);
    }

    #[test]
    fn known_dates() {
        // 2000-02-29 existed (leap year divisible by 400).
        let c = CivilDateTime::new(2000, 2, 29, 12, 30, 45);
        assert_eq!(CivilDateTime::from_unix(c.to_unix()), c);
        assert_eq!(c.weekday, Weekday::Tuesday);

        // 1900 was NOT a leap year: days_from_civil must agree across Feb 28→Mar 1.
        assert_eq!(days_from_civil(1900, 3, 1) - days_from_civil(1900, 2, 28), 1);
        // 2000 WAS a leap year.
        assert_eq!(days_from_civil(2000, 3, 1) - days_from_civil(2000, 2, 28), 2);
    }

    #[test]
    fn negative_timestamps_before_epoch() {
        let c = CivilDateTime::from_unix(-1);
        assert_eq!((c.year, c.month, c.day), (1969, 12, 31));
        assert_eq!((c.hour, c.minute, c.second), (23, 59, 59));
        assert_eq!(c.weekday, Weekday::Wednesday);
    }

    #[test]
    fn weekend_classification() {
        assert!(Weekday::Saturday.is_weekend());
        assert!(Weekday::Sunday.is_weekend());
        for wd in [
            Weekday::Monday,
            Weekday::Tuesday,
            Weekday::Wednesday,
            Weekday::Thursday,
            Weekday::Friday,
        ] {
            assert!(!wd.is_weekend());
        }
    }

    #[test]
    fn weekday_index_round_trips() {
        for i in 0..7 {
            assert_eq!(Weekday::from_index_monday(i).index_from_monday(), i);
        }
    }

    #[test]
    fn consecutive_days_have_consecutive_weekdays() {
        let mut prev = CivilDateTime::from_unix(1_300_000_000).weekday.index_from_monday();
        for d in 1..400 {
            let ts = 1_300_000_000 + d * 86_400;
            let idx = CivilDateTime::from_unix(ts).weekday.index_from_monday();
            assert_eq!(idx, (prev + 1) % 7);
            prev = idx;
        }
    }

    #[test]
    fn douban_crawl_window_bounds() {
        // The paper's crawl window: Sep 2005 – Dec 2012.
        let start = CivilDateTime::new(2005, 9, 1, 0, 0, 0).to_unix();
        let end = CivilDateTime::new(2012, 12, 31, 23, 59, 59).to_unix();
        assert!(start < end);
        let c = CivilDateTime::from_unix(start);
        assert_eq!((c.year, c.month, c.day), (2005, 9, 1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// from_unix/to_unix round-trip exactly over ±200 years.
        #[test]
        fn unix_round_trip(ts in -6_000_000_000i64..6_000_000_000) {
            let c = CivilDateTime::from_unix(ts);
            prop_assert_eq!(c.to_unix(), ts);
        }

        /// Components are always in range.
        #[test]
        fn components_in_range(ts in -6_000_000_000i64..6_000_000_000) {
            let c = CivilDateTime::from_unix(ts);
            prop_assert!((1..=12).contains(&c.month));
            prop_assert!((1..=31).contains(&c.day));
            prop_assert!(c.hour < 24 && c.minute < 60 && c.second < 60);
        }
    }
}
