//! The paper's 33-slot multi-scale time vocabulary.
//!
//! Slot ids are laid out contiguously so they can index embedding rows
//! directly:
//!
//! | ids      | meaning            |
//! |----------|--------------------|
//! | `0..24`  | hour of day        |
//! | `24..31` | day of week (Mon=24) |
//! | `31`     | weekday            |
//! | `32`     | weekend            |

use crate::civil::{CivilDateTime, Weekday};

/// Total number of time-slot nodes in the event–time graph.
pub const NUM_TIME_SLOTS: usize = 33;

/// Every event links to exactly this many slots (one per scale).
pub const SLOTS_PER_EVENT: usize = 3;

/// One of the 33 time-slot nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeSlot {
    /// Hour of day, 0–23.
    Hour(
        /// hour, 0–23
        u32,
    ),
    /// Day of week.
    Day(Weekday),
    /// Monday–Friday.
    Weekday,
    /// Saturday–Sunday.
    Weekend,
}

impl TimeSlot {
    /// Dense id in `0..NUM_TIME_SLOTS`.
    pub fn id(self) -> usize {
        match self {
            TimeSlot::Hour(h) => {
                debug_assert!(h < 24);
                h as usize
            }
            TimeSlot::Day(wd) => 24 + wd.index_from_monday() as usize,
            TimeSlot::Weekday => 31,
            TimeSlot::Weekend => 32,
        }
    }

    /// Inverse of [`Self::id`].
    ///
    /// # Panics
    /// Panics if `id >= NUM_TIME_SLOTS`.
    pub fn from_id(id: usize) -> TimeSlot {
        match id {
            0..=23 => TimeSlot::Hour(id as u32),
            24..=30 => TimeSlot::Day(Weekday::from_index_monday((id - 24) as u32)),
            31 => TimeSlot::Weekday,
            32 => TimeSlot::Weekend,
            _ => panic!("time slot id {id} out of range 0..{NUM_TIME_SLOTS}"),
        }
    }

    /// Human-readable slot name, e.g. `"18:00"`, `"Thursday"`, `"weekday"`.
    pub fn name(self) -> String {
        match self {
            TimeSlot::Hour(h) => format!("{h:02}:00"),
            TimeSlot::Day(wd) => format!("{wd:?}"),
            TimeSlot::Weekday => "weekday".to_string(),
            TimeSlot::Weekend => "weekend".to_string(),
        }
    }
}

/// The three slots (one per scale) an event timestamp maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeSlotSet {
    /// Hour-scale slot.
    pub hour: TimeSlot,
    /// Day-of-week-scale slot.
    pub day: TimeSlot,
    /// Weekday/weekend-scale slot.
    pub day_type: TimeSlot,
}

impl TimeSlotSet {
    /// Discretise a Unix timestamp (local civil seconds) into its 3 slots.
    pub fn from_unix(ts: i64) -> Self {
        let c = CivilDateTime::from_unix(ts);
        Self::from_civil(&c)
    }

    /// Discretise a broken-down civil time.
    pub fn from_civil(c: &CivilDateTime) -> Self {
        TimeSlotSet {
            hour: TimeSlot::Hour(c.hour),
            day: TimeSlot::Day(c.weekday),
            day_type: if c.weekday.is_weekend() { TimeSlot::Weekend } else { TimeSlot::Weekday },
        }
    }

    /// The three dense slot ids, in (hour, day, day-type) order.
    pub fn ids(&self) -> [usize; SLOTS_PER_EVENT] {
        [self.hour.id(), self.day.id(), self.day_type.id()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_maps_to_three_slots() {
        // "2017-06-29 18:00" → {18:00, Thursday, weekday}.
        let c = CivilDateTime::new(2017, 6, 29, 18, 0, 0);
        let s = TimeSlotSet::from_civil(&c);
        assert_eq!(s.hour, TimeSlot::Hour(18));
        assert_eq!(s.day, TimeSlot::Day(Weekday::Thursday));
        assert_eq!(s.day_type, TimeSlot::Weekday);
        assert_eq!(s.hour.name(), "18:00");
        assert_eq!(s.day_type.name(), "weekday");
    }

    #[test]
    fn saturday_night_is_weekend() {
        let c = CivilDateTime::new(2012, 6, 30, 21, 15, 0); // a Saturday
        assert_eq!(c.weekday, Weekday::Saturday);
        let s = TimeSlotSet::from_civil(&c);
        assert_eq!(s.day_type, TimeSlot::Weekend);
        assert_eq!(s.hour, TimeSlot::Hour(21));
    }

    #[test]
    fn ids_cover_exactly_33_distinct_slots() {
        let all: Vec<TimeSlot> = (0..NUM_TIME_SLOTS).map(TimeSlot::from_id).collect();
        let mut ids: Vec<usize> = all.iter().map(|s| s.id()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..NUM_TIME_SLOTS).collect::<Vec<_>>());
    }

    #[test]
    fn id_round_trip() {
        for id in 0..NUM_TIME_SLOTS {
            assert_eq!(TimeSlot::from_id(id).id(), id);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_panics() {
        TimeSlot::from_id(NUM_TIME_SLOTS);
    }

    #[test]
    fn slot_ids_are_one_per_scale() {
        let s = TimeSlotSet::from_unix(1_340_000_000);
        let [h, d, t] = s.ids();
        assert!(h < 24);
        assert!((24..31).contains(&d));
        assert!(t == 31 || t == 32);
    }

    #[test]
    fn midnight_boundary() {
        let s = TimeSlotSet::from_civil(&CivilDateTime::new(2010, 5, 3, 0, 0, 0));
        assert_eq!(s.hour, TimeSlot::Hour(0));
        let s = TimeSlotSet::from_civil(&CivilDateTime::new(2010, 5, 3, 23, 59, 59));
        assert_eq!(s.hour, TimeSlot::Hour(23));
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<String> =
            (0..NUM_TIME_SLOTS).map(|i| TimeSlot::from_id(i).name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), NUM_TIME_SLOTS);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every timestamp maps to exactly one slot per scale and the ids are
        /// always valid embedding-row indices.
        #[test]
        fn all_timestamps_discretise(ts in -4_000_000_000i64..4_000_000_000) {
            let s = TimeSlotSet::from_unix(ts);
            let [h, d, t] = s.ids();
            prop_assert!(h < 24);
            prop_assert!((24..31).contains(&d));
            prop_assert!(t == 31 || t == 32);
            // Day slot and day-type slot must be consistent.
            let weekend_day = d == 24 + 5 || d == 24 + 6;
            prop_assert_eq!(weekend_day, t == 32);
        }
    }
}
