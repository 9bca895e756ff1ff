//! Chronological train/validation/test event splits (§V-A).
//!
//! The paper divides events by start time with ratio 7:3 into training and
//! held-out sets, then splits the held-out set 1:2 into validation and test.
//! Attendance records of held-out events are removed from training, which is
//! exactly what makes every evaluation event *cold-start*: the model can
//! learn its representation only through content, location and time.

use crate::ids::EventId;
use crate::model::EbsnDataset;

/// Which partition an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Training event: its attendance edges are visible at training time.
    Train,
    /// Validation event (hyper-parameter tuning).
    Validation,
    /// Test event (final metrics).
    Test,
}

/// Split ratios; defaults follow the paper (train 0.7, then the held-out 0.3
/// split 1:2 into validation/test).
#[derive(Debug, Clone, Copy)]
pub struct SplitRatios {
    /// Fraction of events (earliest by start time) used for training.
    pub train: f64,
    /// Fraction of the *held-out* events used for validation (rest is test).
    pub validation_of_heldout: f64,
}

impl Default for SplitRatios {
    fn default() -> Self {
        Self { train: 0.7, validation_of_heldout: 1.0 / 3.0 }
    }
}

/// A chronological split of a dataset's events.
#[derive(Debug, Clone)]
pub struct ChronoSplit {
    /// Partition of each event, indexed by event id.
    pub partition: Vec<Partition>,
    /// Training events in chronological order.
    pub train_events: Vec<EventId>,
    /// Validation events in chronological order.
    pub validation_events: Vec<EventId>,
    /// Test events in chronological order.
    pub test_events: Vec<EventId>,
}

impl ChronoSplit {
    /// Split a dataset's events chronologically.
    ///
    /// Ties on start time are broken by event id so the split is
    /// deterministic.
    ///
    /// # Panics
    /// Panics if the ratios are outside `(0, 1)`.
    pub fn new(dataset: &EbsnDataset, ratios: SplitRatios) -> Self {
        assert!(
            ratios.train > 0.0 && ratios.train < 1.0,
            "train ratio must be in (0, 1), got {}",
            ratios.train
        );
        assert!(
            ratios.validation_of_heldout >= 0.0 && ratios.validation_of_heldout < 1.0,
            "validation ratio must be in [0, 1), got {}",
            ratios.validation_of_heldout
        );
        let mut order: Vec<EventId> = (0..dataset.events.len()).map(EventId::from_index).collect();
        order.sort_by_key(|&x| (dataset.events[x.index()].start_time, x));

        let n = order.len();
        let train_end = (ratios.train * n as f64).round() as usize;
        let heldout = n - train_end;
        let val_end = train_end + (ratios.validation_of_heldout * heldout as f64).round() as usize;

        let mut partition = vec![Partition::Train; n];
        for &x in &order[train_end..val_end] {
            partition[x.index()] = Partition::Validation;
        }
        for &x in &order[val_end..] {
            partition[x.index()] = Partition::Test;
        }
        ChronoSplit {
            train_events: order[..train_end].to_vec(),
            validation_events: order[train_end..val_end].to_vec(),
            test_events: order[val_end..].to_vec(),
            partition,
        }
    }

    /// Partition of an event.
    pub fn partition_of(&self, x: EventId) -> Partition {
        self.partition[x.index()]
    }

    /// True if the event's attendance is visible during training.
    pub fn is_train(&self, x: EventId) -> bool {
        self.partition[x.index()] == Partition::Train
    }

    /// Attendance pairs restricted to training events.
    pub fn train_attendance(&self, dataset: &EbsnDataset) -> Vec<(crate::UserId, EventId)> {
        dataset.attendance.iter().copied().filter(|&(_, x)| self.is_train(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tiny_dataset;
    use crate::model::Event;
    use crate::VenueId;
    use gem_spatial::GeoPoint;

    fn dataset_with_times(times: &[i64]) -> EbsnDataset {
        EbsnDataset {
            name: "t".into(),
            num_users: 1,
            events: times
                .iter()
                .map(|&t| Event { venue: VenueId(0), start_time: t, description: String::new() })
                .collect(),
            venues: vec![GeoPoint::new(0.0, 0.0).unwrap()],
            attendance: vec![],
            friendships: vec![],
        }
    }

    #[test]
    fn split_respects_chronology() {
        // 10 events with shuffled times.
        let times = [50, 10, 90, 30, 70, 20, 80, 40, 60, 100];
        let d = dataset_with_times(&times);
        let s = ChronoSplit::new(&d, SplitRatios::default());
        assert_eq!(s.train_events.len(), 7);
        assert_eq!(s.validation_events.len(), 1);
        assert_eq!(s.test_events.len(), 2);
        // Every training event starts before every held-out event.
        let max_train =
            s.train_events.iter().map(|&x| d.events[x.index()].start_time).max().unwrap();
        for &x in s.validation_events.iter().chain(&s.test_events) {
            assert!(d.events[x.index()].start_time >= max_train);
        }
        // Validation events start before test events.
        let max_val =
            s.validation_events.iter().map(|&x| d.events[x.index()].start_time).max().unwrap();
        for &x in &s.test_events {
            assert!(d.events[x.index()].start_time >= max_val);
        }
    }

    #[test]
    fn partitions_form_a_partition() {
        let times: Vec<i64> = (0..100).map(|i| (i * 37) % 1000).collect();
        let d = dataset_with_times(&times);
        let s = ChronoSplit::new(&d, SplitRatios::default());
        assert_eq!(s.train_events.len() + s.validation_events.len() + s.test_events.len(), 100);
        let mut all: Vec<EventId> = s
            .train_events
            .iter()
            .chain(&s.validation_events)
            .chain(&s.test_events)
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 100);
        // partition_of agrees with the lists.
        for &x in &s.test_events {
            assert_eq!(s.partition_of(x), Partition::Test);
        }
    }

    #[test]
    fn train_attendance_filters_heldout_events() {
        let d = tiny_dataset(); // events at times 1e6, 2e6, 3e6
        let s = ChronoSplit::new(&d, SplitRatios { train: 0.67, validation_of_heldout: 0.0 });
        // 3 events → 2 train, 1 test (e2 is latest).
        assert!(s.is_train(EventId(0)));
        assert!(s.is_train(EventId(1)));
        assert_eq!(s.partition_of(EventId(2)), Partition::Test);
        let ta = s.train_attendance(&d);
        assert!(ta.iter().all(|&(_, x)| x != EventId(2)));
        assert_eq!(ta.len(), 3);
    }

    #[test]
    fn ties_break_deterministically() {
        let d = dataset_with_times(&[5, 5, 5, 5]);
        let a = ChronoSplit::new(&d, SplitRatios::default());
        let b = ChronoSplit::new(&d, SplitRatios::default());
        assert_eq!(a.train_events, b.train_events);
        assert_eq!(a.test_events, b.test_events);
    }

    #[test]
    #[should_panic(expected = "train ratio")]
    fn bad_ratio_panics() {
        let d = dataset_with_times(&[1]);
        ChronoSplit::new(&d, SplitRatios { train: 1.5, validation_of_heldout: 0.3 });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::model::Event;
    use crate::VenueId;
    use gem_spatial::GeoPoint;
    use proptest::prelude::*;

    proptest! {
        /// The split is always a partition and always chronological.
        #[test]
        fn always_a_chronological_partition(
            times in prop::collection::vec(0i64..1_000_000, 3..200),
            train in 0.1f64..0.9,
            val in 0.0f64..0.9,
        ) {
            let d = EbsnDataset {
                name: "p".into(),
                num_users: 1,
                events: times.iter().map(|&t| Event {
                    venue: VenueId(0), start_time: t, description: String::new(),
                }).collect(),
                venues: vec![GeoPoint::new(0.0, 0.0).unwrap()],
                attendance: vec![],
                friendships: vec![],
            };
            let s = ChronoSplit::new(&d, SplitRatios { train, validation_of_heldout: val });
            prop_assert_eq!(
                s.train_events.len() + s.validation_events.len() + s.test_events.len(),
                times.len()
            );
            let t_max = s.train_events.iter()
                .map(|&x| d.events[x.index()].start_time).max().unwrap_or(i64::MIN);
            for &x in s.validation_events.iter().chain(&s.test_events) {
                prop_assert!(d.events[x.index()].start_time >= t_max);
            }
        }
    }
}
