//! The in-memory EBSN dataset.
//!
//! An [`EbsnDataset`] is the normalized form of a crawl (or of the
//! synthesizer's output): a list of events with content/location/time, a
//! user–event attendance relation and an undirected friendship relation.
//! Derived per-user and per-event indexes are built once and reused by the
//! graph builder, the splitter and the evaluators.

use crate::ids::{EventId, UserId, VenueId};
use gem_spatial::GeoPoint;

/// A social event: where, when and what.
#[derive(Debug, Clone)]
pub struct Event {
    /// Venue the event is held at (dense venue id; coordinates live in
    /// [`EbsnDataset::venues`]).
    pub venue: VenueId,
    /// Start time, Unix seconds in local civil time.
    pub start_time: i64,
    /// Free-text description (tokenized downstream).
    pub description: String,
}

/// A normalized event-based social network dataset.
#[derive(Debug, Clone, Default)]
pub struct EbsnDataset {
    /// Human-readable dataset name (e.g. `"beijing-sim"`).
    pub name: String,
    /// Number of users; user ids are `0..num_users`.
    pub num_users: usize,
    /// Events, indexed by [`EventId`].
    pub events: Vec<Event>,
    /// Venue coordinates, indexed by [`VenueId`].
    pub venues: Vec<GeoPoint>,
    /// Attendance pairs (who attended what). Unordered, deduplicated.
    pub attendance: Vec<(UserId, EventId)>,
    /// Undirected friendship pairs, stored with `u.0 < v.0`, deduplicated.
    pub friendships: Vec<(UserId, UserId)>,
}

/// Derived constant-time lookups over a dataset.
#[derive(Debug, Clone)]
pub struct DatasetIndex {
    /// Events attended by each user, sorted.
    pub events_of_user: Vec<Vec<EventId>>,
    /// Users attending each event, sorted.
    pub users_of_event: Vec<Vec<UserId>>,
    /// Friends of each user, sorted.
    pub friends_of_user: Vec<Vec<UserId>>,
}

impl EbsnDataset {
    /// Validate internal consistency; returns a description of the first
    /// violation found, if any. Intended for loaders and the synthesizer's
    /// own tests.
    pub fn validate(&self) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            if e.venue.index() >= self.venues.len() {
                return Err(format!("event {i} references missing venue {}", e.venue));
            }
        }
        for &(u, x) in &self.attendance {
            if u.index() >= self.num_users {
                return Err(format!("attendance references missing user {u}"));
            }
            if x.index() >= self.events.len() {
                return Err(format!("attendance references missing event {x}"));
            }
        }
        for &(u, v) in &self.friendships {
            if u.index() >= self.num_users || v.index() >= self.num_users {
                return Err(format!("friendship ({u}, {v}) references missing user"));
            }
            if u.0 >= v.0 {
                return Err(format!("friendship ({u}, {v}) not stored with u < v"));
            }
        }
        let mut att = self.attendance.clone();
        att.sort_unstable();
        let before = att.len();
        att.dedup();
        if att.len() != before {
            return Err("duplicate attendance pairs".to_string());
        }
        let mut fr = self.friendships.clone();
        fr.sort_unstable();
        let before = fr.len();
        fr.dedup();
        if fr.len() != before {
            return Err("duplicate friendship pairs".to_string());
        }
        Ok(())
    }

    /// Build the derived indexes.
    pub fn index(&self) -> DatasetIndex {
        let mut events_of_user = vec![Vec::new(); self.num_users];
        let mut users_of_event = vec![Vec::new(); self.events.len()];
        for &(u, x) in &self.attendance {
            events_of_user[u.index()].push(x);
            users_of_event[x.index()].push(u);
        }
        let mut friends_of_user = vec![Vec::new(); self.num_users];
        for &(u, v) in &self.friendships {
            friends_of_user[u.index()].push(v);
            friends_of_user[v.index()].push(u);
        }
        for list in &mut events_of_user {
            list.sort_unstable();
        }
        for list in &mut users_of_event {
            list.sort_unstable();
        }
        for list in &mut friends_of_user {
            list.sort_unstable();
        }
        DatasetIndex { events_of_user, users_of_event, friends_of_user }
    }

    /// Basic statistics, mirroring the paper's Table I rows.
    pub fn stats(&self) -> DatasetStats {
        let mut venues_used: Vec<VenueId> = self.events.iter().map(|e| e.venue).collect();
        venues_used.sort_unstable();
        venues_used.dedup();
        DatasetStats {
            num_users: self.num_users,
            num_events: self.events.len(),
            num_venues: venues_used.len(),
            num_attendances: self.attendance.len(),
            num_friendships: self.friendships.len(),
        }
    }
}

impl DatasetIndex {
    /// Number of common events two users attended (the `|X_u ∩ X_u'|` term
    /// of Definition 2).
    pub fn common_events(&self, u: UserId, v: UserId) -> usize {
        let (a, b) = (&self.events_of_user[u.index()], &self.events_of_user[v.index()]);
        sorted_intersection_len(a, b)
    }

    /// True if `u` and `v` are friends.
    pub fn are_friends(&self, u: UserId, v: UserId) -> bool {
        self.friends_of_user[u.index()].binary_search(&v).is_ok()
    }

    /// True if `u` attended `x`.
    pub fn attended(&self, u: UserId, x: EventId) -> bool {
        self.events_of_user[u.index()].binary_search(&x).is_ok()
    }
}

/// Counts matching the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetStats {
    /// Total users.
    pub num_users: usize,
    /// Total events.
    pub num_events: usize,
    /// Distinct venues actually hosting events.
    pub num_venues: usize,
    /// Total attendance records.
    pub num_attendances: usize,
    /// Total friendship links.
    pub num_friendships: usize,
}

/// Length of the intersection of two sorted slices.
fn sorted_intersection_len<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
pub(crate) use tests::tiny_dataset;

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn tiny_dataset() -> EbsnDataset {
        // 3 users, 3 events, 2 venues.
        // u0 attends e0, e1; u1 attends e0, e2; u2 attends e2.
        // friends: (u0, u1), (u1, u2).
        EbsnDataset {
            name: "tiny".into(),
            num_users: 3,
            events: vec![
                Event {
                    venue: VenueId(0),
                    start_time: 1_000_000,
                    description: "jazz night".into(),
                },
                Event { venue: VenueId(0), start_time: 2_000_000, description: "tech talk".into() },
                Event {
                    venue: VenueId(1),
                    start_time: 3_000_000,
                    description: "movie marathon".into(),
                },
            ],
            venues: vec![
                GeoPoint::new(39.9, 116.4).unwrap(),
                GeoPoint::new(39.95, 116.45).unwrap(),
            ],
            attendance: vec![
                (UserId(0), EventId(0)),
                (UserId(0), EventId(1)),
                (UserId(1), EventId(0)),
                (UserId(1), EventId(2)),
                (UserId(2), EventId(2)),
            ],
            friendships: vec![(UserId(0), UserId(1)), (UserId(1), UserId(2))],
        }
    }

    #[test]
    fn tiny_dataset_is_valid() {
        assert_eq!(tiny_dataset().validate(), Ok(()));
    }

    #[test]
    fn index_builds_sorted_lists() {
        let idx = tiny_dataset().index();
        assert_eq!(idx.events_of_user[0], vec![EventId(0), EventId(1)]);
        assert_eq!(idx.users_of_event[2], vec![UserId(1), UserId(2)]);
        assert_eq!(idx.friends_of_user[1], vec![UserId(0), UserId(2)]);
    }

    #[test]
    fn common_events_counts_intersection() {
        let idx = tiny_dataset().index();
        assert_eq!(idx.common_events(UserId(0), UserId(1)), 1); // e0
        assert_eq!(idx.common_events(UserId(0), UserId(2)), 0);
        assert_eq!(idx.common_events(UserId(1), UserId(2)), 1); // e2
    }

    #[test]
    fn friendship_and_attendance_lookups() {
        let idx = tiny_dataset().index();
        assert!(idx.are_friends(UserId(0), UserId(1)));
        assert!(idx.are_friends(UserId(1), UserId(0)));
        assert!(!idx.are_friends(UserId(0), UserId(2)));
        assert!(idx.attended(UserId(2), EventId(2)));
        assert!(!idx.attended(UserId(2), EventId(0)));
    }

    #[test]
    fn stats_match_table_semantics() {
        let s = tiny_dataset().stats();
        assert_eq!(
            s,
            DatasetStats {
                num_users: 3,
                num_events: 3,
                num_venues: 2,
                num_attendances: 5,
                num_friendships: 2,
            }
        );
    }

    #[test]
    fn validate_catches_bad_references() {
        let mut d = tiny_dataset();
        d.attendance.push((UserId(99), EventId(0)));
        assert!(d.validate().is_err());

        let mut d = tiny_dataset();
        d.friendships.push((UserId(2), UserId(1))); // wrong order
        assert!(d.validate().is_err());

        let mut d = tiny_dataset();
        d.attendance.push((UserId(0), EventId(0))); // duplicate
        assert!(d.validate().is_err());
    }
}
