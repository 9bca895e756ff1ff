//! Ground truth for the two evaluation tasks (§V-A).
//!
//! * **Cold-start event recommendation**: every attendance pair `(u, x)`
//!   with `x` in the test partition is one positive test case.
//! * **Joint event-partner recommendation**: for each test event `x`, every
//!   ordered pair of *friends* `(u, u')` who both attended `x` is a positive
//!   triple `(u, u', x)`. Scenario 1 keeps those friendships in the training
//!   social graph; scenario 2 ("potential friends") removes them, so the
//!   model must infer the affinity without the direct link.

use crate::ids::{EventId, UserId};
use crate::model::EbsnDataset;
use crate::split::{ChronoSplit, Partition};

/// A positive test case for cold-start event recommendation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecCase {
    /// The target user.
    pub user: UserId,
    /// The (cold-start) event the user actually attended.
    pub event: EventId,
}

/// A positive triple for joint event-partner recommendation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartnerTriple {
    /// The target user.
    pub user: UserId,
    /// The partner (a friend who attended the same event).
    pub partner: UserId,
    /// The event both attended.
    pub event: EventId,
}

/// The two partner evaluation scenarios of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartnerScenario {
    /// Partners are existing friends; the friendship edge stays in training.
    Friends,
    /// Partners are *potential* friends; their links are removed from the
    /// training social graph.
    PotentialFriends,
}

/// Complete ground truth for one dataset + split.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Event recommendation cases over the test partition.
    pub event_cases: Vec<EventRecCase>,
    /// Event recommendation cases over the validation partition (for
    /// hyper-parameter tuning).
    pub event_cases_validation: Vec<EventRecCase>,
    /// Partner triples over the test partition.
    pub partner_triples: Vec<PartnerTriple>,
    /// The distinct unordered user pairs appearing in `partner_triples`
    /// (stored `u < v`); these are the links removed from the social graph
    /// in [`PartnerScenario::PotentialFriends`].
    pub partner_links: Vec<(UserId, UserId)>,
}

impl GroundTruth {
    /// Extract ground truth from a dataset under a split.
    pub fn extract(dataset: &EbsnDataset, split: &ChronoSplit) -> Self {
        let index = dataset.index();

        let mut event_cases = Vec::new();
        let mut event_cases_validation = Vec::new();
        for &(u, x) in &dataset.attendance {
            match split.partition_of(x) {
                Partition::Test => event_cases.push(EventRecCase { user: u, event: x }),
                Partition::Validation => {
                    event_cases_validation.push(EventRecCase { user: u, event: x })
                }
                Partition::Train => {}
            }
        }

        // Partner triples: Y = {(u, u', x) : x ∈ X_test, u,u' ∈ U_x, (u,u') ∈ E_UU}.
        let mut partner_triples = Vec::new();
        let mut partner_links = Vec::new();
        for &x in &split.test_events {
            let attendees = &index.users_of_event[x.index()];
            for (i, &u) in attendees.iter().enumerate() {
                for &v in &attendees[i + 1..] {
                    if index.are_friends(u, v) {
                        // Both orderings are test cases: u looking for a
                        // partner, and v looking for a partner.
                        partner_triples.push(PartnerTriple { user: u, partner: v, event: x });
                        partner_triples.push(PartnerTriple { user: v, partner: u, event: x });
                        partner_links.push((u.min(v), u.max(v)));
                    }
                }
            }
        }
        partner_links.sort_unstable();
        partner_links.dedup();

        GroundTruth { event_cases, event_cases_validation, partner_triples, partner_links }
    }

    /// The friendship pairs to strip from the training social graph for a
    /// given scenario (empty for [`PartnerScenario::Friends`]).
    pub fn removed_friendships(&self, scenario: PartnerScenario) -> &[(UserId, UserId)] {
        match scenario {
            PartnerScenario::Friends => &[],
            PartnerScenario::PotentialFriends => &self.partner_links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tiny_dataset;
    use crate::split::SplitRatios;

    fn gt() -> (EbsnDataset, ChronoSplit, GroundTruth) {
        let d = tiny_dataset();
        // e0, e1 train; e2 test. Attendees of e2: u1, u2 (friends).
        let s = ChronoSplit::new(&d, SplitRatios { train: 0.67, validation_of_heldout: 0.0 });
        let g = GroundTruth::extract(&d, &s);
        (d, s, g)
    }

    #[test]
    fn event_cases_are_test_partition_attendance() {
        let (_, _, g) = gt();
        assert_eq!(
            g.event_cases,
            vec![
                EventRecCase { user: UserId(1), event: EventId(2) },
                EventRecCase { user: UserId(2), event: EventId(2) },
            ]
        );
        assert!(g.event_cases_validation.is_empty());
    }

    #[test]
    fn partner_triples_require_friendship_and_co_attendance() {
        let (_, _, g) = gt();
        // u1 and u2 both attend e2 and are friends → both orderings.
        assert_eq!(g.partner_triples.len(), 2);
        assert!(g.partner_triples.contains(&PartnerTriple {
            user: UserId(1),
            partner: UserId(2),
            event: EventId(2)
        }));
        assert!(g.partner_triples.contains(&PartnerTriple {
            user: UserId(2),
            partner: UserId(1),
            event: EventId(2)
        }));
        assert_eq!(g.partner_links, vec![(UserId(1), UserId(2))]);
    }

    #[test]
    fn non_friends_co_attending_are_not_partners() {
        let mut d = tiny_dataset();
        d.friendships.retain(|&(u, v)| (u, v) != (UserId(1), UserId(2)));
        let s = ChronoSplit::new(&d, SplitRatios { train: 0.67, validation_of_heldout: 0.0 });
        let g = GroundTruth::extract(&d, &s);
        assert!(g.partner_triples.is_empty());
        assert!(g.partner_links.is_empty());
    }

    #[test]
    fn scenario_selection_returns_links() {
        let (_, _, g) = gt();
        assert!(g.removed_friendships(PartnerScenario::Friends).is_empty());
        assert_eq!(
            g.removed_friendships(PartnerScenario::PotentialFriends),
            &[(UserId(1), UserId(2))]
        );
    }

    #[test]
    fn validation_cases_split_out() {
        let d = tiny_dataset();
        // e0 train; e1 validation; e2 test.
        let s = ChronoSplit::new(&d, SplitRatios { train: 0.34, validation_of_heldout: 0.5 });
        let g = GroundTruth::extract(&d, &s);
        assert_eq!(g.event_cases_validation.len(), 1);
        assert_eq!(g.event_cases_validation[0].event, EventId(1));
    }
}
