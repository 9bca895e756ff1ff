//! **Douban-Sim**: a synthetic EBSN generator.
//!
//! The paper evaluates on a proprietary crawl of Douban Event (Beijing /
//! Shanghai, 2005–2012) that is not publicly available. This module
//! generates datasets with the structural properties GEM's results depend
//! on (see DESIGN.md §1 for the substitution argument):
//!
//! 1. **Topical coherence** — events are generated from latent topics that
//!    jointly determine their *words*, *venue district* and *time profile*;
//!    users have persistent topic interests. Cold-start events are therefore
//!    predictable from content + context, which is the signal GEM exploits.
//! 2. **Spatial clustering** — venues concentrate in topic districts, so
//!    DBSCAN finds meaningful regions and users exhibit spatial regularity.
//! 3. **Temporal periodicity** — each topic prefers hours of day and
//!    weekday/weekend types, matching the paper's multi-scale slots.
//! 4. **Skewed popularity** — user activity and event audience sizes follow
//!    heavy-tailed distributions, as in real EBSNs.
//! 5. **Homophilous social graph with co-attendance** — friends share
//!    topics and join events together ("social contagion"), producing the
//!    friend-partner ground truth of §V-A.
//!
//! Presets [`SynthConfig::beijing_like`] and [`SynthConfig::shanghai_like`]
//! mirror the *relative* shape of Table I at a configurable scale
//! (default 1/20) so the full experiment suite runs on a laptop.

mod generator;

pub use generator::generate;

/// All knobs of the Douban-Sim generator.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Dataset name.
    pub name: String,
    /// Master seed; everything is deterministic given this.
    pub seed: u64,
    /// Users generated before the activity filter.
    pub num_users: usize,
    /// Events generated.
    pub num_events: usize,
    /// Venues generated.
    pub num_venues: usize,
    /// Latent topics.
    pub num_topics: usize,
    /// Topic-specific vocabulary words per topic.
    pub words_per_topic: usize,
    /// Globally shared (non-topical) vocabulary words.
    pub shared_words: usize,
    /// Words sampled per event description.
    pub words_per_event: usize,
    /// City centre (lat, lon).
    pub city_center: (f64, f64),
    /// Radius within which topic districts are placed, km.
    pub district_radius_km: f64,
    /// Venue scatter around its district centre, km (std dev).
    pub venue_jitter_km: f64,
    /// Event start times are uniform in this window (Unix seconds).
    pub time_range: (i64, i64),
    /// Mean audience size per event (log-normal around this).
    pub mean_attendees_per_event: f64,
    /// Target average friendship degree.
    pub target_friend_degree: f64,
    /// Probability a friend of an attendee joins the event (scaled by the
    /// friend's interest in the event's topic).
    pub co_attend_prob: f64,
    /// Users attending fewer events than this are dropped (paper: 5).
    pub min_events_per_user: usize,
}

impl SynthConfig {
    /// A tiny config for unit/integration tests (runs in milliseconds).
    pub fn tiny(seed: u64) -> Self {
        Self {
            name: "tiny-sim".into(),
            seed,
            num_users: 220,
            num_events: 120,
            num_venues: 40,
            num_topics: 5,
            words_per_topic: 30,
            shared_words: 20,
            words_per_event: 12,
            city_center: (39.9042, 116.4074),
            district_radius_km: 10.0,
            venue_jitter_km: 0.8,
            time_range: (1_126_000_000, 1_356_900_000), // Sep 2005 – Dec 2012
            mean_attendees_per_event: 14.0,
            target_friend_degree: 8.0,
            co_attend_prob: 0.35,
            min_events_per_user: 5,
        }
    }

    /// Beijing-shaped preset at `1/scale_divisor` of Table I's size.
    ///
    /// At the default divisor 20: ≈3.2k users, 648 events, 160 venues,
    /// ≈55k attendances, average friend degree ≈27 — the same per-entity
    /// densities as the real crawl.
    pub fn beijing_like(seed: u64, scale_divisor: usize) -> Self {
        let d = scale_divisor.max(1);
        Self {
            name: format!("beijing-sim-1/{d}"),
            seed,
            num_users: 64_113 / d,
            num_events: (12_955 / d).max(60),
            num_venues: (3_212 / d).max(30),
            num_topics: 20,
            words_per_topic: 180,
            shared_words: 120,
            words_per_event: 90,
            city_center: (39.9042, 116.4074),
            district_radius_km: 15.0,
            venue_jitter_km: 1.0,
            time_range: (1_126_000_000, 1_356_900_000),
            mean_attendees_per_event: 86.0,
            target_friend_degree: 27.0,
            co_attend_prob: 0.30,
            min_events_per_user: 5,
        }
    }

    /// Shanghai-shaped preset at `1/scale_divisor` of Table I's size.
    ///
    /// Smaller and sparser than Beijing: ≈71 attendees/event, friend degree
    /// ≈16, matching the real crawl's densities.
    pub fn shanghai_like(seed: u64, scale_divisor: usize) -> Self {
        let d = scale_divisor.max(1);
        Self {
            name: format!("shanghai-sim-1/{d}"),
            seed,
            num_users: 36_440 / d,
            num_events: (6_753 / d).max(60),
            num_venues: (1_990 / d).max(30),
            num_topics: 16,
            words_per_topic: 180,
            shared_words: 120,
            words_per_event: 90,
            city_center: (31.2304, 121.4737),
            district_radius_km: 13.0,
            venue_jitter_km: 1.0,
            time_range: (1_126_000_000, 1_356_900_000),
            mean_attendees_per_event: 71.0,
            target_friend_degree: 16.0,
            co_attend_prob: 0.30,
            min_events_per_user: 5,
        }
    }
}

/// What the generator actually produced (after the activity filter).
#[derive(Debug, Clone)]
pub struct SynthesisReport {
    /// Users surviving the `min_events_per_user` filter.
    pub num_users: usize,
    /// Events generated.
    pub num_events: usize,
    /// Attendance records.
    pub num_attendances: usize,
    /// Friendship links among surviving users.
    pub num_friendships: usize,
    /// Users dropped by the activity filter.
    pub users_filtered: usize,
    /// Average events per surviving user.
    pub avg_events_per_user: f64,
    /// Average audience per event.
    pub avg_attendees_per_event: f64,
}
