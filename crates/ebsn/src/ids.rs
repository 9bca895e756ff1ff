//! Typed dense identifiers.
//!
//! All entities are identified by dense `u32` newtypes so they can directly
//! index embedding rows and adjacency arrays (perf-book guidance: dense
//! arrays over hash maps on hot paths). The newtypes prevent the classic
//! "passed a user id where an event id was expected" bug at compile time.

macro_rules! dense_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The id as a usize index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Construct from a usize index.
            ///
            /// # Panics
            /// Panics if `idx` exceeds `u32::MAX`.
            #[inline]
            pub fn from_index(idx: usize) -> Self {
                assert!(idx <= u32::MAX as usize, "id overflow: {idx}");
                Self(idx as u32)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }
    };
}

dense_id!(
    /// A user (member of the EBSN).
    UserId
);
dense_id!(
    /// A social event.
    EventId
);
dense_id!(
    /// A physical venue (raw coordinate; input to DBSCAN).
    VenueId
);
dense_id!(
    /// A spatial region produced by DBSCAN over venue coordinates.
    RegionId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_index() {
        let u = UserId::from_index(42);
        assert_eq!(u.index(), 42);
        assert_eq!(u, UserId(42));
    }

    #[test]
    fn display_is_tagged() {
        assert_eq!(EventId(7).to_string(), "EventId#7");
    }

    #[test]
    fn ordering_follows_numeric_value() {
        assert!(UserId(1) < UserId(2));
        assert!(RegionId(10) > RegionId(9));
    }

    #[test]
    fn ids_of_different_types_do_not_unify() {
        // This is a compile-time property; the test documents it.
        fn takes_user(_: UserId) {}
        takes_user(UserId(0));
        // takes_user(EventId(0)); // must not compile
    }
}
