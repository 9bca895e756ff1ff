//! Validated geographic coordinates and great-circle distance.

/// Mean Earth radius in kilometres (IUGG).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Errors from constructing a [`GeoPoint`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeoError {
    /// Latitude outside `[-90, 90]` or non-finite.
    BadLatitude(
        /// the offending value
        f64,
    ),
    /// Longitude outside `[-180, 180]` or non-finite.
    BadLongitude(
        /// the offending value
        f64,
    ),
}

impl std::fmt::Display for GeoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeoError::BadLatitude(v) => write!(f, "latitude {v} outside [-90, 90]"),
            GeoError::BadLongitude(v) => write!(f, "longitude {v} outside [-180, 180]"),
        }
    }
}

impl std::error::Error for GeoError {}

/// A point on the Earth's surface in decimal degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    lat: f64,
    lon: f64,
}

impl GeoPoint {
    /// Construct with validation.
    pub fn new(lat: f64, lon: f64) -> Result<Self, GeoError> {
        if !lat.is_finite() || !(-90.0..=90.0).contains(&lat) {
            return Err(GeoError::BadLatitude(lat));
        }
        if !lon.is_finite() || !(-180.0..=180.0).contains(&lon) {
            return Err(GeoError::BadLongitude(lon));
        }
        Ok(Self { lat, lon })
    }

    /// Latitude in degrees.
    #[inline]
    pub fn lat(&self) -> f64 {
        self.lat
    }

    /// Longitude in degrees.
    #[inline]
    pub fn lon(&self) -> f64 {
        self.lon
    }

    /// Great-circle distance to another point in kilometres.
    #[inline]
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        haversine_km(self, other)
    }
}

/// Haversine great-circle distance between two points, in kilometres.
///
/// Accurate to ~0.5% (it assumes a spherical Earth), which is far below the
/// ε values (hundreds of metres to a few km) used for region clustering.
pub fn haversine_km(a: &GeoPoint, b: &GeoPoint) -> f64 {
    let lat1 = a.lat.to_radians();
    let lat2 = b.lat.to_radians();
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    // Clamp against floating point drift before asin.
    2.0 * EARTH_RADIUS_KM * h.sqrt().min(1.0).asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = p(39.9042, 116.4074); // Beijing
        assert_eq!(haversine_km(&a, &a), 0.0);
    }

    #[test]
    fn beijing_to_shanghai_is_about_1068km() {
        let beijing = p(39.9042, 116.4074);
        let shanghai = p(31.2304, 121.4737);
        let d = haversine_km(&beijing, &shanghai);
        assert!((d - 1068.0).abs() < 10.0, "distance {d}");
    }

    #[test]
    fn distance_is_symmetric() {
        let a = p(10.0, 20.0);
        let b = p(-33.3, 151.2);
        assert!((haversine_km(&a, &b) - haversine_km(&b, &a)).abs() < 1e-9);
    }

    #[test]
    fn one_degree_latitude_is_about_111km() {
        let a = p(0.0, 0.0);
        let b = p(1.0, 0.0);
        let d = haversine_km(&a, &b);
        assert!((d - 111.2).abs() < 0.5, "distance {d}");
    }

    #[test]
    fn antipodal_points_are_half_circumference() {
        let a = p(0.0, 0.0);
        let b = p(0.0, 180.0);
        let d = haversine_km(&a, &b);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1.0, "distance {d} vs {half}");
    }

    #[test]
    fn validation_rejects_bad_coordinates() {
        assert_eq!(GeoPoint::new(91.0, 0.0), Err(GeoError::BadLatitude(91.0)));
        assert_eq!(GeoPoint::new(-90.5, 0.0), Err(GeoError::BadLatitude(-90.5)));
        assert_eq!(GeoPoint::new(0.0, 181.0), Err(GeoError::BadLongitude(181.0)));
        assert!(GeoPoint::new(f64::NAN, 0.0).is_err());
        assert!(GeoPoint::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn boundary_coordinates_are_accepted() {
        assert!(GeoPoint::new(90.0, 180.0).is_ok());
        assert!(GeoPoint::new(-90.0, -180.0).is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn distance_is_nonnegative_and_bounded(
            lat1 in -90.0f64..90.0, lon1 in -180.0f64..180.0,
            lat2 in -90.0f64..90.0, lon2 in -180.0f64..180.0,
        ) {
            let a = GeoPoint::new(lat1, lon1).unwrap();
            let b = GeoPoint::new(lat2, lon2).unwrap();
            let d = haversine_km(&a, &b);
            prop_assert!(d >= 0.0);
            // No two points are farther apart than half the circumference.
            prop_assert!(d <= std::f64::consts::PI * EARTH_RADIUS_KM + 1e-6);
        }

        #[test]
        fn triangle_inequality_holds(
            lat1 in -80.0f64..80.0, lon1 in -170.0f64..170.0,
            lat2 in -80.0f64..80.0, lon2 in -170.0f64..170.0,
            lat3 in -80.0f64..80.0, lon3 in -170.0f64..170.0,
        ) {
            let a = GeoPoint::new(lat1, lon1).unwrap();
            let b = GeoPoint::new(lat2, lon2).unwrap();
            let c = GeoPoint::new(lat3, lon3).unwrap();
            let ab = haversine_km(&a, &b);
            let bc = haversine_km(&b, &c);
            let ac = haversine_km(&a, &c);
            prop_assert!(ac <= ab + bc + 1e-6, "ac={ac} ab={ab} bc={bc}");
        }
    }
}
