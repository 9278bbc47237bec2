//! WGS-84 latitude/longitude coordinates and great-circle math.

use crate::EARTH_RADIUS_M;
use serde::{Deserialize, Serialize};

/// A geographic coordinate in decimal degrees (WGS-84 datum).
///
/// Latitude is clamped conceptually to `[-90, 90]`, longitude to
/// `(-180, 180]`; [`LatLon::new`] normalizes longitude and debug-asserts the
/// latitude range. All great-circle computations use a spherical Earth with
/// [`EARTH_RADIUS_M`], which is accurate to ~0.5% — far below the 500 m
/// matching threshold and the multi-km GPS error bounds the paper discusses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatLon {
    /// Latitude in decimal degrees, positive north.
    pub lat: f64,
    /// Longitude in decimal degrees, positive east.
    pub lon: f64,
}

impl LatLon {
    /// Create a coordinate, normalizing longitude into `(-180, 180]`.
    ///
    /// # Panics
    ///
    /// Debug-panics unless [`LatLon::is_valid`] accepts `(lat, lon)`.
    pub fn new(lat: f64, lon: f64) -> Self {
        debug_assert!(Self::is_valid(lat, lon), "invalid coordinate ({lat}, {lon})");
        let mut lon = (lon + 180.0).rem_euclid(360.0) - 180.0;
        if lon == -180.0 {
            lon = 180.0;
        }
        Self { lat, lon }
    }

    /// Whether [`LatLon::new`] accepts `(lat, lon)`: both values finite and
    /// `lat` within `[-90, 90]`. Longitude is normalized, so any finite
    /// value passes.
    pub fn is_valid(lat: f64, lon: f64) -> bool {
        lat.is_finite() && lon.is_finite() && (-90.0..=90.0).contains(&lat)
    }

    /// Great-circle distance to `other` in meters (haversine formula).
    ///
    /// Numerically stable for nearby points, which is the dominant case in
    /// visit detection (per-minute GPS samples move tens of meters).
    pub fn haversine_m(self, other: LatLon) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().min(1.0).asin()
    }

    /// Initial bearing from `self` toward `other`, in degrees clockwise from
    /// true north, in `[0, 360)`.
    pub fn bearing_deg(self, other: LatLon) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlon = lon2 - lon1;
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        (y.atan2(x).to_degrees() + 360.0) % 360.0
    }

    /// The point reached by traveling `distance_m` meters from `self` along
    /// the initial bearing `bearing_deg` (degrees clockwise from north).
    pub fn destination(self, bearing_deg: f64, distance_m: f64) -> LatLon {
        let delta = distance_m / EARTH_RADIUS_M;
        let theta = bearing_deg.to_radians();
        let lat1 = self.lat.to_radians();
        let lon1 = self.lon.to_radians();
        let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
        let lon2 = lon1
            + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
        LatLon::new(lat2.to_degrees(), lon2.to_degrees())
    }

    /// Midpoint of the great-circle segment between `self` and `other`.
    pub fn midpoint(self, other: LatLon) -> LatLon {
        let d = self.haversine_m(other);
        if d < 1e-9 {
            return self;
        }
        self.destination(self.bearing_deg(other), d / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SB: LatLon = LatLon { lat: 34.4208, lon: -119.6982 }; // Santa Barbara
    const LA: LatLon = LatLon { lat: 34.0522, lon: -118.2437 }; // Los Angeles

    #[test]
    fn haversine_zero_for_identical_points() {
        assert_eq!(SB.haversine_m(SB), 0.0);
    }

    #[test]
    fn haversine_symmetry() {
        assert!((SB.haversine_m(LA) - LA.haversine_m(SB)).abs() < 1e-9);
    }

    #[test]
    fn haversine_known_distance() {
        // SB to LA is about 140 km as the crow flies.
        let d = SB.haversine_m(LA);
        assert!((d - 140_000.0).abs() < 5_000.0, "got {d}");
    }

    #[test]
    fn haversine_small_distance_precision() {
        // ~111.32 m per 0.001 degree of latitude.
        let a = LatLon::new(34.0, -119.0);
        let b = LatLon::new(34.001, -119.0);
        let d = a.haversine_m(b);
        assert!((d - 111.2).abs() < 0.5, "got {d}");
    }

    #[test]
    fn bearing_cardinal_directions() {
        let origin = LatLon::new(0.0, 0.0);
        assert!((origin.bearing_deg(LatLon::new(1.0, 0.0)) - 0.0).abs() < 1e-6);
        assert!((origin.bearing_deg(LatLon::new(0.0, 1.0)) - 90.0).abs() < 1e-6);
        assert!((origin.bearing_deg(LatLon::new(-1.0, 0.0)) - 180.0).abs() < 1e-6);
        assert!((origin.bearing_deg(LatLon::new(0.0, -1.0)) - 270.0).abs() < 1e-6);
    }

    #[test]
    fn destination_round_trip() {
        for bearing in [0.0, 37.0, 123.4, 270.0] {
            for dist in [10.0, 500.0, 50_000.0] {
                let dest = SB.destination(bearing, dist);
                let measured = SB.haversine_m(dest);
                assert!(
                    (measured - dist).abs() < dist * 1e-6 + 1e-6,
                    "bearing {bearing} dist {dist} measured {measured}"
                );
            }
        }
    }

    #[test]
    fn longitude_normalization() {
        let p = LatLon::new(10.0, 190.0);
        assert!((p.lon - -170.0).abs() < 1e-12);
        let q = LatLon::new(10.0, -540.0);
        assert!((q.lon - 180.0).abs() < 1e-12);
    }

    #[test]
    fn midpoint_is_equidistant() {
        let m = SB.midpoint(LA);
        let d1 = SB.haversine_m(m);
        let d2 = LA.haversine_m(m);
        assert!((d1 - d2).abs() < 1.0, "d1 {d1} d2 {d2}");
    }
}
