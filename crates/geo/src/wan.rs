//! Wide-area network model: distance → RTT → achievable throughput → mean
//! transfer time (MTT).
//!
//! The paper estimates MTT with the SLAC/PingER relation (\[18\] in the paper),
//! which associates a network-quality constant α ∈ (0, 1] with the achievable
//! fraction of the loss-bounded TCP throughput
//!
//! `T = α · MSS / (RTT · √p)`   (the Mathis bound scaled by α),
//!
//! where `p` is the packet-loss probability. RTT is modeled as fiber
//! propagation over an inflated route (real paths are not great circles)
//! plus a fixed equipment latency; loss grows mildly with distance.
//!
//! The absolute constants are calibrated (see "Reconstruction choices" in
//! `docs/ARCHITECTURE.md`) so the case-study MTTs land in the band implied
//! by the paper's availability results; the model preserves the properties the paper exercises:
//! monotonically increasing MTT with distance and `1/α` scaling.

use crate::city::{haversine_km, City};

/// Speed of light in optical fiber, km/s (≈ 2/3 of c).
pub const FIBER_SPEED_KM_S: f64 = 200_000.0;

/// Distance → throughput model with PingER-style parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WanModel {
    /// Ratio of routed path length to great-circle distance.
    pub route_inflation: f64,
    /// Fixed equipment/processing round-trip latency in seconds.
    pub base_rtt_s: f64,
    /// TCP maximum segment size in bytes.
    pub mss_bytes: f64,
    /// Distance-independent packet-loss probability.
    pub loss_base: f64,
    /// Additional loss probability per 1000 km of route.
    pub loss_per_1000km: f64,
}

impl Default for WanModel {
    fn default() -> Self {
        WanModel::paper_calibrated()
    }
}

impl WanModel {
    /// The calibration used for the DSN'13 case-study reproduction.
    ///
    /// Chosen so the Rio–Brasília baseline lands in the paper's ~3.5-nines
    /// band and the distance ordering/magnitudes of Table VII hold (the
    /// `table7` binary prints the side-by-side numbers).
    pub fn paper_calibrated() -> Self {
        WanModel {
            route_inflation: 1.35,
            base_rtt_s: 0.005,
            mss_bytes: 1460.0,
            loss_base: 0.007,
            loss_per_1000km: 0.0002,
        }
    }

    /// Round-trip time in seconds for a great-circle distance in km.
    pub fn rtt_s(&self, distance_km: f64) -> f64 {
        assert!(distance_km >= 0.0, "distance must be non-negative");
        2.0 * distance_km * self.route_inflation / FIBER_SPEED_KM_S + self.base_rtt_s
    }

    /// Packet-loss probability for a distance in km (capped at 1).
    pub fn loss(&self, distance_km: f64) -> f64 {
        (self.loss_base + self.loss_per_1000km * distance_km / 1000.0).min(1.0)
    }

    /// Achievable throughput in bits/s for network quality `alpha ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn throughput_bps(&self, distance_km: f64, alpha: f64) -> f64 {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1], got {alpha}");
        let rtt = self.rtt_s(distance_km);
        let p = self.loss(distance_km).max(1e-9);
        alpha * self.mss_bytes * 8.0 / (rtt * p.sqrt())
    }

    /// Mean time (in **hours**) to transfer `gigabytes` GB over the link —
    /// the paper's MTT.
    pub fn mtt_hours(&self, distance_km: f64, alpha: f64, gigabytes: f64) -> f64 {
        assert!(gigabytes >= 0.0, "size must be non-negative");
        let bits = gigabytes * 8.0e9;
        bits / self.throughput_bps(distance_km, alpha) / 3600.0
    }

    /// MTT between two cities (hours).
    pub fn mtt_between_hours(&self, a: &City, b: &City, alpha: f64, gigabytes: f64) -> f64 {
        self.mtt_hours(haversine_km(a, b), alpha, gigabytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::{BRASILIA, RIO_DE_JANEIRO, TOKYO};

    #[test]
    fn rtt_grows_linearly_with_distance() {
        let w = WanModel::paper_calibrated();
        let r1 = w.rtt_s(1000.0);
        let r2 = w.rtt_s(2000.0);
        let slope = r2 - r1;
        let r3 = w.rtt_s(3000.0);
        assert!((r3 - r2 - slope).abs() < 1e-12);
        assert!(w.rtt_s(0.0) == w.base_rtt_s);
    }

    #[test]
    fn throughput_scales_with_alpha() {
        let w = WanModel::paper_calibrated();
        let t35 = w.throughput_bps(5000.0, 0.35);
        let t45 = w.throughput_bps(5000.0, 0.45);
        assert!((t45 / t35 - 0.45 / 0.35).abs() < 1e-9);
    }

    #[test]
    fn throughput_decreases_with_distance() {
        let w = WanModel::paper_calibrated();
        let mut prev = f64::INFINITY;
        for d in [500.0, 1000.0, 5000.0, 10000.0, 20000.0] {
            let t = w.throughput_bps(d, 0.4);
            assert!(t < prev, "throughput not decreasing at {d} km");
            prev = t;
        }
    }

    #[test]
    fn mtt_proportional_to_size() {
        let w = WanModel::paper_calibrated();
        let m4 = w.mtt_hours(3000.0, 0.4, 4.0);
        let m8 = w.mtt_hours(3000.0, 0.4, 8.0);
        assert!((m8 / m4 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn case_study_band() {
        // Calibration sanity: 4 GB at α=0.35 should take single-digit hours
        // to Brasília and tens of hours to Tokyo.
        let w = WanModel::paper_calibrated();
        let mtt_bsb = w.mtt_between_hours(&RIO_DE_JANEIRO, &BRASILIA, 0.35, 4.0);
        let mtt_tyo = w.mtt_between_hours(&RIO_DE_JANEIRO, &TOKYO, 0.35, 4.0);
        assert!(
            (1.0..10.0).contains(&mtt_bsb),
            "Rio-Brasilia MTT {mtt_bsb:.2} h outside expected band"
        );
        assert!(
            (20.0..150.0).contains(&mtt_tyo),
            "Rio-Tokyo MTT {mtt_tyo:.2} h outside expected band"
        );
        assert!(mtt_tyo / mtt_bsb > 5.0, "distance effect too weak");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_validated() {
        WanModel::paper_calibrated().throughput_bps(100.0, 1.5);
    }

    #[test]
    fn loss_capped_at_one() {
        let w =
            WanModel { loss_base: 0.9, loss_per_1000km: 0.5, ..WanModel::paper_calibrated() };
        assert_eq!(w.loss(1e6), 1.0);
    }
}
