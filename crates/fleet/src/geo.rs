//! Geo routing: a latency-biased front door over multiple regional
//! fleets.
//!
//! A [`GeoRouter`] sits one level above the per-region [`crate::Router`]:
//! it picks *which region* serves a request, the regional router then
//! picks the node. Placement is latency-biased — every tenant has a home
//! region (the one closest to its users) and stays there while it is
//! alive. When a region is lost, its tenants fail over to the nearest
//! surviving region and each cross-region offer pays one inter-region
//! round trip; the serving engine layers cache handoff and backlog
//! redelivery on top of this primitive.
//!
//! Region lifecycle transitions are fallible values, never panics: a
//! scripted `RegionLoss` that names a dead or unknown region, or would
//! black-hole all traffic by downing the last region, surfaces a typed
//! [`GeoError`] the control plane can decline.

use std::fmt;

use modm_simkit::SimDuration;
use modm_workload::TenantId;

/// Why a [`GeoRouter`] lifecycle transition was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum GeoError {
    /// The region id does not exist in this topology.
    UnknownRegion(usize),
    /// The region is already marked lost.
    AlreadyLost(usize),
    /// Losing the region would leave no region alive.
    LastAliveRegion,
}

impl fmt::Display for GeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeoError::UnknownRegion(r) => write!(f, "unknown region {r}"),
            GeoError::AlreadyLost(r) => write!(f, "region {r} already lost"),
            GeoError::LastAliveRegion => write!(f, "cannot lose the last alive region"),
        }
    }
}

impl std::error::Error for GeoError {}

/// A latency-biased region selector over a multi-region topology.
///
/// # Example
///
/// ```
/// use modm_fleet::GeoRouter;
/// use modm_simkit::SimDuration;
/// use modm_workload::TenantId;
///
/// let mut geo = GeoRouter::new(2, SimDuration::from_secs_f64(0.08));
/// // Tenants home to alternating regions.
/// assert_eq!(geo.target_region(TenantId(1)), (1, false));
/// assert_eq!(geo.target_region(TenantId(2)), (0, false));
/// // Losing region 1 fails its tenants over, at an RTT penalty.
/// geo.fail_region(1).unwrap();
/// assert_eq!(geo.target_region(TenantId(1)), (0, true));
/// assert!(geo.fail_region(0).is_err(), "never black-hole all traffic");
/// ```
#[derive(Debug, Clone)]
pub struct GeoRouter {
    alive: Vec<bool>,
    rtt: SimDuration,
}

impl GeoRouter {
    /// Builds a topology of `regions` regions, all alive, with one
    /// inter-region round trip costing `rtt`.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is zero.
    pub fn new(regions: usize, rtt: SimDuration) -> Self {
        assert!(regions > 0, "topology needs at least one region");
        GeoRouter {
            alive: vec![true; regions],
            rtt,
        }
    }

    /// Total regions in the topology (alive or lost).
    pub fn regions(&self) -> usize {
        self.alive.len()
    }

    /// Number of regions currently alive.
    pub fn alive_regions(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// True when `region` exists and is alive.
    pub fn is_alive(&self, region: usize) -> bool {
        self.alive.get(region).copied().unwrap_or(false)
    }

    /// The inter-region round-trip cost a cross-region offer pays.
    pub fn rtt(&self) -> SimDuration {
        self.rtt
    }

    /// The region closest to `tenant`'s users — where it is served while
    /// the region is alive. Tenants stripe over regions by id.
    pub fn home_region(&self, tenant: TenantId) -> usize {
        tenant.0 as usize % self.alive.len()
    }

    /// The region that serves `tenant` right now, and whether reaching it
    /// crosses regions (home lost → nearest surviving region, scanning
    /// outward from home so failover targets are deterministic).
    pub fn target_region(&self, tenant: TenantId) -> (usize, bool) {
        let home = self.home_region(tenant);
        if self.alive[home] {
            return (home, false);
        }
        let n = self.alive.len();
        for step in 1..n {
            let candidate = (home + step) % n;
            if self.alive[candidate] {
                return (candidate, true);
            }
        }
        unreachable!("fail_region never downs the last alive region")
    }

    /// Marks `region` lost: its tenants fail over on the next offer.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::UnknownRegion`], [`GeoError::AlreadyLost`] or
    /// [`GeoError::LastAliveRegion`]; the topology is unchanged on error.
    pub fn fail_region(&mut self, region: usize) -> Result<(), GeoError> {
        match self.alive.get(region) {
            None => return Err(GeoError::UnknownRegion(region)),
            Some(false) => return Err(GeoError::AlreadyLost(region)),
            Some(true) => {}
        }
        if self.alive_regions() <= 1 {
            return Err(GeoError::LastAliveRegion);
        }
        self.alive[region] = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_region() -> GeoRouter {
        GeoRouter::new(2, SimDuration::from_secs_f64(0.08))
    }

    #[test]
    fn tenants_stripe_over_home_regions() {
        let geo = two_region();
        assert_eq!(geo.home_region(TenantId(1)), 1);
        assert_eq!(geo.home_region(TenantId(2)), 0);
        assert_eq!(geo.home_region(TenantId(3)), 1);
        assert_eq!(geo.target_region(TenantId(2)), (0, false));
    }

    #[test]
    fn failover_crosses_to_nearest_survivor() {
        let mut geo = two_region();
        geo.fail_region(0).unwrap();
        assert_eq!(geo.target_region(TenantId(2)), (1, true));
        assert_eq!(geo.target_region(TenantId(1)), (1, false), "home survives");
        assert_eq!(geo.alive_regions(), 1);
    }

    #[test]
    fn lifecycle_transitions_are_typed_results() {
        let mut geo = two_region();
        assert_eq!(geo.fail_region(7).unwrap_err(), GeoError::UnknownRegion(7));
        geo.fail_region(1).unwrap();
        assert_eq!(geo.fail_region(1).unwrap_err(), GeoError::AlreadyLost(1));
        assert_eq!(geo.fail_region(0).unwrap_err(), GeoError::LastAliveRegion);
        assert!(geo.is_alive(0));
        assert!(!geo.is_alive(1));
        assert!(!geo.is_alive(9), "out-of-range is never alive");
    }

    #[test]
    fn three_region_failover_scans_outward_from_home() {
        let mut geo = GeoRouter::new(3, SimDuration::from_secs_f64(0.05));
        // Tenant 1 homes to region 1; with 1 lost it fails to region 2
        // (the next ring neighbour), not region 0.
        geo.fail_region(1).unwrap();
        assert_eq!(geo.target_region(TenantId(1)), (2, true));
        geo.fail_region(2).unwrap();
        assert_eq!(geo.target_region(TenantId(1)), (0, true));
    }
}
