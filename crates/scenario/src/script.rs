//! Scenario scripts: typed, timed adversarial actions over a base
//! multi-tenant workload.
//!
//! A [`ScenarioScript`] is a declarative plan: a base tenant mix served
//! over a fixed horizon, plus a list of [`ScenarioAction`]s that fire at
//! scripted virtual times — a [`ScenarioAction::FlashCrowd`] multiplies
//! one tenant's arrival rate, [`ScenarioAction::TenantJoin`] /
//! [`ScenarioAction::TenantLeave`] churn the tenant set (rewriting the
//! live [`TenancyPolicy`] — WFQ weights, rate limits and cache reserves
//! — on every node and shard mid-run), and
//! [`ScenarioAction::RegionLoss`] kills a whole region.
//!
//! Scripts are *validated before the run*: [`ScenarioScript::validate`]
//! replays the policy evolution through `modm_core`'s
//! [`validate_tenancy`] and the region state machine, so a script that
//! would overcommit cache reserves at minute 40 or lose the last region
//! is a typed [`ScenarioError`] at construction, never a mid-run panic.
//! The engine then consumes two lowered views: the workload side
//! ([`ScenarioScript::workload_tenants`], folded into trace generation)
//! and the control side ([`ScenarioScript::control_timeline`], replayed
//! as timed control events).

use std::fmt;

use modm_controlplane::ControlAction;
use modm_core::{validate_tenancy, ConfigError, TenancyPolicy, TenantShare};
use modm_workload::{RateSchedule, TenantId, TenantMix};

/// One timed adversarial action.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioAction {
    /// Multiplies `tenant`'s arrival rate by `multiplier` over
    /// `[at_mins, at_mins + duration_mins)` — a flash crowd on one
    /// tenant while the rest of the mix stays constant.
    FlashCrowd {
        /// The tenant that goes viral.
        tenant: TenantId,
        /// When the crowd arrives, minutes into the run.
        at_mins: f64,
        /// How long the surge lasts, in minutes.
        duration_mins: f64,
        /// Rate multiplier during the surge (>= 1).
        multiplier: f64,
    },
    /// A new tenant joins mid-run: its traffic starts at `at_mins` and
    /// the live tenancy policy gains its WFQ share, cache reserve and
    /// optional rate limit at the same instant.
    TenantJoin {
        /// When the tenant's traffic (and policy entry) appears.
        at_mins: f64,
        /// The joining tenant's workload slice (rate, QoS class).
        mix: TenantMix,
        /// Its WFQ weight within its QoS class.
        weight: f64,
        /// Cache entries reserved for it on every shard.
        cache_reserve: usize,
        /// Optional admission token bucket `(rate_per_min, burst)`.
        rate_limit: Option<(f64, f64)>,
    },
    /// `tenant` leaves at `at_mins`: its traffic stops and its share,
    /// reserve and rate limit are removed from the live policy (the
    /// freed weight and reserve rebalance to the remaining tenants).
    TenantLeave {
        /// When the tenant departs.
        at_mins: f64,
        /// The departing tenant.
        tenant: TenantId,
    },
    /// Region `region` is lost wholesale at `at_mins`: every node, queue
    /// and cache shard in it is gone. The engine redelivers its backlog
    /// to the surviving region and hands off the hottest cache entries.
    RegionLoss {
        /// When the region disappears.
        at_mins: f64,
        /// The region to kill.
        region: usize,
    },
}

impl ScenarioAction {
    /// When the action fires, minutes into the run.
    pub fn at_mins(&self) -> f64 {
        match self {
            ScenarioAction::FlashCrowd { at_mins, .. }
            | ScenarioAction::TenantJoin { at_mins, .. }
            | ScenarioAction::TenantLeave { at_mins, .. }
            | ScenarioAction::RegionLoss { at_mins, .. } => *at_mins,
        }
    }
}

/// Why a script failed validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// An action names a tenant that is not active at its fire time.
    UnknownTenant(TenantId),
    /// A join would duplicate an already-active tenant (or the base mix
    /// itself lists a tenant twice).
    DuplicateTenant(TenantId),
    /// An action fires outside `[0, horizon)`.
    OutOfHorizon {
        /// The offending fire time.
        at_mins: f64,
        /// The script's horizon.
        horizon_mins: f64,
    },
    /// A tenant is scripted to leave at or before the time it joins.
    LeaveBeforeJoin(TenantId),
    /// A region loss names a region outside the topology.
    UnknownRegion(usize),
    /// A region loss names a region that an earlier action already lost.
    RegionAlreadyLost(usize),
    /// A region loss would leave no region alive.
    LastRegion,
    /// A join's policy rewrite fails `modm_core` validation (e.g. the
    /// new cache reserve overcommits the shard capacity).
    InvalidPolicy(ConfigError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownTenant(t) => write!(f, "action names unknown tenant {t}"),
            ScenarioError::DuplicateTenant(t) => write!(f, "tenant {t} is already active"),
            ScenarioError::OutOfHorizon {
                at_mins,
                horizon_mins,
            } => write!(
                f,
                "action at minute {at_mins} is outside the {horizon_mins}-minute horizon"
            ),
            ScenarioError::LeaveBeforeJoin(t) => {
                write!(f, "tenant {t} is scripted to leave before it joins")
            }
            ScenarioError::UnknownRegion(r) => write!(f, "unknown region {r}"),
            ScenarioError::RegionAlreadyLost(r) => write!(f, "region {r} is already lost"),
            ScenarioError::LastRegion => f.write_str("cannot lose the last alive region"),
            ScenarioError::InvalidPolicy(e) => write!(f, "policy rewrite is invalid: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::InvalidPolicy(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ScenarioError {
    fn from(e: ConfigError) -> Self {
        ScenarioError::InvalidPolicy(e)
    }
}

/// A timed adversarial plan over a base tenant mix.
///
/// # Example
///
/// ```
/// use modm_scenario::{ScenarioAction, ScenarioScript};
/// use modm_workload::{QosClass, TenantId, TenantMix};
///
/// let script = ScenarioScript::new(
///     60.0,
///     vec![
///         TenantMix::new(TenantId(1), QosClass::Interactive, 6.0),
///         TenantMix::new(TenantId(2), QosClass::Standard, 6.0),
///     ],
/// )
/// .with_action(ScenarioAction::FlashCrowd {
///     tenant: TenantId(2),
///     at_mins: 20.0,
///     duration_mins: 10.0,
///     multiplier: 10.0,
/// });
/// assert_eq!(script.actions().len(), 1);
/// let mix = script.workload_tenants();
/// assert!(mix[1].schedule.is_some(), "the crowd became a rate spike");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioScript {
    horizon_mins: f64,
    tenants: Vec<TenantMix>,
    actions: Vec<ScenarioAction>,
}

impl ScenarioScript {
    /// A script serving `tenants` over `horizon_mins` minutes, with no
    /// adversarial actions yet.
    ///
    /// # Panics
    ///
    /// Panics if the horizon is not positive or the mix is empty.
    pub fn new(horizon_mins: f64, tenants: Vec<TenantMix>) -> Self {
        assert!(horizon_mins > 0.0, "horizon must be positive");
        assert!(!tenants.is_empty(), "script needs a base tenant mix");
        ScenarioScript {
            horizon_mins,
            tenants,
            actions: Vec::new(),
        }
    }

    /// Appends an action (builder style).
    #[must_use]
    pub fn with_action(mut self, action: ScenarioAction) -> Self {
        self.actions.push(action);
        self
    }

    /// The run horizon in minutes.
    pub fn horizon_mins(&self) -> f64 {
        self.horizon_mins
    }

    /// The base tenant mix.
    pub fn tenants(&self) -> &[TenantMix] {
        &self.tenants
    }

    /// The scripted actions, in authoring order.
    pub fn actions(&self) -> &[ScenarioAction] {
        &self.actions
    }

    /// The actions in fire order (stable for equal times, so authoring
    /// order breaks ties deterministically).
    fn sorted_actions(&self) -> Vec<&ScenarioAction> {
        let mut sorted: Vec<&ScenarioAction> = self.actions.iter().collect();
        sorted.sort_by(|a, b| a.at_mins().total_cmp(&b.at_mins()));
        sorted
    }

    /// Checks the whole script against the deployment it will run on:
    /// every action fires inside the horizon and names live tenants /
    /// regions, and every policy rewrite the churn actions imply passes
    /// [`validate_tenancy`] against `cache_capacity`. `base_policy` is
    /// the deployment's tenancy policy at minute zero; `regions` the
    /// topology size.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] in fire order.
    pub fn validate(
        &self,
        base_policy: &TenancyPolicy,
        cache_capacity: usize,
        regions: usize,
    ) -> Result<(), ScenarioError> {
        let mut active: Vec<TenantId> = self.tenants.iter().map(|m| m.tenant).collect();
        for (i, t) in active.iter().enumerate() {
            if active[..i].contains(t) {
                return Err(ScenarioError::DuplicateTenant(*t));
            }
        }
        let mut joined_at: Vec<(TenantId, f64)> = Vec::new();
        let mut policy = base_policy.clone();
        let mut lost = vec![false; regions];
        for action in self.sorted_actions() {
            let at = action.at_mins();
            if !(0.0..self.horizon_mins).contains(&at) {
                return Err(ScenarioError::OutOfHorizon {
                    at_mins: at,
                    horizon_mins: self.horizon_mins,
                });
            }
            match action {
                ScenarioAction::FlashCrowd { tenant, .. }
                | ScenarioAction::TenantLeave { tenant, .. } => {
                    if !active.contains(tenant) {
                        return Err(ScenarioError::UnknownTenant(*tenant));
                    }
                    if let ScenarioAction::TenantLeave { tenant, at_mins } = action {
                        if joined_at.iter().any(|(t, j)| t == tenant && *j >= *at_mins) {
                            return Err(ScenarioError::LeaveBeforeJoin(*tenant));
                        }
                        active.retain(|t| t != tenant);
                        policy.shares.retain(|s| s.tenant != *tenant);
                        policy.rate_limits.retain(|l| l.tenant != *tenant);
                    }
                }
                ScenarioAction::TenantJoin {
                    at_mins,
                    mix,
                    weight,
                    cache_reserve,
                    rate_limit,
                } => {
                    if active.contains(&mix.tenant) {
                        return Err(ScenarioError::DuplicateTenant(mix.tenant));
                    }
                    active.push(mix.tenant);
                    joined_at.push((mix.tenant, *at_mins));
                    policy.shares.push(
                        TenantShare::new(mix.tenant, *weight).with_cache_reserve(*cache_reserve),
                    );
                    if let Some((rate, burst)) = rate_limit {
                        policy = policy.with_rate_limit(mix.tenant, *rate, *burst);
                    }
                    validate_tenancy(&policy, cache_capacity)?;
                }
                ScenarioAction::RegionLoss { region, .. } => {
                    if *region >= regions {
                        return Err(ScenarioError::UnknownRegion(*region));
                    }
                    if lost[*region] {
                        return Err(ScenarioError::RegionAlreadyLost(*region));
                    }
                    if lost.iter().filter(|l| !**l).count() <= 1 {
                        return Err(ScenarioError::LastRegion);
                    }
                    lost[*region] = true;
                }
            }
        }
        Ok(())
    }

    /// Lowers the script's workload side into a tenant mix for trace
    /// generation: flash crowds become [`RateSchedule::spike`]s, joins
    /// become late activity windows, leaves clip windows early.
    ///
    /// # Panics
    ///
    /// Panics on an invalid flash crowd (non-positive base rate or
    /// duration, multiplier below one) — run
    /// [`ScenarioScript::validate`] first for the typed checks.
    pub fn workload_tenants(&self) -> Vec<TenantMix> {
        let mut out = self.tenants.clone();
        for action in self.sorted_actions() {
            match action {
                ScenarioAction::FlashCrowd {
                    tenant,
                    at_mins,
                    duration_mins,
                    multiplier,
                } => {
                    let mix = out
                        .iter_mut()
                        .find(|m| m.tenant == *tenant)
                        .expect("validate checked the tenant exists");
                    mix.schedule = Some(RateSchedule::spike(
                        mix.rate_per_min,
                        *multiplier,
                        *at_mins,
                        *duration_mins,
                    ));
                }
                ScenarioAction::TenantJoin { at_mins, mix, .. } => {
                    out.push(mix.clone().with_window(*at_mins, self.horizon_mins));
                }
                ScenarioAction::TenantLeave { at_mins, tenant } => {
                    let mix = out
                        .iter_mut()
                        .find(|m| m.tenant == *tenant)
                        .expect("validate checked the tenant exists");
                    let start = mix.window_mins.map_or(0.0, |(s, _)| s);
                    mix.window_mins = Some((start, *at_mins));
                }
                ScenarioAction::RegionLoss { .. } => {}
            }
        }
        out
    }

    /// Lowers the script's control side into timed [`ControlAction`]s:
    /// each join/leave yields the full policy snapshot to swap in at its
    /// fire time (evolved from `base_policy`), each region loss yields a
    /// kill order. Flash crowds are workload-only and yield nothing.
    pub fn control_timeline(&self, base_policy: &TenancyPolicy) -> Vec<(f64, ControlAction)> {
        let mut policy = base_policy.clone();
        let mut out = Vec::new();
        for action in self.sorted_actions() {
            match action {
                ScenarioAction::FlashCrowd { .. } => {}
                ScenarioAction::TenantJoin {
                    at_mins,
                    mix,
                    weight,
                    cache_reserve,
                    rate_limit,
                } => {
                    policy.shares.push(
                        TenantShare::new(mix.tenant, *weight).with_cache_reserve(*cache_reserve),
                    );
                    if let Some((rate, burst)) = rate_limit {
                        policy = policy.with_rate_limit(mix.tenant, *rate, *burst);
                    }
                    out.push((*at_mins, ControlAction::Policy(policy.clone())));
                }
                ScenarioAction::TenantLeave { at_mins, tenant } => {
                    policy.shares.retain(|s| s.tenant != *tenant);
                    policy.rate_limits.retain(|l| l.tenant != *tenant);
                    out.push((*at_mins, ControlAction::Policy(policy.clone())));
                }
                ScenarioAction::RegionLoss { at_mins, region } => {
                    out.push((*at_mins, ControlAction::RegionLoss(*region)));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_workload::QosClass;

    fn base() -> Vec<TenantMix> {
        vec![
            TenantMix::new(TenantId(1), QosClass::Interactive, 6.0),
            TenantMix::new(TenantId(2), QosClass::Standard, 6.0),
        ]
    }

    fn join(at: f64, tenant: u16, reserve: usize) -> ScenarioAction {
        ScenarioAction::TenantJoin {
            at_mins: at,
            mix: TenantMix::new(TenantId(tenant), QosClass::Standard, 4.0),
            weight: 1.0,
            cache_reserve: reserve,
            rate_limit: None,
        }
    }

    #[test]
    fn validate_walks_the_policy_evolution() {
        let policy = TenancyPolicy::fifo();
        let ok = ScenarioScript::new(60.0, base())
            .with_action(join(10.0, 3, 50))
            .with_action(ScenarioAction::TenantLeave {
                at_mins: 40.0,
                tenant: TenantId(3),
            });
        assert!(ok.validate(&policy, 400, 2).is_ok());

        // A join whose reserve overcommits the shard is typed, not a panic.
        let over = ScenarioScript::new(60.0, base()).with_action(join(10.0, 3, 500));
        assert!(matches!(
            over.validate(&policy, 400, 2),
            Err(ScenarioError::InvalidPolicy(_))
        ));

        let dup = ScenarioScript::new(60.0, base()).with_action(join(10.0, 2, 0));
        assert_eq!(
            dup.validate(&policy, 400, 2),
            Err(ScenarioError::DuplicateTenant(TenantId(2)))
        );

        let ghost = ScenarioScript::new(60.0, base()).with_action(ScenarioAction::TenantLeave {
            at_mins: 10.0,
            tenant: TenantId(9),
        });
        assert_eq!(
            ghost.validate(&policy, 400, 2),
            Err(ScenarioError::UnknownTenant(TenantId(9)))
        );

        let early = ScenarioScript::new(60.0, base())
            .with_action(join(30.0, 3, 0))
            .with_action(ScenarioAction::TenantLeave {
                at_mins: 20.0,
                tenant: TenantId(3),
            });
        assert_eq!(
            early.validate(&policy, 400, 2),
            Err(ScenarioError::UnknownTenant(TenantId(3))),
            "in fire order the leave precedes the join"
        );

        let late = ScenarioScript::new(60.0, base()).with_action(ScenarioAction::RegionLoss {
            at_mins: 90.0,
            region: 0,
        });
        assert!(matches!(
            late.validate(&policy, 400, 2),
            Err(ScenarioError::OutOfHorizon { .. })
        ));
    }

    #[test]
    fn region_losses_never_black_hole() {
        let policy = TenancyPolicy::fifo();
        let s = |regions: Vec<usize>| {
            let mut script = ScenarioScript::new(60.0, base());
            for (i, r) in regions.into_iter().enumerate() {
                script = script.with_action(ScenarioAction::RegionLoss {
                    at_mins: 10.0 + i as f64,
                    region: r,
                });
            }
            script
        };
        assert!(s(vec![1]).validate(&policy, 400, 2).is_ok());
        assert_eq!(
            s(vec![7]).validate(&policy, 400, 2),
            Err(ScenarioError::UnknownRegion(7))
        );
        assert_eq!(
            s(vec![1, 1]).validate(&policy, 400, 2),
            Err(ScenarioError::RegionAlreadyLost(1))
        );
        assert_eq!(
            s(vec![1, 0]).validate(&policy, 400, 2),
            Err(ScenarioError::LastRegion)
        );
    }

    #[test]
    fn workload_lowering_folds_actions_into_the_mix() {
        let script = ScenarioScript::new(60.0, base())
            .with_action(ScenarioAction::FlashCrowd {
                tenant: TenantId(2),
                at_mins: 20.0,
                duration_mins: 10.0,
                multiplier: 8.0,
            })
            .with_action(join(30.0, 3, 0))
            .with_action(ScenarioAction::TenantLeave {
                at_mins: 50.0,
                tenant: TenantId(3),
            });
        let mix = script.workload_tenants();
        assert_eq!(mix.len(), 3);
        assert!(mix[0].schedule.is_none());
        assert!(mix[1].schedule.is_some(), "crowd tenant got a spike");
        assert_eq!(
            mix[2].window_mins,
            Some((30.0, 50.0)),
            "join opens the window, leave clips it"
        );
    }

    #[test]
    fn control_lowering_snapshots_the_policy() {
        let policy = TenancyPolicy::fifo();
        let script = ScenarioScript::new(60.0, base())
            .with_action(ScenarioAction::RegionLoss {
                at_mins: 45.0,
                region: 1,
            })
            .with_action(join(10.0, 3, 20))
            .with_action(ScenarioAction::TenantLeave {
                at_mins: 40.0,
                tenant: TenantId(3),
            });
        let timeline = script.control_timeline(&policy);
        assert_eq!(timeline.len(), 3);
        assert_eq!(timeline[0].0, 10.0, "timeline is in fire order");
        match &timeline[0].1 {
            ControlAction::Policy(p) => {
                assert_eq!(p.shares.len(), 1);
                assert_eq!(p.cache_reserves(), vec![(TenantId(3), 20)]);
            }
            other => panic!("expected a policy snapshot, got {other:?}"),
        }
        match &timeline[1].1 {
            ControlAction::Policy(p) => assert!(p.shares.is_empty(), "leave removed the share"),
            other => panic!("expected a policy snapshot, got {other:?}"),
        }
        assert!(matches!(timeline[2].1, ControlAction::RegionLoss(1)));
    }
}
