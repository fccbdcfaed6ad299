//! The typed event stream of a serving run.
//!
//! Every event loop that hosts a [`crate::node::ServingNode`] — the
//! serving engine in `modm-controlplane`, behind the single node, the
//! fixed fleet and the elastic fleet — can narrate its run to
//! an [`Observer`]: one [`SimEvent`] per admission, cache decision,
//! dispatch and completion, plus the control-plane transitions
//! (scale-up/down, crash, recovery) where a control loop exists.
//!
//! The stream is strictly optional: the loops thread an [`Obs`]
//! (`Option<&mut dyn Observer>`) and every emission site first checks for
//! `Some`, so an unobserved run pays one branch per event site and never
//! constructs an event. The `serving` bench records the with/without
//! observer delta to keep that property honest.
//!
//! Request-level events are emitted from the shared per-node serving step
//! itself ([`crate::node::ServingNode`]), so all three tiers produce the
//! identical stream shape; control-plane events come from the loop that
//! owns the decision. `modm-deploy` builds on this with ready-made
//! observers (latency histograms, event logs, CSV/JSON export).

use modm_diffusion::ModelId;
use modm_simkit::SimTime;
use modm_workload::TenantId;

/// One thing that happened during a serving run, tagged with the node it
/// happened on (node `0` for single-node deployments).
///
/// Request-scoped events carry the trace request id and the request's
/// tenant, so an observer can stitch the admitted → hit/miss → dispatched
/// → completed path of any request across nodes — including a crash
/// re-delivery, which re-admits the same request id on a surviving node —
/// and slice any metric per tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A request entered a node's queues.
    Admitted {
        /// Node that accepted the request.
        node: usize,
        /// Trace request id.
        request_id: u64,
        /// The request's tenant.
        tenant: TenantId,
    },
    /// The tenant's token bucket refused the request at admission (the
    /// request is never queued and never completes).
    Rejected {
        /// Node that refused the request.
        node: usize,
        /// Trace request id.
        request_id: u64,
        /// The request's tenant.
        tenant: TenantId,
        /// Back-off hint, in virtual seconds: how long until the
        /// tenant's token bucket can next admit a request (derived from
        /// its refill rate). Closed-loop clients retry after this long
        /// instead of immediately.
        retry_after_secs: f64,
    },
    /// The request outlived its queue-time budget and was shed at
    /// dispatch instead of served.
    ShedDeadline {
        /// Node that shed the request.
        node: usize,
        /// Trace request id.
        request_id: u64,
        /// The request's tenant.
        tenant: TenantId,
        /// How long the request had waited in queue, seconds.
        waited_secs: f64,
    },
    /// The node's scheduler found a cached image good enough to refine.
    CacheHit {
        /// Node whose cache (or shard) hit.
        node: usize,
        /// Trace request id.
        request_id: u64,
        /// The request's tenant.
        tenant: TenantId,
        /// Denoising steps the retrieval lets the refinement skip.
        k: u32,
    },
    /// The node's scheduler found nothing usable; full generation.
    CacheMiss {
        /// Node whose cache (or shard) missed.
        node: usize,
        /// Trace request id.
        request_id: u64,
        /// The request's tenant.
        tenant: TenantId,
    },
    /// A worker took the request off a queue and started serving it.
    Dispatched {
        /// Node that dispatched.
        node: usize,
        /// Worker index within the node.
        worker: usize,
        /// Trace request id.
        request_id: u64,
        /// The request's tenant.
        tenant: TenantId,
        /// The model the worker hosts for this job.
        model: ModelId,
    },
    /// The request finished.
    Completed {
        /// Node that served it.
        node: usize,
        /// Trace request id.
        request_id: u64,
        /// The request's tenant.
        tenant: TenantId,
        /// End-to-end latency from arrival to completion, seconds.
        latency_secs: f64,
        /// Whether the request had been served from cache.
        hit: bool,
    },
    /// Control plane: a node began provisioning (scale-up).
    ScaleUp {
        /// The provisioning node id.
        node: usize,
    },
    /// Control plane: a node finished warming and joined the active set.
    NodeActive {
        /// The activated node id.
        node: usize,
        /// Cache entries migrated in to pre-warm its shard.
        prewarmed: usize,
    },
    /// Control plane: a node left the active set and began draining.
    ScaleDown {
        /// The draining node id.
        node: usize,
    },
    /// Control plane: a drained node finished its backlog and released
    /// its GPUs.
    Decommissioned {
        /// The released node id.
        node: usize,
    },
    /// Control plane: a node crashed, destroying its cache shard.
    Crash {
        /// The crashed node id.
        node: usize,
        /// Queued + in-flight requests re-delivered to survivors.
        redelivered: usize,
        /// Cache entries destroyed with the shard.
        lost_entries: usize,
    },
    /// Control plane: a crashed node began re-provisioning.
    RecoveryStarted {
        /// The recovering node id.
        node: usize,
    },
}

impl SimEvent {
    /// The node id the event is tagged with.
    pub fn node(&self) -> usize {
        match *self {
            SimEvent::Admitted { node, .. }
            | SimEvent::Rejected { node, .. }
            | SimEvent::ShedDeadline { node, .. }
            | SimEvent::CacheHit { node, .. }
            | SimEvent::CacheMiss { node, .. }
            | SimEvent::Dispatched { node, .. }
            | SimEvent::Completed { node, .. }
            | SimEvent::ScaleUp { node }
            | SimEvent::NodeActive { node, .. }
            | SimEvent::ScaleDown { node }
            | SimEvent::Decommissioned { node }
            | SimEvent::Crash { node, .. }
            | SimEvent::RecoveryStarted { node } => node,
        }
    }

    /// The trace request id, for request-scoped events.
    pub fn request_id(&self) -> Option<u64> {
        match *self {
            SimEvent::Admitted { request_id, .. }
            | SimEvent::Rejected { request_id, .. }
            | SimEvent::ShedDeadline { request_id, .. }
            | SimEvent::CacheHit { request_id, .. }
            | SimEvent::CacheMiss { request_id, .. }
            | SimEvent::Dispatched { request_id, .. }
            | SimEvent::Completed { request_id, .. } => Some(request_id),
            _ => None,
        }
    }

    /// The request's tenant, for request-scoped events.
    pub fn tenant(&self) -> Option<TenantId> {
        match *self {
            SimEvent::Admitted { tenant, .. }
            | SimEvent::Rejected { tenant, .. }
            | SimEvent::ShedDeadline { tenant, .. }
            | SimEvent::CacheHit { tenant, .. }
            | SimEvent::CacheMiss { tenant, .. }
            | SimEvent::Dispatched { tenant, .. }
            | SimEvent::Completed { tenant, .. } => Some(tenant),
            _ => None,
        }
    }

    /// Short kind name, stable across versions (used by the CSV/JSON
    /// exporters in `modm-deploy`).
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::Admitted { .. } => "admitted",
            SimEvent::Rejected { .. } => "rejected",
            SimEvent::ShedDeadline { .. } => "shed_deadline",
            SimEvent::CacheHit { .. } => "cache_hit",
            SimEvent::CacheMiss { .. } => "cache_miss",
            SimEvent::Dispatched { .. } => "dispatched",
            SimEvent::Completed { .. } => "completed",
            SimEvent::ScaleUp { .. } => "scale_up",
            SimEvent::NodeActive { .. } => "node_active",
            SimEvent::ScaleDown { .. } => "scale_down",
            SimEvent::Decommissioned { .. } => "decommissioned",
            SimEvent::Crash { .. } => "crash",
            SimEvent::RecoveryStarted { .. } => "recovery_started",
        }
    }
}

/// A consumer of the typed event stream.
///
/// Implementations must be cheap: `on_event` runs inside the simulation's
/// hot loop. Events arrive in virtual-time order within one run.
///
/// # Example
///
/// ```
/// use modm_core::events::{Observer, SimEvent};
/// use modm_simkit::SimTime;
///
/// /// Counts completions.
/// struct Completions(u64);
///
/// impl Observer for Completions {
///     fn on_event(&mut self, _at: SimTime, event: &SimEvent) {
///         if matches!(event, SimEvent::Completed { .. }) {
///             self.0 += 1;
///         }
///     }
/// }
///
/// let mut obs = Completions(0);
/// obs.on_event(SimTime::ZERO, &SimEvent::Completed {
///     node: 0,
///     request_id: 7,
///     tenant: modm_workload::TenantId::DEFAULT,
///     latency_secs: 1.5,
///     hit: true,
/// });
/// assert_eq!(obs.0, 1);
/// ```
pub trait Observer {
    /// Called once per event, in virtual-time order.
    fn on_event(&mut self, at: SimTime, event: &SimEvent);
}

/// The optional observer handle the serving loops thread through their
/// steps: `None` is the unobserved fast path. The two lifetimes keep the
/// borrow (`'a`) independent of the observer value itself (`'b`), so a
/// host loop holding an `Obs` field can reborrow it per step.
pub type Obs<'a, 'b> = Option<&'a mut (dyn Observer + 'b)>;

/// Forwards `make()`'s event to the observer, if one is attached. The
/// closure keeps event construction off the unobserved path entirely.
#[inline]
pub fn emit(obs: &mut Obs<'_, '_>, at: SimTime, make: impl FnOnce() -> SimEvent) {
    if let Some(observer) = obs.as_deref_mut() {
        let event = make();
        observer.on_event(at, &event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Collect(Vec<SimEvent>);
    impl Observer for Collect {
        fn on_event(&mut self, _at: SimTime, event: &SimEvent) {
            self.0.push(*event);
        }
    }

    #[test]
    fn emit_skips_construction_without_observer() {
        let mut built = false;
        let mut obs: Obs<'_, '_> = None;
        emit(&mut obs, SimTime::ZERO, || {
            built = true;
            SimEvent::ScaleUp { node: 0 }
        });
        assert!(!built, "unobserved runs never build events");
    }

    #[test]
    fn emit_forwards_to_observer() {
        let mut collect = Collect(Vec::new());
        let mut obs: Obs<'_, '_> = Some(&mut collect);
        emit(&mut obs, SimTime::ZERO, || SimEvent::CacheMiss {
            node: 3,
            request_id: 9,
            tenant: TenantId(4),
        });
        emit(&mut obs, SimTime::ZERO, || SimEvent::ScaleDown { node: 1 });
        assert_eq!(collect.0.len(), 2);
        assert_eq!(collect.0[0].node(), 3);
        assert_eq!(collect.0[0].request_id(), Some(9));
        assert_eq!(collect.0[0].tenant(), Some(TenantId(4)));
        assert_eq!(collect.0[1].kind(), "scale_down");
        assert_eq!(collect.0[1].request_id(), None);
        assert_eq!(collect.0[1].tenant(), None);
    }

    #[test]
    fn overload_events_carry_request_scope() {
        let rejected = SimEvent::Rejected {
            node: 2,
            request_id: 11,
            tenant: TenantId(5),
            retry_after_secs: 12.5,
        };
        assert_eq!(rejected.kind(), "rejected");
        assert_eq!(rejected.node(), 2);
        assert_eq!(rejected.request_id(), Some(11));
        assert_eq!(rejected.tenant(), Some(TenantId(5)));
        let shed = SimEvent::ShedDeadline {
            node: 1,
            request_id: 12,
            tenant: TenantId(6),
            waited_secs: 480.0,
        };
        assert_eq!(shed.kind(), "shed_deadline");
        assert_eq!(shed.request_id(), Some(12));
        assert_eq!(shed.tenant(), Some(TenantId(6)));
    }
}
