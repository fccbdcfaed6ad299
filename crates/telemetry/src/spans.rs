//! Request spans: per-request stage timing assembled from the typed
//! event stream.
//!
//! A request's life is `admitted → queued → (cache hit/miss) →
//! dispatched → GPU service → completed`, or it ends early in
//! `rejected` (refused at admission, never queued) or `shed` (popped
//! past its queue-time budget). [`SpanTracker`] stitches those stages
//! back together from tagged events and folds every finished span into
//! a per-tenant [`StageBreakdown`] — the table that shows *where* time
//! goes under overload: queue wait exploding while GPU service stays
//! flat is the queueing-collapse signature.
//!
//! Crash re-delivery re-admits a request id on a surviving node; the
//! tracker simply re-opens the span (the terminal event still fires
//! exactly once per request, so breakdown counts key on terminals and
//! stay exact across node teardown). A refusal is the one terminal that
//! can be undone: a retrying client may offer the same id again, so a
//! refusal counts once per id and is retracted when that id is admitted
//! again.

use std::collections::BTreeMap;
use std::fmt;

use modm_simkit::{IdMap, SimTime};
use modm_workload::TenantId;

/// A request's in-progress span.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    tenant: TenantId,
    admitted_at: SimTime,
    dispatched_at: Option<SimTime>,
    hit: Option<bool>,
}

/// Aggregated stage timings for one tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBreakdown {
    /// Requests that completed service.
    pub completed: u64,
    /// Requests whose last offer was refused at admission (once per
    /// request, however often it was refused).
    pub rejected: u64,
    /// Requests shed past their queue-time budget.
    pub shed: u64,
    /// Total queue wait (admitted → dispatched) over completed spans,
    /// seconds.
    pub queue_secs: f64,
    /// Total GPU service (dispatched → completed) over completed spans,
    /// seconds.
    pub service_secs: f64,
    /// Total span time (admitted → completed) over completed spans,
    /// seconds. By construction `queue_secs + service_secs ==
    /// total_secs` exactly (the tests pin this).
    pub total_secs: f64,
    /// Total queue wait of *shed* spans, seconds (their service is 0).
    pub shed_wait_secs: f64,
    /// Completed spans served from cache.
    pub hits: u64,
}

impl StageBreakdown {
    /// Requests that reached a terminal state.
    pub fn terminal(&self) -> u64 {
        self.completed + self.rejected + self.shed
    }

    /// Mean queue wait of completed spans, seconds.
    pub fn mean_queue_secs(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.queue_secs / self.completed as f64
        }
    }

    /// Mean GPU service of completed spans, seconds.
    pub fn mean_service_secs(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.service_secs / self.completed as f64
        }
    }
}

/// Assembles spans from events and aggregates them per tenant.
///
/// Open spans live in an [`IdMap`] — one probe per event on the DES hot
/// path, and nothing ever iterates them (only the count and the
/// per-tenant `BTreeMap` aggregation are observable), so determinism is
/// unaffected.
#[derive(Debug, Clone, Default)]
pub struct SpanTracker {
    open: IdMap<u64, OpenSpan>,
    /// Requests whose last event was a refusal, with their tenant.
    refused: IdMap<u64, TenantId>,
    by_tenant: BTreeMap<TenantId, StageBreakdown>,
}

impl SpanTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&mut self, tenant: TenantId) -> &mut StageBreakdown {
        self.by_tenant.entry(tenant).or_default()
    }

    /// A request entered a node's queues (re-opens the span on crash
    /// re-delivery: stage clocks restart on the surviving node). A
    /// refusal of the same id was not terminal after all, and is
    /// retracted.
    pub fn admitted(&mut self, at: SimTime, request_id: u64, tenant: TenantId) {
        if let Some(refused_as) = self.refused.remove(&request_id) {
            self.slot(refused_as).rejected -= 1;
        }
        self.open.insert(
            request_id,
            OpenSpan {
                tenant,
                admitted_at: at,
                dispatched_at: None,
                hit: None,
            },
        );
    }

    /// The request's cache decision.
    pub fn cache_decision(&mut self, request_id: u64, hit: bool) {
        if let Some(span) = self.open.get_mut(&request_id) {
            span.hit = Some(hit);
        }
    }

    /// A worker started serving the request.
    pub fn dispatched(&mut self, at: SimTime, request_id: u64) {
        if let Some(span) = self.open.get_mut(&request_id) {
            span.dispatched_at = Some(at);
        }
    }

    /// Terminal: the request completed.
    pub fn completed(&mut self, at: SimTime, request_id: u64, tenant: TenantId) {
        match self.open.remove(&request_id) {
            Some(span) => {
                let dispatched = span.dispatched_at.unwrap_or(at);
                let queue = dispatched.saturating_since(span.admitted_at).as_secs_f64();
                let service = at.saturating_since(dispatched).as_secs_f64();
                let slot = self.slot(span.tenant);
                slot.completed += 1;
                slot.queue_secs += queue;
                slot.service_secs += service;
                slot.total_secs += queue + service;
                if span.hit == Some(true) {
                    slot.hits += 1;
                }
            }
            // A completion without an observed admission (observer
            // attached mid-run) still counts.
            None => self.slot(tenant).completed += 1,
        }
    }

    /// Terminal unless the id is admitted later: refused at admission.
    /// A first-time refusal never opened a span; a crash-redelivered
    /// request *can* be refused on re-admission, so any span it left open
    /// is closed here. Repeated refusals of one id count once.
    pub fn rejected(&mut self, request_id: u64, tenant: TenantId) {
        self.open.remove(&request_id);
        if self.refused.insert(request_id, tenant).is_none() {
            self.slot(tenant).rejected += 1;
        }
    }

    /// Terminal: shed at dispatch after `waited_secs` in queue.
    pub fn shed(&mut self, request_id: u64, tenant: TenantId, waited_secs: f64) {
        self.open.remove(&request_id);
        let slot = self.slot(tenant);
        slot.shed += 1;
        slot.shed_wait_secs += waited_secs;
    }

    /// Spans still open (admitted but not yet terminal).
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// The per-tenant breakdown, in tenant order.
    pub fn by_tenant(&self) -> &BTreeMap<TenantId, StageBreakdown> {
        &self.by_tenant
    }

    /// The breakdown summed over every tenant.
    pub fn totals(&self) -> StageBreakdown {
        let mut total = StageBreakdown::default();
        for b in self.by_tenant.values() {
            total.completed += b.completed;
            total.rejected += b.rejected;
            total.shed += b.shed;
            total.queue_secs += b.queue_secs;
            total.service_secs += b.service_secs;
            total.total_secs += b.total_secs;
            total.shed_wait_secs += b.shed_wait_secs;
            total.hits += b.hits;
        }
        total
    }
}

impl fmt::Display for SpanTracker {
    /// The per-tenant latency breakdown table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<8} {:>10} {:>9} {:>6} {:>12} {:>12} {:>6}",
            "tenant", "completed", "rejected", "shed", "queue_s", "service_s", "hits"
        )?;
        for (tenant, b) in &self.by_tenant {
            writeln!(
                f,
                "{:<8} {:>10} {:>9} {:>6} {:>12.1} {:>12.1} {:>6}",
                tenant.0,
                b.completed,
                b.rejected,
                b.shed,
                b.mean_queue_secs(),
                b.mean_service_secs(),
                b.hits
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn span_splits_queue_and_service_exactly() {
        let mut s = SpanTracker::new();
        s.admitted(t(10.0), 1, TenantId(1));
        s.cache_decision(1, true);
        s.dispatched(t(25.0), 1);
        s.completed(t(100.0), 1, TenantId(1));
        let b = s.by_tenant()[&TenantId(1)];
        assert_eq!(b.completed, 1);
        assert_eq!(b.hits, 1);
        assert!((b.queue_secs - 15.0).abs() < 1e-9);
        assert!((b.service_secs - 75.0).abs() < 1e-9);
        assert!((b.total_secs - (b.queue_secs + b.service_secs)).abs() < 1e-12);
        assert_eq!(s.open_spans(), 0);
    }

    #[test]
    fn terminals_classify_rejected_and_shed() {
        let mut s = SpanTracker::new();
        s.rejected(9, TenantId(2));
        s.admitted(t(0.0), 7, TenantId(2));
        s.shed(7, TenantId(2), 480.0);
        let b = s.by_tenant()[&TenantId(2)];
        assert_eq!((b.completed, b.rejected, b.shed), (0, 1, 1));
        assert_eq!(b.terminal(), 2);
        assert!((b.shed_wait_secs - 480.0).abs() < 1e-9);
        assert_eq!(s.open_spans(), 0);
    }

    #[test]
    fn redelivery_reopens_and_terminal_counts_once() {
        let mut s = SpanTracker::new();
        // First admission on a node that later crashes.
        s.admitted(t(0.0), 3, TenantId(1));
        // Re-delivered: span re-opens on the survivor.
        s.admitted(t(50.0), 3, TenantId(1));
        s.dispatched(t(60.0), 3);
        s.completed(t(90.0), 3, TenantId(1));
        let b = s.by_tenant()[&TenantId(1)];
        assert_eq!(b.completed, 1, "one terminal, one count");
        assert!(
            (b.queue_secs - 10.0).abs() < 1e-9,
            "clock restarts on re-admit"
        );
    }

    #[test]
    fn a_refusal_counts_once_per_id_until_readmission() {
        let mut s = SpanTracker::new();
        // Refused twice, then admitted and served: one completion, no
        // refusal.
        s.rejected(4, TenantId(1));
        s.rejected(4, TenantId(1));
        assert_eq!(s.by_tenant()[&TenantId(1)].rejected, 1, "re-refusal");
        s.admitted(t(30.0), 4, TenantId(1));
        assert_eq!(s.by_tenant()[&TenantId(1)].rejected, 0, "re-admission");
        s.dispatched(t(31.0), 4);
        s.completed(t(40.0), 4, TenantId(1));
        // Admitted, then refused on redelivery and abandoned: one
        // refusal.
        s.admitted(t(0.0), 5, TenantId(1));
        s.rejected(5, TenantId(1));
        s.rejected(5, TenantId(1));
        let b = s.by_tenant()[&TenantId(1)];
        assert_eq!((b.completed, b.rejected, b.shed), (1, 1, 0));
        assert_eq!(b.terminal(), 2, "two requests, two terminals");
        assert_eq!(s.open_spans(), 0);
    }

    #[test]
    fn totals_sum_tenants_and_table_renders() {
        let mut s = SpanTracker::new();
        s.admitted(t(0.0), 1, TenantId(1));
        s.dispatched(t(1.0), 1);
        s.completed(t(3.0), 1, TenantId(1));
        s.rejected(2, TenantId(2));
        let totals = s.totals();
        assert_eq!(totals.completed, 1);
        assert_eq!(totals.rejected, 1);
        let table = format!("{s}");
        assert!(table.contains("tenant") && table.contains("queue_s"));
    }
}
