//! Chrome-trace / Perfetto JSON export.
//!
//! [`perfetto_json`] renders a [`TraceObserver`]'s retained span trees
//! in the Trace Event Format that `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev) open directly:
//!
//! * **nodes are processes** (`pid` = node id, named `node N`),
//! * **workers are threads** (`tid` = worker + 1; `tid 0` is the
//!   node's queue lane),
//! * each retained attempt renders as a **queue slice** (admission →
//!   dispatch, or → the attempt's end when it never dispatched) and a
//!   **service slice** (dispatch → completion / crash),
//! * **control-plane events** (scale, crash, recovery) and retained
//!   reject/shed terminals render as **instants**.
//!
//! Timestamps are virtual-time microseconds. The document also carries
//! an `otherData` section with the observer's full per-kind event
//! tally, so a consumer can check the export against an independent
//! event log — `tests/trace.rs` pins exactly that.

use modm_core::events::SimEvent;
use modm_simkit::{Json, SimTime};

use crate::observer::TraceObserver;
use crate::span::{CacheRoute, SpanTree, Terminal};

/// The queue lane's thread id within a node-process.
const QUEUE_TID: usize = 0;

fn micros(at: SimTime) -> f64 {
    at.as_secs_f64() * 1e6
}

/// A complete (`"X"`) slice on lane `(pid, tid)`.
fn slice(name: String, pid: usize, tid: usize, ts: f64, dur: f64, args: Json) -> Json {
    Json::obj([
        ("name", name.into()),
        ("cat", "request".into()),
        ("ph", "X".into()),
        ("ts", ts.into()),
        ("dur", dur.into()),
        ("pid", pid.into()),
        ("tid", tid.into()),
        ("args", args),
    ])
}

/// A global instant (`"i"`) on node `pid`'s queue lane.
fn instant(name: String, cat: &str, pid: usize, ts: f64, args: Json) -> Json {
    Json::obj([
        ("name", name.into()),
        ("cat", cat.into()),
        ("ph", "i".into()),
        ("s", "g".into()),
        ("ts", ts.into()),
        ("pid", pid.into()),
        ("tid", QUEUE_TID.into()),
        ("args", args),
    ])
}

/// A metadata (`"M"`) event naming a process or thread.
fn metadata(name: &str, pid: usize, tid: usize, value: String) -> Json {
    Json::obj([
        ("name", name.into()),
        ("ph", "M".into()),
        ("pid", pid.into()),
        ("tid", tid.into()),
        ("args", Json::obj([("name", value.into())])),
    ])
}

fn tree_events(out: &mut Vec<Json>, tree: &SpanTree) {
    let end = tree.ended_at.unwrap_or(tree.started_at);
    let sampled = if tree.head_sampled { "head" } else { "tail" };
    let tenant = || ("tenant", Json::from(tree.tenant.0));
    for (i, attempt) in tree.attempts.iter().enumerate() {
        let attempt_end = attempt.ended_at.unwrap_or(end);
        let args = Json::obj([tenant(), ("attempt", i.into()), ("sampled", sampled.into())]);
        let queue_end = attempt.dispatched_at.unwrap_or(attempt_end);
        out.push(slice(
            format!("queue req{}", tree.request_id),
            attempt.node,
            QUEUE_TID,
            micros(attempt.admitted_at),
            (micros(queue_end) - micros(attempt.admitted_at)).max(0.0),
            args.clone(),
        ));
        if let Some(dispatched) = attempt.dispatched_at {
            let route = match attempt.route {
                Some(CacheRoute::Hit { k }) => format!("hit k={k}"),
                Some(CacheRoute::Miss) => "miss".to_string(),
                None => "unrouted".to_string(),
            };
            let model = attempt
                .model
                .map(|m| m.to_string())
                .unwrap_or_else(|| "?".to_string());
            out.push(slice(
                format!("serve req{} {model} {route}", tree.request_id),
                attempt.node,
                attempt.worker.map(|w| w + 1).unwrap_or(QUEUE_TID),
                micros(dispatched),
                (micros(attempt_end) - micros(dispatched)).max(0.0),
                args,
            ));
        }
    }
    let (name, arg) = match tree.terminal {
        Some(Terminal::Rejected { retry_after_secs }) => {
            ("rejected", ("retry_after_secs", retry_after_secs))
        }
        Some(Terminal::Shed { waited_secs }) => ("shed", ("waited_secs", waited_secs)),
        _ => return,
    };
    let node = tree.final_attempt().map(|a| a.node).unwrap_or(0);
    out.push(instant(
        format!("{name} req{}", tree.request_id),
        "terminal",
        node,
        micros(end),
        Json::obj([tenant(), (arg.0, arg.1.into())]),
    ));
}

fn control_args(event: &SimEvent) -> Json {
    match *event {
        SimEvent::NodeActive { prewarmed, .. } => Json::obj([("prewarmed", prewarmed.into())]),
        SimEvent::Crash {
            redelivered,
            lost_entries,
            ..
        } => Json::obj([
            ("redelivered", redelivered.into()),
            ("lost_entries", lost_entries.into()),
        ]),
        _ => Json::Obj(Vec::new()),
    }
}

/// Renders `obs` as one Chrome Trace Event Format document.
pub fn perfetto_json(obs: &TraceObserver) -> String {
    let mut events = Vec::new();

    // Process/thread naming metadata for every (node, worker) that
    // appears in a retained tree or a control event.
    let mut lanes: std::collections::BTreeSet<(usize, usize)> = std::collections::BTreeSet::new();
    for tree in obs.sampled_trees() {
        for attempt in &tree.attempts {
            lanes.insert((attempt.node, QUEUE_TID));
            if let Some(w) = attempt.worker {
                lanes.insert((attempt.node, w + 1));
            }
        }
    }
    for (_, event) in obs.control_events() {
        lanes.insert((event.node(), QUEUE_TID));
    }
    let mut named_pids = std::collections::BTreeSet::new();
    for &(pid, tid) in &lanes {
        if named_pids.insert(pid) {
            events.push(metadata(
                "process_name",
                pid,
                QUEUE_TID,
                format!("node {pid}"),
            ));
        }
        let lane = if tid == QUEUE_TID {
            "queue".to_string()
        } else {
            format!("worker {}", tid - 1)
        };
        events.push(metadata("thread_name", pid, tid, lane));
    }

    for tree in obs.sampled_trees() {
        tree_events(&mut events, tree);
    }
    // Head-sampled rejections render too (they are not in the
    // retained set — they stay revivable — but the head sample means
    // the operator asked to see this id's fate).
    for tree in obs.rejected_trees().filter(|t| t.head_sampled) {
        tree_events(&mut events, tree);
    }

    for (at, event) in obs.control_events() {
        events.push(instant(
            event.kind().to_string(),
            "control",
            event.node(),
            micros(*at),
            control_args(event),
        ));
    }

    let counts = obs
        .event_counts()
        .iter()
        .map(|(&kind, &n)| (kind, n.into()));
    let other = Json::obj([
        ("retained_trees", obs.sampled_tree_count().into()),
        ("open_trees", obs.open_trees().into()),
        ("event_counts", Json::obj(counts)),
    ]);
    let doc = Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", "ms".into()),
        ("otherData", other),
    ]);
    doc.render() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{TraceConfig, TraceObserver};
    use modm_core::events::Observer;
    use modm_diffusion::ModelId;
    use modm_workload::TenantId;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn export_parses_and_counts_agree_with_the_observer() {
        let mut obs = TraceObserver::new(TraceConfig::new().with_head_sample(1, 64));
        let tenant = TenantId(1);
        obs.on_event(t(0.0), &SimEvent::ScaleUp { node: 1 });
        obs.on_event(
            t(1.0),
            &SimEvent::Admitted {
                node: 1,
                request_id: 2,
                tenant,
            },
        );
        obs.on_event(
            t(1.0),
            &SimEvent::CacheHit {
                node: 1,
                request_id: 2,
                tenant,
                k: 20,
            },
        );
        obs.on_event(
            t(3.0),
            &SimEvent::Dispatched {
                node: 1,
                worker: 0,
                request_id: 2,
                tenant,
                model: ModelId::Sd35Large,
            },
        );
        obs.on_event(
            t(40.0),
            &SimEvent::Completed {
                node: 1,
                request_id: 2,
                tenant,
                latency_secs: 39.0,
                hit: true,
            },
        );
        obs.on_event(
            t(41.0),
            &SimEvent::Rejected {
                node: 1,
                request_id: 3,
                tenant,
                retry_after_secs: 5.0,
            },
        );

        let text = perfetto_json(&obs);
        let doc = Json::parse(&text).expect("export must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 metadata (process + thread queue) + 1 thread worker, 1
        // queue slice, 1 service slice, 1 control instant.
        let slices = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .count();
        assert_eq!(slices, 2);
        let instants: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .collect();
        assert_eq!(
            instants.len(),
            2,
            "one control instant + one head-sampled rejection"
        );
        assert!(instants
            .iter()
            .any(|i| i.get("cat").unwrap().as_str() == Some("control")));
        assert!(instants
            .iter()
            .any(|i| i.get("name").unwrap().as_str() == Some("rejected req3")));
        let counts = doc.get("otherData").unwrap().get("event_counts").unwrap();
        assert_eq!(counts.get("admitted").unwrap().as_f64(), Some(1.0));
        assert_eq!(counts.get("rejected").unwrap().as_f64(), Some(1.0));
        assert_eq!(counts.get("scale_up").unwrap().as_f64(), Some(1.0));
        // Queue slice: 2 s at node-process 1, queue lane.
        let queue = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("queue req2"))
            .unwrap();
        assert_eq!(queue.get("pid").unwrap().as_f64(), Some(1.0));
        assert_eq!(queue.get("tid").unwrap().as_f64(), Some(0.0));
        assert_eq!(queue.get("dur").unwrap().as_f64(), Some(2e6));
    }
}
