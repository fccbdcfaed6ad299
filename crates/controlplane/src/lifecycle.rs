//! The node lifecycle state machine.
//!
//! Every fleet node moves through a fixed set of states; the control plane
//! is the only writer. The happy path is
//!
//! ```text
//! Provisioning -> Warming -> Active -> Draining -> Decommissioned
//! ```
//!
//! with a cold-start delay on each of the first two edges. An `Active`
//! node may instead crash to `Failed` (its shard is lost); recovery
//! re-enters the machine at `Provisioning`. `Decommissioned` nodes are the
//! spare pool: scale-up re-provisions them. Everything else is an illegal
//! transition and is rejected — the guard that keeps the control plane
//! from, say, routing traffic to a node that never warmed.

use modm_simkit::SimTime;

/// Where a node is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeState {
    /// Hardware requested; not yet booting models.
    Provisioning,
    /// Loading models / filling OS caches; consumes GPUs, serves nothing.
    Warming,
    /// In the router's active set, serving traffic.
    Active,
    /// Out of the active set; finishing its queued and in-flight work
    /// after handing its hottest cache entries to its ring successors.
    Draining,
    /// Released. Also the initial state of the spare pool.
    Decommissioned,
    /// Crashed: queue, in-flight work and cache shard are gone.
    Failed,
}

impl NodeState {
    /// True when the router may send *new* requests to the node. Draining
    /// nodes keep serving what they already accepted but receive nothing
    /// new.
    pub fn accepts_traffic(self) -> bool {
        self == NodeState::Active
    }

    /// True while the node is executing work (active or draining).
    pub fn serves(self) -> bool {
        matches!(self, NodeState::Active | NodeState::Draining)
    }
}

/// An attempted transition the state machine forbids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalTransition {
    /// The state the node was in.
    pub from: NodeState,
    /// The state the caller asked for.
    pub to: NodeState,
}

impl std::fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "illegal node transition {:?} -> {:?}",
            self.from, self.to
        )
    }
}

/// One node's lifecycle: current state plus the full transition history
/// (for post-run forensics and tests).
#[derive(Debug, Clone)]
pub struct NodeLifecycle {
    state: NodeState,
    since: SimTime,
    history: Vec<(SimTime, NodeState)>,
}

impl NodeLifecycle {
    /// Starts a lifecycle in `initial` at time `at` (warm-started fleets
    /// begin `Active`; the spare pool begins `Decommissioned`).
    pub fn new(initial: NodeState, at: SimTime) -> Self {
        NodeLifecycle {
            state: initial,
            since: at,
            history: vec![(at, initial)],
        }
    }

    /// The current state.
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// When the current state was entered.
    pub fn since(&self) -> SimTime {
        self.since
    }

    /// Every `(time, state)` entered, oldest first.
    pub fn history(&self) -> &[(SimTime, NodeState)] {
        &self.history
    }

    /// Whether the machine allows `from -> to`.
    pub fn allowed(from: NodeState, to: NodeState) -> bool {
        use NodeState::*;
        matches!(
            (from, to),
            (Provisioning, Warming)
                | (Warming, Active)
                | (Active, Draining)
                | (Active, Failed)
                | (Draining, Decommissioned)
                | (Decommissioned, Provisioning)
                | (Failed, Provisioning)
        )
    }

    /// Moves to `to` at time `at`, or rejects the transition.
    ///
    /// # Errors
    ///
    /// Returns [`IllegalTransition`] when the edge is not in the machine.
    pub fn transition(&mut self, to: NodeState, at: SimTime) -> Result<(), IllegalTransition> {
        if !Self::allowed(self.state, to) {
            return Err(IllegalTransition {
                from: self.state,
                to,
            });
        }
        self.state = to;
        self.since = at;
        self.history.push((at, to));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use NodeState::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn happy_path_scale_up_then_down() {
        let mut lc = NodeLifecycle::new(Decommissioned, t(0.0));
        for (state, at) in [
            (Provisioning, 1.0),
            (Warming, 2.0),
            (Active, 3.0),
            (Draining, 4.0),
            (Decommissioned, 5.0),
        ] {
            lc.transition(state, t(at)).expect("legal edge");
            assert_eq!(lc.state(), state);
            assert_eq!(lc.since(), t(at));
        }
        assert_eq!(lc.history().len(), 6);
    }

    #[test]
    fn crash_and_recovery_cycle() {
        let mut lc = NodeLifecycle::new(Active, t(0.0));
        lc.transition(Failed, t(1.0)).expect("crash");
        lc.transition(Provisioning, t(2.0)).expect("recovery");
        lc.transition(Warming, t(3.0)).expect("warm");
        lc.transition(Active, t(4.0)).expect("back to serving");
    }

    #[test]
    fn illegal_transitions_rejected_and_state_unchanged() {
        let cases = [
            (Provisioning, Active),   // cannot skip warming
            (Warming, Draining),      // nothing to drain
            (Active, Decommissioned), // must drain first
            (Draining, Active),       // no un-drain
            (Decommissioned, Active), // must re-provision
            (Failed, Active),         // recovery goes via provisioning
            (Decommissioned, Failed), // released nodes cannot crash
            (Active, Active),         // self-loops are not edges
        ];
        for (from, to) in cases {
            let mut lc = NodeLifecycle::new(from, t(0.0));
            let err = lc.transition(to, t(1.0)).expect_err("illegal edge");
            assert_eq!(err, IllegalTransition { from, to });
            assert_eq!(lc.state(), from, "rejected transition must not move");
            assert_eq!(lc.history().len(), 1);
        }
    }

    #[test]
    fn state_predicates() {
        assert!(Active.accepts_traffic());
        for s in [Provisioning, Warming, Draining, Decommissioned, Failed] {
            assert!(!s.accepts_traffic(), "{s:?} must not receive new requests");
        }

        assert!(Active.serves() && Draining.serves());
        assert!(!Warming.serves());
    }
}
