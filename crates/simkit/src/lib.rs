//! Deterministic discrete-event simulation toolkit for the MoDM reproduction.
//!
//! The MoDM paper evaluates a distributed serving system (PyTorch RPC across
//! GPU nodes). This crate provides the substrate we run that system on in
//! simulation: a virtual clock, an event queue, seeded random distributions
//! and streaming statistics, plus the [`Json`] type every crate writes its
//! reports with. Everything is deterministic under a fixed seed, which the
//! integration tests rely on.
//!
//! # Example
//!
//! ```
//! use modm_simkit::time::{SimTime, SimDuration};
//! use modm_simkit::event::EventQueue;
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_secs_f64(2.0), "later");
//! q.schedule(SimTime::ZERO + SimDuration::from_secs_f64(1.0), "sooner");
//! let (t, ev) = q.pop().expect("non-empty");
//! assert_eq!(ev, "sooner");
//! assert_eq!(t.as_secs_f64(), 1.0);
//! ```

pub mod event;
pub mod json;
pub mod profile;
pub mod queue;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use json::{Json, JsonError};
pub use profile::{timed, ProfileReport, Profiler, Subsystem};
pub use queue::FifoQueue;
pub use rng::{mix64, SimRng};
pub use series::TimeSeries;
pub use stats::{Histogram, Percentiles, StreamingStats};
pub use time::{SimDuration, SimTime};
