//! The unit of work the serving systems process.

use modm_simkit::SimTime;

use crate::tenancy::{QosClass, TenantId};

/// A text-to-image generation request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Unique, trace-ordered id.
    pub id: u64,
    /// The user's prompt text.
    pub prompt: String,
    /// Arrival time in the simulated timeline.
    pub arrival: SimTime,
    /// The tenant the request belongs to ([`TenantId::DEFAULT`] for
    /// single-tenant workloads).
    pub tenant: TenantId,
    /// The service class it is admitted under.
    pub qos: QosClass,
}

impl Request {
    /// Creates a default-tenant, standard-class request.
    pub fn new(id: u64, prompt: impl Into<String>, arrival: SimTime) -> Self {
        Request {
            id,
            prompt: prompt.into(),
            arrival,
            tenant: TenantId::DEFAULT,
            qos: QosClass::default(),
        }
    }

    /// Creates a request tagged with an explicit tenant and QoS class.
    pub fn for_tenant(
        id: u64,
        prompt: impl Into<String>,
        arrival: SimTime,
        tenant: TenantId,
        qos: QosClass,
    ) -> Self {
        Request {
            id,
            prompt: prompt.into(),
            arrival,
            tenant,
            qos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let r = Request::new(3, "a cat", SimTime::from_secs_f64(2.0));
        assert_eq!(r.id, 3);
        assert_eq!(r.prompt, "a cat");
        assert_eq!(r.arrival.as_secs_f64(), 2.0);
        assert_eq!(r.tenant, TenantId::DEFAULT);
        assert_eq!(r.qos, QosClass::Standard);
    }
}
