//! The admission seam: what decides a cache server's HOC policy over time.

use crate::online::{ControlEvent, OnlineController};
use crate::{DarwinModel, OnlineConfig};
use darwin_cache::{CacheMetrics, ThresholdPolicy};
use darwin_trace::Request;
use std::sync::Arc;

/// Decides the proxy's HOC admission policy over time. Called once per
/// processed request with the proxy's cumulative metrics.
pub trait AdmissionDriver {
    /// Policy to install before the first request.
    fn initial_policy(&mut self) -> ThresholdPolicy;
    /// Observes a processed request; returns a new policy to install, if any.
    fn observe(&mut self, req: &Request, cumulative: &CacheMetrics) -> Option<ThresholdPolicy>;
    /// Label for reports.
    fn label(&self) -> String;
    /// Serializes the driver's dynamic state for a warm-restart checkpoint.
    /// `None` (the default) marks the driver as non-checkpointable; a
    /// checkpointing fleet then skips the snapshot entirely rather than
    /// persist a cache state it could not pair with driver state.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }
    /// Restores state written by [`AdmissionDriver::save_state`] into a
    /// freshly built driver of the same configuration. Returns `false` when
    /// the bytes are rejected (the caller must fall back to a cold start).
    fn load_state(&mut self, _bytes: &[u8]) -> bool {
        false
    }
    /// Takes the control-plane decisions (expert switches, drift
    /// detections) buffered since the last drain, for the serving layer's
    /// event journal. Drivers without a controller have none.
    fn drain_events(&mut self) -> Vec<ControlEvent> {
        Vec::new()
    }
}

/// A fixed expert (the paper's static baselines).
#[derive(Debug, Clone)]
pub struct StaticDriver {
    policy: ThresholdPolicy,
}

impl StaticDriver {
    /// Driver that always deploys `policy`.
    pub fn new(policy: ThresholdPolicy) -> Self {
        Self { policy }
    }
}

impl AdmissionDriver for StaticDriver {
    fn initial_policy(&mut self) -> ThresholdPolicy {
        self.policy
    }
    fn observe(&mut self, _req: &Request, _m: &CacheMetrics) -> Option<ThresholdPolicy> {
        None
    }
    fn label(&self) -> String {
        self.policy.label()
    }
    fn save_state(&self) -> Option<Vec<u8>> {
        // Stateless: an empty payload suffices, but the driver *is*
        // checkpointable (the fleet still snapshots the cache).
        Some(Vec::new())
    }
    fn load_state(&mut self, bytes: &[u8]) -> bool {
        bytes.is_empty()
    }
}

/// The full Darwin online pipeline driving the proxy (what §5's prototype
/// does with its background learning thread — here the learning work is
/// simulated as off-critical-path, matching the paper's observation that
/// "the learning logic is not in the critical path of cache processing").
pub struct DarwinDriver {
    controller: OnlineController,
}

impl DarwinDriver {
    /// Driver around a trained model.
    pub fn new(model: Arc<DarwinModel>, cfg: OnlineConfig) -> Self {
        Self { controller: OnlineController::new(model, cfg) }
    }

    /// Access to the controller (switch history, epoch summaries).
    pub fn controller(&self) -> &OnlineController {
        &self.controller
    }

    /// Consumes the driver, returning its controller. A sharded fleet hands
    /// the per-shard drivers back when it shuts down; this is how callers
    /// recover each shard's switch history and epoch summaries for reporting
    /// and for the fleet-vs-sequential determinism check.
    pub fn into_controller(self) -> OnlineController {
        self.controller
    }
}

impl AdmissionDriver for DarwinDriver {
    fn initial_policy(&mut self) -> ThresholdPolicy {
        self.controller.current_expert().policy
    }
    fn observe(&mut self, req: &Request, cumulative: &CacheMetrics) -> Option<ThresholdPolicy> {
        self.controller.observe(req, cumulative).map(|e| e.policy)
    }
    fn label(&self) -> String {
        "darwin".into()
    }
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.controller.save_state())
    }
    fn load_state(&mut self, bytes: &[u8]) -> bool {
        self.controller.restore_state(bytes).is_ok()
    }
    fn drain_events(&mut self) -> Vec<ControlEvent> {
        self.controller.drain_control_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_driver_never_switches() {
        let mut d = StaticDriver::new(ThresholdPolicy::new(2, 2048));
        assert_eq!(d.initial_policy(), ThresholdPolicy::new(2, 2048));
        let m = CacheMetrics::default();
        assert!(d.observe(&Request::new(1, 1, 0), &m).is_none());
        assert_eq!(d.label(), "f2s2");
    }
}
