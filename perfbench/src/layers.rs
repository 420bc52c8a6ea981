//! The traced model: a [`Model`] wrapper that times every
//! `NetworkModel::handle` call by [`Ev`] variant, and the map from
//! variants to the runtime's layers.
//!
//! Both maps are exhaustive `match`es with no `_` arm, so an event kind
//! added to the runtime fails to compile here instead of landing
//! unaccounted in the engine remainder.

use qn_netsim::{Ev, NetworkModel};
use qn_sim::{Context, Model, SimTime};
use std::time::{Duration, Instant};

/// One [`Ev`] variant, without its payload. `Debug` prints the
/// variant's name, which the per-variant metric names use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvKind {
    BatchDeliver,
    TrackExpiry,
    OrphanCheck,
    GenDone,
    SwapDone,
    MeasureDone,
    Cutoff,
    MoveDone,
    TrackRetransmit,
    SignalKick,
    SignalRetransmit,
    RequestResend,
    SubmitRequest,
    CancelRequest,
    Teardown,
    Checkpoint,
    ComponentFault,
}

impl EvKind {
    /// Every variant, in declaration order (the index of
    /// [`EvKind::index`]).
    pub const ALL: [EvKind; 17] = [
        EvKind::BatchDeliver,
        EvKind::TrackExpiry,
        EvKind::OrphanCheck,
        EvKind::GenDone,
        EvKind::SwapDone,
        EvKind::MeasureDone,
        EvKind::Cutoff,
        EvKind::MoveDone,
        EvKind::TrackRetransmit,
        EvKind::SignalKick,
        EvKind::SignalRetransmit,
        EvKind::RequestResend,
        EvKind::SubmitRequest,
        EvKind::CancelRequest,
        EvKind::Teardown,
        EvKind::Checkpoint,
        EvKind::ComponentFault,
    ];

    pub fn of(ev: &Ev) -> EvKind {
        match ev {
            Ev::BatchDeliver { .. } => EvKind::BatchDeliver,
            Ev::TrackExpiry { .. } => EvKind::TrackExpiry,
            Ev::OrphanCheck { .. } => EvKind::OrphanCheck,
            Ev::GenDone { .. } => EvKind::GenDone,
            Ev::SwapDone { .. } => EvKind::SwapDone,
            Ev::MeasureDone { .. } => EvKind::MeasureDone,
            Ev::Cutoff { .. } => EvKind::Cutoff,
            Ev::MoveDone { .. } => EvKind::MoveDone,
            Ev::TrackRetransmit { .. } => EvKind::TrackRetransmit,
            Ev::SignalKick { .. } => EvKind::SignalKick,
            Ev::SignalRetransmit { .. } => EvKind::SignalRetransmit,
            Ev::RequestResend { .. } => EvKind::RequestResend,
            Ev::SubmitRequest { .. } => EvKind::SubmitRequest,
            Ev::CancelRequest { .. } => EvKind::CancelRequest,
            Ev::Teardown { .. } => EvKind::Teardown,
            Ev::Checkpoint => EvKind::Checkpoint,
            Ev::ComponentFault { .. } => EvKind::ComponentFault,
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn layer(self) -> Layer {
        match self {
            EvKind::GenDone => Layer::Link,
            EvKind::SwapDone | EvKind::MeasureDone | EvKind::MoveDone => Layer::Qops,
            EvKind::BatchDeliver => Layer::Plane,
            EvKind::Cutoff | EvKind::TrackExpiry | EvKind::OrphanCheck => Layer::Timers,
            EvKind::TrackRetransmit | EvKind::SignalRetransmit | EvKind::RequestResend => {
                Layer::Retransmit
            }
            EvKind::SubmitRequest
            | EvKind::CancelRequest
            | EvKind::Teardown
            | EvKind::SignalKick => Layer::Control,
            EvKind::Checkpoint => Layer::Checkpoint,
            EvKind::ComponentFault => Layer::Faults,
        }
    }
}

/// A layer of the runtime, as the per-layer metrics roll it up.
/// `Routing` is the controller's plan plus signaller install, timed by
/// the benchmark; `Engine` is what remains of the run's wall time: the
/// event queue and the benchmark's own glue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Link,
    Qops,
    Plane,
    Timers,
    Retransmit,
    Control,
    Checkpoint,
    Faults,
    Routing,
    Engine,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::Link,
        Layer::Qops,
        Layer::Plane,
        Layer::Timers,
        Layer::Retransmit,
        Layer::Control,
        Layer::Checkpoint,
        Layer::Faults,
        Layer::Routing,
        Layer::Engine,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Link => "link",
            Layer::Qops => "qops",
            Layer::Plane => "plane",
            Layer::Timers => "timers",
            Layer::Retransmit => "retransmit",
            Layer::Control => "control",
            Layer::Checkpoint => "checkpoint",
            Layer::Faults => "faults",
            Layer::Routing => "routing",
            Layer::Engine => "engine",
        }
    }
}

/// Dispatch count and summed `handle` wall time per [`EvKind`].
#[derive(Clone, Default, Debug)]
pub struct EvProfile {
    pub count: [u64; EvKind::ALL.len()],
    pub busy: [Duration; EvKind::ALL.len()],
}

impl EvProfile {
    pub fn total_busy(&self) -> Duration {
        self.busy.iter().sum()
    }

    pub fn count_of(&self, kind: EvKind) -> u64 {
        self.count[kind.index()]
    }
}

/// Access to the wrapped runtime, whether traced or not.
pub trait Hosted: Model<Event = Ev> {
    fn net(&self) -> &NetworkModel;
    fn net_mut(&mut self) -> &mut NetworkModel;
}

impl Hosted for NetworkModel {
    fn net(&self) -> &NetworkModel {
        self
    }
    fn net_mut(&mut self) -> &mut NetworkModel {
        self
    }
}

/// The runtime under a per-variant stopwatch.
pub struct Traced {
    pub net: NetworkModel,
    pub profile: EvProfile,
}

impl Traced {
    pub fn new(net: NetworkModel) -> Self {
        Traced {
            net,
            profile: EvProfile::default(),
        }
    }
}

impl Model for Traced {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, ctx: &mut Context<'_, Ev>) {
        let k = EvKind::of(&event).index();
        let t0 = Instant::now();
        self.net.handle(now, event, ctx);
        self.profile.busy[k] += t0.elapsed();
        self.profile.count[k] += 1;
    }
}

impl Hosted for Traced {
    fn net(&self) -> &NetworkModel {
        &self.net
    }
    fn net_mut(&mut self) -> &mut NetworkModel {
        &mut self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_variants_in_index_order() {
        for (i, k) in EvKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "{k:?}");
        }
    }
}
