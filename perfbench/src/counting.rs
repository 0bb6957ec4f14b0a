//! Delegating routing and traffic wrappers for the traced run.
//!
//! They count `route()` calls, `None` stalls and destination draws without a
//! per-call timer, which would perturb the routing phase they sit in.  The
//! counts live in `Cell`s owned by the wrapper (one uncontended increment per
//! call) and are added to a shared [`Tally`] when the network drops the
//! wrapper.  The traced run's output check proves them passive: its report
//! must equal the unwrapped run's byte for byte.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dragonfly_rng::Rng;
use dragonfly_sim::{FlowControl, Packet, RouteChoice, RouteCtx, RouterView, RoutingAlgorithm};
use dragonfly_topology::{DragonflyParams, NodeId};
use dragonfly_traffic::TrafficPattern;

/// Counts folded in from dropped wrappers.  Statistics only, so `Relaxed`.
#[derive(Debug, Default)]
pub struct Tally {
    route_calls: AtomicU64,
    route_stalls: AtomicU64,
    destination_draws: AtomicU64,
}

impl Tally {
    /// `(route calls, route stalls, destination draws)` folded in so far.
    pub fn counts(&self) -> (u64, u64, u64) {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        (
            get(&self.route_calls),
            get(&self.route_stalls),
            get(&self.destination_draws),
        )
    }
}

/// A routing mechanism that counts its calls and stalls.
pub struct CountingRouting<R> {
    inner: R,
    calls: Cell<u64>,
    stalls: Cell<u64>,
    tally: Arc<Tally>,
}

impl<R> CountingRouting<R> {
    pub fn new(inner: R, tally: Arc<Tally>) -> Self {
        Self {
            inner,
            calls: Cell::new(0),
            stalls: Cell::new(0),
            tally,
        }
    }
}

/// A clone starts from zero so no call is counted twice.
impl<R: Clone> Clone for CountingRouting<R> {
    fn clone(&self) -> Self {
        Self::new(self.inner.clone(), Arc::clone(&self.tally))
    }
}

impl<R> Drop for CountingRouting<R> {
    fn drop(&mut self) {
        let t = &self.tally;
        t.route_calls.fetch_add(self.calls.get(), Ordering::Relaxed);
        t.route_stalls
            .fetch_add(self.stalls.get(), Ordering::Relaxed);
    }
}

impl<R: RoutingAlgorithm> RoutingAlgorithm for CountingRouting<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn required_local_vcs(&self) -> usize {
        self.inner.required_local_vcs()
    }

    fn required_global_vcs(&self) -> usize {
        self.inner.required_global_vcs()
    }

    fn supports_flow_control(&self, fc: FlowControl) -> bool {
        self.inner.supports_flow_control(fc)
    }

    #[inline]
    fn route(
        &self,
        ctx: &RouteCtx<'_>,
        packet: &Packet,
        view: &RouterView<'_>,
        rng: &mut Rng,
    ) -> Option<RouteChoice> {
        self.calls.set(self.calls.get() + 1);
        let choice = self.inner.route(ctx, packet, view, rng);
        if choice.is_none() {
            self.stalls.set(self.stalls.get() + 1);
        }
        choice
    }
}

/// A traffic pattern that counts its destination draws.
pub struct CountingPattern {
    inner: Box<dyn TrafficPattern>,
    draws: Cell<u64>,
    tally: Arc<Tally>,
}

impl CountingPattern {
    pub fn new(inner: Box<dyn TrafficPattern>, tally: Arc<Tally>) -> Self {
        Self {
            inner,
            draws: Cell::new(0),
            tally,
        }
    }
}

impl Drop for CountingPattern {
    fn drop(&mut self) {
        self.tally
            .destination_draws
            .fetch_add(self.draws.get(), Ordering::Relaxed);
    }
}

impl TrafficPattern for CountingPattern {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn destination(&self, src: NodeId, params: &DragonflyParams, rng: &mut Rng) -> NodeId {
        self.draws.set(self.draws.get() + 1);
        self.inner.destination(src, params, rng)
    }

    fn destination_at(
        &self,
        cycle: u64,
        src: NodeId,
        params: &DragonflyParams,
        rng: &mut Rng,
    ) -> NodeId {
        self.draws.set(self.draws.get() + 1);
        self.inner.destination_at(cycle, src, params, rng)
    }
}
