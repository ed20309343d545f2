//! The handler contract of the event loop.
//!
//! Events are boxed closures fired with two arguments: an [`EventCtx`]
//! view of the executing shard and `&mut` access to that shard's state.
//! [`EventCtx<S>`] is everything a firing event may do — look at the
//! clock, draw from the shard's RNG pool, schedule follow-ups on its own
//! shard, send mail to another shard, and emit trace events. The driver
//! side (create shards, seed events, run, read states back) is
//! [`ShardedScheduler`]'s inherent API.
//!
//! Shard `i` draws from the RNG pool `root.child_indexed("shard", i)`, so
//! a shard's stream never depends on how many siblings it has.
//!
//! [`ShardedScheduler`]: crate::ShardedScheduler

use livescope_telemetry::TraceEvent;

use crate::rng::RngPool;
use crate::time::{SimDuration, SimTime};

/// Identifies one shard of a [`crate::ShardedScheduler`].
///
/// In the livescope workloads the shard key is a datacenter: each Wowza
/// ingest site or Fastly POP gets its own lane, following the paper's §5.3
/// observation that delay components decompose per datacenter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u16);

impl ShardId {
    /// The shard's position in the scheduler's state vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// A scheduled event: fired with the context view and `&mut` access
/// to its shard's state. `Send` so shards can run on worker threads.
pub type BackendEvent<S> = Box<dyn FnOnce(&mut dyn EventCtx<S>, &mut S) + Send>;

/// What a firing event is allowed to do.
///
/// Everything here is shard-local except [`EventCtx::send_to`], which is
/// the *only* way to reach another shard — the scheduler delivers it
/// through a mailbox at the next epoch barrier, never by direct mutation.
pub trait EventCtx<S> {
    /// Current simulated instant on this shard's clock.
    fn now(&self) -> SimTime;

    /// The shard this event is executing on.
    fn shard(&self) -> ShardId;

    /// This shard's deterministic RNG pool
    /// (`root.child_indexed("shard", i)`).
    fn pool(&self) -> RngPool;

    /// Schedules a follow-up on this shard at absolute time `at`
    /// (clamped to `now`: an event never fires in the past).
    fn schedule_at(&mut self, at: SimTime, event: BackendEvent<S>);

    /// Schedules a follow-up on this shard after `delay`.
    fn schedule_in(&mut self, delay: SimDuration, event: BackendEvent<S>) {
        let at = self.now() + delay;
        self.schedule_at(at, event);
    }

    /// Sends an event to `dest`, requesting delivery at `at`.
    ///
    /// Sending to the executing shard is exactly [`EventCtx::schedule_at`].
    /// Sending to another shard goes through the mailbox: delivery is
    /// deferred to `max(at, next epoch barrier)`, so cross-shard causality
    /// never outruns the barrier. Panics if `dest` does not exist.
    fn send_to(&mut self, dest: ShardId, at: SimTime, event: BackendEvent<S>);

    /// Emits a trace event stamped with the shard clock. The event is
    /// buffered per shard and merged into the attached telemetry sink in
    /// `(time, shard_id, seq)` order at the next barrier.
    fn emit(&mut self, event: TraceEvent);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedScheduler;

    fn single_lane<S: Send + 'static>(state: S) -> ShardedScheduler<S> {
        ShardedScheduler::new(RngPool::new(1), vec![state], SimDuration::from_secs(1))
    }

    #[test]
    fn single_lane_runs_backend_events_in_order() {
        let mut s = single_lane(Vec::<u64>::new());
        s.schedule(
            ShardId(0),
            SimTime::from_secs(2),
            Box::new(|ctx, log: &mut Vec<u64>| log.push(ctx.now().as_micros())),
        );
        s.schedule(
            ShardId(0),
            SimTime::from_secs(1),
            Box::new(|ctx, log: &mut Vec<u64>| {
                log.push(ctx.now().as_micros());
                ctx.schedule_in(
                    SimDuration::from_millis(500),
                    Box::new(|ctx, log: &mut Vec<u64>| log.push(ctx.now().as_micros())),
                );
            }),
        );
        let end = s.run();
        assert_eq!(end, SimTime::from_secs(2));
        assert_eq!(s.into_states(), vec![vec![1_000_000, 1_500_000, 2_000_000]]);
    }

    #[test]
    fn single_lane_send_to_self_is_local_schedule() {
        let mut s = single_lane(0u64);
        s.schedule(
            ShardId(0),
            SimTime::ZERO,
            Box::new(|ctx, _: &mut u64| {
                ctx.send_to(
                    ShardId(0),
                    ctx.now() + SimDuration::from_secs(1),
                    Box::new(|ctx, n: &mut u64| *n = ctx.now().as_micros()),
                );
            }),
        );
        s.run();
        assert_eq!(s.events_fired(), 2);
        assert_eq!(s.mail_delivered(), 0, "send to self bypasses the mailbox");
        assert_eq!(*s.state(ShardId(0)), 1_000_000);
    }
}
