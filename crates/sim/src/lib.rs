//! # livescope-sim — deterministic discrete-event simulation kernel
//!
//! Every experiment in the `livescope` workspace runs on this kernel. The
//! design goals mirror the measurement methodology of the IMC'16 paper this
//! workspace reproduces:
//!
//! * **Determinism.** A run is a pure function of `(initial state, seed)`.
//!   The event queue breaks timestamp ties by insertion sequence, and all
//!   randomness is drawn from named [`rng::RngPool`] streams forked from a
//!   single root seed, so adding a component never perturbs the draws seen
//!   by another.
//! * **Microsecond resolution.** The paper measures delays from tens of
//!   milliseconds (one video frame is 40 ms) up to tens of seconds, and the
//!   crawler polls every 100 ms; [`time::SimTime`] counts microseconds in a
//!   `u64`, giving ~584k years of range with no floating-point drift.
//! * **Simplicity over cleverness.** Following the smoltcp design ethos, the
//!   kernel is a plain binary heap of boxed closures per shard — no macros,
//!   no unsafe, no trait gymnastics.
//!
//! ## Quick tour
//!
//! ```
//! use livescope_sim::{RngPool, ShardId, ShardedScheduler, SimDuration, SimTime};
//!
//! // One shard (state: an event log), barriers every second.
//! let mut sched =
//!     ShardedScheduler::new(RngPool::new(7), vec![Vec::new()], SimDuration::from_secs(1));
//! sched.schedule(
//!     ShardId(0),
//!     SimTime::from_millis(40),
//!     Box::new(|ctx, log: &mut Vec<u64>| log.push(ctx.now().as_micros())),
//! );
//! sched.run();
//! assert_eq!(sched.into_states(), vec![vec![40_000]]);
//! ```
//!
//! ## One scheduler, any lane count
//!
//! [`ShardedScheduler`] partitions the world into per-datacenter shards
//! with explicit mailboxes and epoch barriers: same seed ⇒ same trace
//! bytes, for any lane count, optionally executed by worker threads behind
//! the `parallel` feature. A one-shard run is a strict `(time, insertion)`
//! event loop. Events are written against the [`EventCtx`] handler
//! contract; see the [`sharded`] module docs for the lane model and merge
//! rules.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backend;
pub mod dist;
pub mod rng;
pub mod sharded;
pub mod time;

pub use backend::{BackendEvent, EventCtx, ShardId};
pub use rng::RngPool;
pub use sharded::ShardedScheduler;
pub use time::{SimDuration, SimTime};

/// The one-shard event loop that single-shard workloads (the delay
/// breakdown, crawler coverage) run on: a [`ShardedScheduler`] with one
/// shard is a strict `(time, insertion)` loop with no mailbox traffic.
#[cfg(test)]
mod engine {
    #[cfg(test)]
    mod tests {
        use livescope_telemetry::Telemetry;

        use crate::{RngPool, ShardId, ShardedScheduler, SimDuration, SimTime};

        fn one_shard<S: Send + 'static>(state: S) -> ShardedScheduler<S> {
            ShardedScheduler::new(RngPool::new(1), vec![state], SimDuration::from_secs(1))
        }

        fn push(tag: u32) -> crate::BackendEvent<Vec<u32>> {
            Box::new(move |_, log: &mut Vec<u32>| log.push(tag))
        }

        #[test]
        fn events_fire_in_time_order() {
            let mut s = one_shard(Vec::new());
            s.schedule(ShardId(0), SimTime::from_secs(3), push(3));
            s.schedule(ShardId(0), SimTime::from_secs(1), push(1));
            s.schedule(ShardId(0), SimTime::from_secs(2), push(2));
            s.run();
            assert_eq!(s.events_fired(), 3);
            assert_eq!(s.into_states(), vec![vec![1, 2, 3]]);
        }

        #[test]
        fn events_can_schedule_events() {
            let mut s = one_shard(Vec::new());
            s.schedule(
                ShardId(0),
                SimTime::from_secs(1),
                Box::new(|ctx, log: &mut Vec<u64>| {
                    log.push(ctx.now().as_micros());
                    ctx.schedule_in(
                        SimDuration::from_secs(1),
                        Box::new(|ctx, log: &mut Vec<u64>| log.push(ctx.now().as_micros())),
                    );
                }),
            );
            let end = s.run();
            assert_eq!(end, SimTime::from_secs(2));
            assert_eq!(s.events_fired(), 2);
            assert_eq!(s.into_states(), vec![vec![1_000_000, 2_000_000]]);
        }

        #[test]
        fn run_until_respects_horizon() {
            let mut s = one_shard(Vec::new());
            s.schedule(ShardId(0), SimTime::from_secs(1), push(1));
            s.schedule(ShardId(0), SimTime::from_secs(10), push(10));
            s.run_until(SimTime::from_secs(5));
            assert_eq!(s.state(ShardId(0)), &vec![1]);
            assert_eq!(s.pending(), 1);
            s.run();
            assert_eq!(s.into_states(), vec![vec![1, 10]]);
        }

        #[test]
        fn advance_to_parks_the_clock() {
            let mut s = one_shard(());
            s.schedule(ShardId(0), SimTime::from_secs(1), Box::new(|_, _| {}));
            let end = s.advance_to(SimTime::from_secs(30));
            assert_eq!(end, SimTime::from_secs(30));
            assert_eq!(s.now(), SimTime::from_secs(30));
            assert_eq!(s.events_fired(), 1);
        }

        /// There is no `cancel`: an event is dropped by stopping before
        /// it. Only events that actually fire may be counted.
        #[test]
        fn telemetry_counts_fired_and_cancelled() {
            let t = Telemetry::recording(64);
            let mut s = one_shard(Vec::new());
            s.set_telemetry(&t);
            s.schedule(ShardId(0), SimTime::from_secs(1), push(1));
            s.schedule(ShardId(0), SimTime::from_secs(2), push(2));
            s.run_until(SimTime::from_secs(1));
            assert_eq!(s.pending(), 1);
            let snap = t.snapshot();
            assert_eq!(snap.counter("sim.sharded.events_fired"), Some(1));
            assert_eq!(snap.counter("sim.shard.0.events_fired"), Some(1));
            assert_eq!(snap.counter("sim.sharded.mail_delivered"), Some(0));
        }
    }
}
