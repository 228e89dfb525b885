//! Event queue and fluid resource pools.
//!
//! The simulator is a classic discrete-event engine plus *fluid flows* for
//! contended resources. A [`FluidPool`] models processor sharing: `n`
//! concurrent flows each progress at `min(per_flow_cap, capacity / n)`.
//! Whenever the flow set changes, all flows' progress is advanced to the
//! current instant and the pool's next completion is rescheduled; stale
//! completion events are recognized by an epoch counter. This models the
//! paper's contended devices — the shared filesystem's aggregate bandwidth
//! and IOPS, each worker's local SSD, and each node's NIC — without
//! per-packet simulation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vine_core::{SimDuration, SimTime};

/// A scheduled event: time-ordered, FIFO within the same instant.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic time-ordered event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.heap.push(Reverse(Scheduled {
            at: at.max(self.now),
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Pop the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(s) = self.heap.pop()?;
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Time of the next event without popping (the clock does not move).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Identifier of a flow within a pool.
pub type FlowId = u64;

#[derive(Debug, Clone)]
struct Flow {
    remaining: f64,
    /// Original transfer size (scales the completion tolerance).
    amount: f64,
}

/// A processor-shared fluid resource.
///
/// Progress is tracked eagerly: each advance decrements every active
/// flow's `remaining` by the shared service delivered over the interval.
///
/// A virtual-service-accumulator variant (one shared scalar advanced in
/// O(1), flows stored as fixed finish levels in an ordered map) was
/// evaluated and rejected: it computes the same real-number values, but
/// with different f64 rounding than this per-flow fold, and completion
/// instants are quantized to whole microseconds — the ~1e-8-unit rounding
/// difference is enough to flip a `.round()` boundary, shifting events by
/// 1 µs and cascading into different (though equally valid) schedules.
/// Reproducibility of recorded experiment baselines is worth more here
/// than O(1) advance: a pool's flow count is bounded by one device's
/// concurrency, so the eager loop is short, while the decision-path
/// indexes (see `vine-manager`) carry the asymptotic load.
///
/// Flows live in a `Vec` kept sorted ascending by [`FlowId`] — ids are
/// assigned from a global monotone counter, so the sort order is dispatch
/// order, exactly what the old `BTreeMap` keying produced. The dense
/// layout turns every advance into a linear walk over contiguous memory,
/// [`FluidPool::take_completed`] into one in-order `retain` pass (the
/// `BTreeMap` version collected completed ids and then removed them one
/// lookup each), and insertion into a binary-search `Vec::insert` (cheap:
/// a pool's flow set is bounded by one device's concurrency).
#[derive(Debug)]
pub struct FluidPool {
    /// Aggregate capacity (bytes/s, ops/s, ...).
    capacity: f64,
    /// Per-flow ceiling (e.g. one client's NIC when reading a shared FS).
    per_flow_cap: f64,
    /// Active flows, sorted ascending by id.
    flows: Vec<(FlowId, Flow)>,
    last_advance: SimTime,
    /// Bumped on every flow-set change; completion events carry the epoch
    /// they were computed under and are ignored if stale.
    pub epoch: u64,
}

/// Absolute completion slack, in transfer units (legacy constant).
const EPS_ABS: f64 = 1e-6;
/// Relative completion slack: amounts are bytes, so a multi-GB flow sits
/// numerically far from any absolute epsilon (ulp of 1e10 is already
/// ~2e-6) — the tolerance must scale with the flow size.
const EPS_REL: f64 = 1e-9;

impl FluidPool {
    pub fn new(capacity: f64, per_flow_cap: f64) -> FluidPool {
        FluidPool {
            capacity: capacity.max(1e-9),
            per_flow_cap: per_flow_cap.max(1e-9),
            flows: Vec::new(),
            last_advance: SimTime::ZERO,
            epoch: 0,
        }
    }

    pub fn rate(&self) -> f64 {
        if self.flows.is_empty() {
            return self.per_flow_cap;
        }
        (self.capacity / self.flows.len() as f64).min(self.per_flow_cap)
    }

    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Advance all flows' progress to `now`.
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.last_advance).as_secs_f64();
        if dt > 0.0 && !self.flows.is_empty() {
            let done = self.rate() * dt;
            for (_, f) in self.flows.iter_mut() {
                f.remaining = (f.remaining - done).max(0.0);
            }
        }
        self.last_advance = now;
    }

    /// A flow's completion tolerance: absolute floor plus a term
    /// proportional to its size.
    fn eps(amount: f64) -> f64 {
        EPS_ABS + EPS_REL * amount
    }

    /// Add a flow of `amount` units. Caller must then reschedule via
    /// [`FluidPool::next_completion`].
    pub fn add(&mut self, now: SimTime, id: FlowId, amount: f64) {
        self.advance(now);
        self.epoch += 1;
        let flow = Flow {
            remaining: amount.max(0.0),
            amount: amount.max(0.0),
        };
        match self.flows.binary_search_by_key(&id, |(fid, _)| *fid) {
            Ok(i) => self.flows[i] = (id, flow),
            Err(i) => self.flows.insert(i, (id, flow)),
        }
    }

    /// Remove and return flows that have completed as of `now`, ascending
    /// by id — one in-order pass over the (sorted) flow set.
    pub fn take_completed(&mut self, now: SimTime) -> Vec<FlowId> {
        self.advance(now);
        let mut done = Vec::new();
        self.flows.retain(|(id, f)| {
            if f.remaining <= Self::eps(f.amount) {
                done.push(*id);
                false
            } else {
                true
            }
        });
        if !done.is_empty() {
            self.epoch += 1;
        }
        done
    }

    /// Forcibly remove a flow (fault injection: its worker died).
    pub fn cancel(&mut self, now: SimTime, id: FlowId) -> bool {
        self.advance(now);
        match self.flows.binary_search_by_key(&id, |(fid, _)| *fid) {
            Ok(i) => {
                self.flows.remove(i);
                self.epoch += 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Earliest time any current flow completes, given the current flow
    /// set. `None` if idle. One pass; `f64::min` is order-insensitive, so
    /// the fold matches the old map-ordered version bit for bit.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        let min_remaining = self
            .flows
            .iter()
            .map(|(_, f)| f.remaining)
            .fold(f64::INFINITY, f64::min);
        if min_remaining.is_infinite() {
            return None;
        }
        let secs = min_remaining / self.rate();
        Some(now + SimDuration::from_secs_f64(secs.max(0.0)) + SimDuration::from_micros(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_orders_by_time_then_fifo() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule(SimTime(100), "b");
        q.schedule(SimTime(50), "a");
        q.schedule(SimTime(100), "c");
        assert_eq!(q.pop().unwrap(), (SimTime(50), "a"));
        assert_eq!(q.now(), SimTime(50));
        assert_eq!(q.pop().unwrap(), (SimTime(100), "b"));
        assert_eq!(q.pop().unwrap(), (SimTime(100), "c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn single_flow_runs_at_per_flow_cap() {
        let mut p = FluidPool::new(100.0, 10.0);
        p.add(SimTime::ZERO, 1, 50.0);
        assert_eq!(p.rate(), 10.0);
        let done_at = p.next_completion(SimTime::ZERO).unwrap();
        // 50 units at 10/s = 5 s
        assert!((done_at.as_secs_f64() - 5.0).abs() < 1e-3, "{done_at}");
        assert!(p.take_completed(SimTime::from_secs_f64(4.9)).is_empty());
        assert_eq!(p.take_completed(done_at), vec![1]);
    }

    #[test]
    fn many_flows_share_capacity() {
        let mut p = FluidPool::new(100.0, 100.0);
        for i in 0..10 {
            p.add(SimTime::ZERO, i, 100.0);
        }
        // 10 flows share 100/s → 10/s each → 10 s
        assert_eq!(p.rate(), 10.0);
        let done = p.next_completion(SimTime::ZERO).unwrap();
        assert!((done.as_secs_f64() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn flow_departure_speeds_up_remainder() {
        let mut p = FluidPool::new(100.0, 100.0);
        p.add(SimTime::ZERO, 1, 100.0);
        p.add(SimTime::ZERO, 2, 200.0);
        // both run at 50/s; flow 1 done at t=2
        let t1 = p.next_completion(SimTime::ZERO).unwrap();
        assert!((t1.as_secs_f64() - 2.0).abs() < 1e-3);
        assert_eq!(p.take_completed(t1), vec![1]);
        // flow 2 has 100 left, now alone at 100/s → done 1 s later
        let t2 = p.next_completion(t1).unwrap();
        assert!((t2.as_secs_f64() - 3.0).abs() < 1e-2, "{t2}");
    }

    #[test]
    fn epoch_bumps_on_changes() {
        let mut p = FluidPool::new(10.0, 10.0);
        let e0 = p.epoch;
        p.add(SimTime::ZERO, 1, 5.0);
        assert!(p.epoch > e0);
        let e1 = p.epoch;
        p.cancel(SimTime::ZERO, 1);
        assert!(p.epoch > e1);
        // cancelling a missing flow does not bump
        let e2 = p.epoch;
        assert!(!p.cancel(SimTime::ZERO, 1));
        assert_eq!(p.epoch, e2);
    }

    #[test]
    fn zero_amount_flow_completes_immediately() {
        let mut p = FluidPool::new(10.0, 10.0);
        p.add(SimTime::ZERO, 7, 0.0);
        assert_eq!(p.take_completed(SimTime::ZERO), vec![7]);
    }

    #[test]
    fn advance_is_idempotent_at_same_instant() {
        let mut p = FluidPool::new(10.0, 10.0);
        p.add(SimTime::ZERO, 1, 100.0);
        p.advance(SimTime::from_secs_f64(1.0));
        p.advance(SimTime::from_secs_f64(1.0));
        // after 1 s at 10/s, 90 remain → completion 9 s later
        let t = p.next_completion(SimTime::from_secs_f64(1.0)).unwrap();
        assert!((t.as_secs_f64() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn peek_time_does_not_advance_clock() {
        let mut q: EventQueue<&str> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime(70), "x");
        q.schedule(SimTime(30), "y");
        assert_eq!(q.peek_time(), Some(SimTime(30)));
        assert_eq!(q.now(), SimTime::ZERO, "peek must not move the clock");
        assert_eq!(q.pop().unwrap(), (SimTime(30), "y"));
        assert_eq!(q.peek_time(), Some(SimTime(70)));
    }

    #[test]
    fn gb_scale_flow_completes_despite_float_rounding() {
        // regression for the absolute-only EPS = 1e-6: amounts are bytes,
        // so a multi-GB flow sits numerically far from 1e-6 — f64 rounding
        // in the rate × dt products alone can leave a few bytes "remaining"
        // at the modeled finish instant and stall the flow one reschedule
        // short of done. The tolerance must scale with the flow size.
        // 1e6 B/s makes one microsecond of service equal one byte, so the
        // shortfall below is representable in integer sim-time.
        let mut p = FluidPool::new(1e6, 1e6);
        p.add(SimTime::ZERO, 1, 10e9);
        // stop 5 bytes short of the finish: far beyond the absolute 1e-6
        // tolerance, but within the size-relative one (10 bytes for 10 GB)
        let shy = SimTime::from_secs_f64((10e9 - 5.0) / 1e6);
        assert_eq!(p.take_completed(shy), vec![1]);

        // a genuine 1 MB shortfall must still count as in-flight
        let mut p = FluidPool::new(1e6, 1e6);
        p.add(SimTime::ZERO, 2, 10e9);
        let far = SimTime::from_secs_f64((10e9 - 1e6) / 1e6);
        assert!(p.take_completed(far).is_empty());
        assert_eq!(p.active(), 1);
    }

    #[test]
    fn pool_reuse_after_drain() {
        let mut p = FluidPool::new(10.0, 10.0);
        p.add(SimTime::ZERO, 1, 50.0);
        let t1 = p.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(p.take_completed(t1), vec![1]);
        // a fresh flow after the pool drained behaves exactly like one in
        // a brand-new pool
        p.add(t1, 2, 30.0);
        let t2 = p.next_completion(t1).unwrap();
        assert!((t2.since(t1).as_secs_f64() - 3.0).abs() < 1e-3, "{t2}");
        assert_eq!(p.take_completed(t2), vec![2]);
    }

    #[test]
    fn completed_ids_come_back_sorted() {
        let mut p = FluidPool::new(100.0, 100.0);
        // insert in scrambled order; completions report ascending by id
        for id in [9, 3, 7, 1] {
            p.add(SimTime::ZERO, id, 100.0);
        }
        let t = p.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(p.take_completed(t), vec![1, 3, 7, 9]);
    }
}
