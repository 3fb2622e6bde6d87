//! A small deterministic discrete-event simulation engine.
//!
//! Events carry a timestamp in microseconds of virtual time and a payload.
//! Ties are broken by sequence number, so a simulation that pushes events
//! in a deterministic order replays identically — a property the
//! integration tests assert.
//!
//! Network simulations schedule many events at few distinct times (one per
//! combination of link latency and payload), so [`EventQueue`] buckets
//! events by exact time instead of heap-ordering every event: a min-heap of
//! the distinct later times, a hash map from each to its bucket of events
//! (filled unsorted), and a head bucket holding the earliest time's events
//! sorted by seq. Pops come off the head in order; a bucket is sorted once,
//! when it becomes the head.

use std::cmp::{Ordering, Reverse};
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// A timestamped event with payload `T`.
#[derive(Debug, Clone)]
pub struct Event<T> {
    /// Virtual time of the event in microseconds.
    pub time_us: f64,
    /// Monotonic sequence number used for deterministic tie-breaking.
    pub seq: u64,
    /// The event payload.
    pub payload: T,
}

impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time_us == other.time_us && self.seq == other.seq
    }
}
impl<T> Eq for Event<T> {}

impl<T> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed (time, seq): a `BinaryHeap<Event>` pops the earliest
        // event first, the order [`EventQueue`] pops in. NaN times are
        // rejected at push, so partial_cmp is total here.
        other
            .time_us
            .partial_cmp(&self.time_us)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Bucket key of an event time. Scheduled times are finite and not
/// negative, and on such floats the order of the bit patterns is numeric
/// order; `+ 0.0` folds `-0.0` into `0.0`, the one pair of equal times
/// with different bits.
fn time_key(time_us: f64) -> u64 {
    (time_us + 0.0).to_bits()
}

/// Hashes a [`time_key`] with one multiply, folding the product's high
/// half (which every key bit reaches) into the low bits the table indexes
/// by. The keys come from the simulation, not from an adversary, and the
/// map is never iterated, so its order cannot reach any output.
#[derive(Default)]
struct TimeKeyHasher(u64);

impl Hasher for TimeKeyHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("time keys hash through write_u64");
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Largest bucket capacity, in events, that [`EventQueue`] keeps for
/// reuse once the bucket empties; larger buckets are freed.
///
/// Recycling every emptied bucket let capacity pile up far beyond what is
/// pending: D1's 131072-leader row never has more than 3.00 MiB of events
/// queued, yet its buckets came to hold 42.1 MiB, because the largest
/// spares (the start bucket above all) went to buckets that then held a
/// few events. With this bound they peak at 7.6 MiB. Measured on a 2-vCPU
/// KVM host: freeing every emptied bucket instead cut the row's peak RSS
/// from 48.0 to 24.4 MiB, but made `des_small`, whose heaps stay in cache,
/// slower in 8 of 10 interleaved pairs (median 190.9 → 194.6 ms) from
/// allocator churn; keeping spares of at most 4,096 events (96 KiB of
/// 24-byte events) gave a 23.0 MiB peak and left `des_small` level (4 of
/// 10 pairs faster, medians 192.7 vs 193.0 ms). Capping the pool's total
/// capacity at the pending count left the row at 40.9 MiB: pending buckets
/// keep the oversized spares they took.
const RECYCLE_MAX_EVENTS: usize = 4096;

/// A priority queue of events ordered by (time, sequence).
///
/// Scheduling at a time already pending costs one hash lookup; at a new
/// time it also pushes the time onto the key heap, O(log k) for `k`
/// distinct pending times; at the head's time it is a binary-search insert
/// into the head bucket. A pop is O(1) plus, when the head bucket empties,
/// one key-heap pop and one sort of the next bucket by seq: O(log m) per
/// event for `m` events per time. The worst case, every time distinct,
/// gives every event its own bucket, key-heap entry and map entry: the
/// same O(log n) per event as a binary heap of events, at a larger
/// constant (DESIGN.md §9 has measurements).
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Events at the earliest pending time, ascending by seq. Empty exactly
    /// when the queue is.
    head: VecDeque<Event<T>>,
    /// [`time_key`] of the head bucket's time.
    head_key: u64,
    /// Keys of every later pending time, earliest on top.
    keys: BinaryHeap<Reverse<u64>>,
    /// Events at every later pending time, unsorted within a bucket.
    later: HashMap<u64, Vec<Event<T>>, BuildHasherDefault<TimeKeyHasher>>,
    /// Emptied buckets of at most [`RECYCLE_MAX_EVENTS`] capacity, kept
    /// for their allocations.
    spare: Vec<Vec<Event<T>>>,
    next_seq: u64,
    now_us: f64,
    scheduled_total: u64,
    popped_total: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue at virtual time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue at virtual time zero whose first time bucket
    /// has room for `capacity` events. Simulations that open with one root
    /// event per entity at a single time (e.g. every rank starting at zero)
    /// pre-size it so filling the queue never reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            head: VecDeque::with_capacity(capacity),
            head_key: 0,
            keys: BinaryHeap::new(),
            later: HashMap::default(),
            spare: Vec::new(),
            next_seq: 0,
            now_us: 0.0,
            scheduled_total: 0,
            popped_total: 0,
        }
    }

    /// Current virtual time: the timestamp of the last popped event, or 0.
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Schedule `payload` at absolute virtual time `time_us`.
    ///
    /// # Contract
    /// `time_us` must be a finite float no earlier than [`Self::now_us`].
    /// Non-finite times (NaN, `+inf`, `-inf` — the latter is the non-finite
    /// *negative-time* case) are rejected uniformly rather than being left
    /// to scramble the queue's ordering or hang a drain loop, and past times
    /// are a causality violation: virtual time only moves forward.
    ///
    /// # Panics
    /// Panics if `time_us` is not finite, or is earlier than the current
    /// virtual time (causality violation).
    pub fn schedule_at(&mut self, time_us: f64, payload: T) {
        let seq = self.take_seq();
        self.schedule_with_seq(time_us, seq, payload);
    }

    /// Schedule `payload` at `time_us` with a caller-chosen sequence number.
    ///
    /// This is the seam the sharded engine uses: a cross-shard message must
    /// keep the sequence number minted on its *source* shard so that the
    /// merged `(time, seq)` order is independent of which worker drained
    /// which mailbox. Callers own the seq space — mixing explicit seqs with
    /// [`Self::schedule_at`]'s internal counter is only deterministic if the
    /// two ranges cannot collide (the sharded engine sets the top bit on
    /// derived seqs for exactly this reason).
    ///
    /// # Panics
    /// Same contract as [`Self::schedule_at`]: `time_us` must be finite and
    /// not in the past.
    pub fn schedule_with_seq(&mut self, time_us: f64, seq: u64, payload: T) {
        assert!(
            time_us.is_finite(),
            "event time must be finite, got {time_us}"
        );
        assert!(
            time_us >= self.now_us,
            "causality violation: scheduling at {time_us} before now {}",
            self.now_us
        );
        self.scheduled_total += 1;
        let ev = Event {
            time_us,
            seq,
            payload,
        };
        let key = time_key(time_us);
        if self.head.is_empty() {
            self.head_key = key;
            self.head.push_back(ev);
        } else if key == self.head_key {
            // An event at the head's time: usually the largest seq yet, so
            // the insert lands at the back.
            let at = self.head.partition_point(|e| e.seq < seq);
            self.head.insert(at, ev);
        } else if key < self.head_key {
            // A new earliest time: park the head bucket, still sorted, and
            // open a new head.
            let fresh = VecDeque::from(self.spare.pop().unwrap_or_default());
            let parked = std::mem::replace(&mut self.head, fresh);
            self.keys.push(Reverse(self.head_key));
            self.later.insert(self.head_key, Vec::from(parked));
            self.head_key = key;
            self.head.push_back(ev);
        } else {
            match self.later.entry(key) {
                Entry::Occupied(bucket) => bucket.into_mut().push(ev),
                Entry::Vacant(slot) => {
                    self.keys.push(Reverse(key));
                    slot.insert(self.spare.pop().unwrap_or_default()).push(ev);
                }
            }
        }
        if obs::enabled() {
            obs::add("des.events.scheduled", 1);
            obs::gauge_max("des.queue.peak_depth", self.len() as f64);
        }
    }

    /// Claim the next internal sequence number without scheduling anything.
    ///
    /// Lets an orchestrator mint seqs centrally (deterministic in program
    /// order) and hand them to [`Self::schedule_with_seq`] on whichever
    /// shard queue owns the destination entity.
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Timestamp of the earliest pending event without popping it, or
    /// `None` when the queue is empty. Does not advance virtual time —
    /// the conservative-lookahead loop uses this to compute each window's
    /// horizon before deciding whether the head event is safe to process.
    pub fn peek_time_us(&self) -> Option<f64> {
        self.head.front().map(|e| e.time_us)
    }

    /// Pop the earliest event, advancing virtual time to its timestamp.
    pub fn pop(&mut self) -> Option<Event<T>> {
        let ev = self.head.pop_front()?;
        if self.head.is_empty() {
            if let Some(Reverse(key)) = self.keys.pop() {
                let mut bucket = self.later.remove(&key).expect("every key has a bucket");
                bucket.sort_unstable_by_key(|e| e.seq);
                let emptied = std::mem::replace(&mut self.head, VecDeque::from(bucket));
                if emptied.capacity() <= RECYCLE_MAX_EVENTS {
                    self.spare.push(Vec::from(emptied));
                }
                self.head_key = key;
            }
        }
        self.now_us = ev.time_us;
        self.popped_total += 1;
        if obs::enabled() {
            obs::add("des.events.popped", 1);
        }
        Some(ev)
    }

    /// Total events ever scheduled (monotonic; not reset by pops).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total events ever popped. When the queue is drained,
    /// `popped_total() == scheduled_total()`.
    pub fn popped_total(&self) -> u64 {
        self.popped_total
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        (self.scheduled_total - self.popped_total) as usize
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty()
    }

    /// Events the queue's buckets, pending and spare, have room for.
    #[cfg(test)]
    fn retained_capacity(&self) -> usize {
        self.head.capacity()
            + self.later.values().map(Vec::capacity).sum::<usize>()
            + self.spare.iter().map(Vec::capacity).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(3.0, "c");
        q.schedule_at(1.0, "a");
        q.schedule_at(2.0, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, 1);
        q.schedule_at(5.0, 2);
        q.schedule_at(5.0, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn time_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(10.0, ());
        q.schedule_at(20.0, ());
        assert_eq!(q.now_us(), 0.0);
        q.pop();
        assert_eq!(q.now_us(), 10.0);
        q.pop();
        assert_eq!(q.now_us(), 20.0);
    }

    #[test]
    #[should_panic(expected = "causality")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(10.0, ());
        q.pop();
        q.schedule_at(5.0, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn scheduling_nan_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn scheduling_positive_infinity_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(f64::INFINITY, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn scheduling_negative_infinity_panics() {
        // -inf is both non-finite and negative; the finiteness check fires
        // first so the panic message is consistent for all non-finite input.
        let mut q = EventQueue::new();
        q.schedule_at(f64::NEG_INFINITY, ());
    }

    #[test]
    fn peek_does_not_advance_time_or_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time_us(), None);
        q.schedule_at(7.0, "x");
        q.schedule_at(3.0, "y");
        assert_eq!(q.peek_time_us(), Some(3.0));
        assert_eq!(q.now_us(), 0.0);
        assert_eq!(q.len(), 2);
        // Peeking repeatedly is idempotent.
        assert_eq!(q.peek_time_us(), Some(3.0));
        let e = q.pop().unwrap();
        assert_eq!(e.payload, "y");
        assert_eq!(q.peek_time_us(), Some(7.0));
    }

    #[test]
    fn explicit_seqs_order_ties_and_skip_the_counter() {
        let mut q = EventQueue::new();
        // Explicit seqs control tie-breaking regardless of insertion order.
        q.schedule_with_seq(5.0, 2, "second");
        q.schedule_with_seq(5.0, 1, "first");
        // The internal counter is untouched by explicit scheduling.
        assert_eq!(q.take_seq(), 0);
        assert_eq!(q.pop().unwrap().payload, "first");
        assert_eq!(q.pop().unwrap().payload, "second");
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn totals_track_schedule_and_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.scheduled_total(), 0);
        assert_eq!(q.popped_total(), 0);
        q.schedule_at(1.0, ());
        q.schedule_at(2.0, ());
        q.schedule_at(3.0, ());
        assert_eq!(q.scheduled_total(), 3);
        assert_eq!(q.popped_total(), 0);
        q.pop();
        assert_eq!(q.popped_total(), 1);
        // Pending = scheduled - popped while events remain.
        assert_eq!(
            q.len() as u64,
            q.scheduled_total() - q.popped_total(),
            "len must equal scheduled - popped"
        );
        while q.pop().is_some() {}
        // Drain invariant: every scheduled event was eventually popped.
        assert_eq!(q.popped_total(), q.scheduled_total());
        assert!(q.is_empty());
        // Totals are monotonic: draining does not reset them.
        assert_eq!(q.scheduled_total(), 3);
    }

    #[test]
    fn scheduling_reports_queue_metrics() {
        let rec = std::sync::Arc::new(obs::MemRecorder::new());
        obs::with_recorder(rec.clone(), || {
            let mut q = EventQueue::new();
            q.schedule_at(1.0, ());
            q.schedule_at(2.0, ());
            q.schedule_at(3.0, ());
            q.pop();
            q.schedule_at(4.0, ());
            while q.pop().is_some() {}
        });
        assert_eq!(rec.counter("des.events.scheduled"), Some(4));
        assert_eq!(rec.counter("des.events.popped"), Some(4));
        assert_eq!(rec.gauge("des.queue.peak_depth"), Some(3.0));
    }

    #[test]
    fn retained_bucket_capacity_follows_the_pending_events() {
        // D1's shape at a sixteenth of its largest row: one start event per
        // leader at time zero, then a recursive-doubling allreduce in which
        // a leader sends once it has its partner's previous chunk, each
        // flight priced by its hop count on TofuD's long-ring layout for
        // 16384 nodes. That is one large start bucket, then hundreds of
        // buckets of a few to a few thousand events at scattered times.
        // Recycling every emptied bucket held 12x the peak pending events
        // here; recycling only small ones holds 3.4x.
        const DIMS: [usize; 6] = [1, 2, 683, 2, 3, 2];
        let n: usize = DIMS.iter().product();
        let rounds = usize::BITS - (n - 1).leading_zeros();
        let hops = |mut a: usize, mut b: usize| {
            let mut hops = 0;
            for d in DIMS {
                let gap = (a % d).abs_diff(b % d);
                hops += gap.min(d - gap);
                (a, b) = (a / d, b / d);
            }
            hops as f64
        };
        let mut round = vec![0u32; n];
        let mut clock = vec![0.0f64; n];
        // Arrival time per (leader, round); NaN = not yet.
        let mut arrived = vec![f64::NAN; n * rounds as usize];
        let mut q = EventQueue::with_capacity(n);
        for e in 0..n {
            q.schedule_at(0.0, (e, None));
        }
        let (mut peak_pending, mut peak_retained, mut pops) = (0, 0, 0u64);
        while let Some(ev) = q.pop() {
            pops += 1;
            let (e, arrival) = ev.payload;
            let mut send = arrival.is_none();
            if let Some(r) = arrival {
                arrived[e * rounds as usize + r as usize] = ev.time_us;
            }
            while round[e] < rounds {
                let r = round[e];
                let partner = e ^ (1 << r);
                if partner < n {
                    if send {
                        let t = clock[e] + 1.0 + 0.0625 * hops(e, partner);
                        q.schedule_at(t, (partner, Some(r)));
                    }
                    let t = arrived[e * rounds as usize + r as usize];
                    if t.is_nan() {
                        break;
                    }
                    clock[e] = clock[e].max(t);
                }
                round[e] += 1;
                send = true;
            }
            peak_pending = peak_pending.max(q.len());
            if pops % 16 == 0 {
                peak_retained = peak_retained.max(q.retained_capacity());
            }
        }
        assert!(round.iter().all(|&r| r == rounds), "every leader finished");
        assert_eq!(peak_pending, n, "the start bucket is the peak");
        assert!(
            peak_retained <= 4 * peak_pending,
            "buckets held room for {peak_retained} events, {:.1}x the peak of \
             {peak_pending} pending",
            peak_retained as f64 / peak_pending as f64
        );
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(16);
        q.schedule_at(2.0, "b");
        q.schedule_at(1.0, "a");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b"]);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.popped_total(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::BinaryHeap;

    /// Few distinct times, so most events tie; both signs of zero.
    const TIMES: [f64; 7] = [-0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 3.0];

    fn bits(e: &Event<u32>) -> (u64, u64, u32) {
        (e.time_us.to_bits(), e.seq, e.payload)
    }

    /// Replays `ops` on an [`EventQueue`] and on a `BinaryHeap<Event>`,
    /// then drains both, asserting they pop the same events in the same
    /// order. An op is `(kind, time index, shift)`: kind 0 schedules with
    /// the internal counter, 1 with an explicit seq, anything else pops.
    fn check_against_reference(ops: &[(usize, usize, f64)]) -> Result<(), TestCaseError> {
        let mut q = EventQueue::new();
        let mut reference = BinaryHeap::new();
        let mut next_seq = 0;
        for (i, &(op, ti, shift)) in ops.iter().enumerate() {
            // Half the events sit on TIMES, the rest a whole number
            // later; a time below `now` is scheduled at exactly `now`.
            let now = q.now_us();
            let t = if shift < 1.0 {
                TIMES[ti]
            } else {
                TIMES[ti] + (shift * 4.0).floor()
            };
            let t = if t < now { now } else { t };
            let payload = i as u32;
            match op {
                0 => {
                    q.schedule_at(t, payload);
                    reference.push(Event {
                        time_us: t,
                        seq: next_seq,
                        payload,
                    });
                    next_seq += 1;
                }
                1 => {
                    // Explicit seqs out of insertion order, disjoint
                    // from the counter's range.
                    let seq = (1 << 62) | ((i as u64).wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF);
                    q.schedule_with_seq(t, seq, payload);
                    reference.push(Event {
                        time_us: t,
                        seq,
                        payload,
                    });
                }
                _ => {
                    prop_assert_eq!(
                        q.peek_time_us().map(f64::to_bits),
                        reference.peek().map(|e| e.time_us.to_bits())
                    );
                    let got = q.pop();
                    let want = reference.pop();
                    prop_assert_eq!(got.as_ref().map(bits), want.as_ref().map(bits));
                }
            }
            prop_assert_eq!(q.len(), reference.len());
        }
        while let Some(want) = reference.pop() {
            let got = q.pop().expect("queue drains with the reference");
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(q.now_us().to_bits(), want.time_us.to_bits());
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.popped_total(), q.scheduled_total());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        #[test]
        fn pop_order_matches_the_reference_through_buckets_too_large_to_recycle(
            burst in proptest::collection::vec((0usize..2, 0usize..TIMES.len()), 15_000..20_000),
            tail in proptest::collection::vec((0usize..4, 0usize..TIMES.len(), 0.0f64..2.0), 1..3000)
        ) {
            // A burst of schedules on TIMES fills some bucket past the
            // recycle size; the tail pops it empty and reuses what is left.
            let mut per_time = std::collections::HashMap::new();
            for &(_, ti) in &burst {
                *per_time.entry(time_key(TIMES[ti])).or_insert(0) += 1;
            }
            prop_assert!(per_time.values().any(|&n| n > RECYCLE_MAX_EVENTS));
            let ops: Vec<_> = burst.iter().map(|&(op, ti)| (op, ti, 0.0)).chain(tail).collect();
            check_against_reference(&ops)?;
        }
    }

    proptest! {
        #[test]
        fn pop_order_matches_a_binary_heap_reference(
            ops in proptest::collection::vec((0usize..4, 0usize..TIMES.len(), 0.0f64..2.0), 1..300)
        ) {
            check_against_reference(&ops)?;
        }

        #[test]
        fn pops_are_globally_time_ordered(times in proptest::collection::vec(0.0f64..1e6, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule_at(*t, i);
            }
            let mut last = -1.0;
            while let Some(e) = q.pop() {
                prop_assert!(e.time_us >= last);
                last = e.time_us;
            }
        }

        #[test]
        fn len_tracks_push_pop(times in proptest::collection::vec(0.0f64..100.0, 1..50)) {
            let mut q = EventQueue::new();
            for t in &times {
                q.schedule_at(*t, ());
            }
            prop_assert_eq!(q.len(), times.len());
            let mut n = times.len();
            while q.pop().is_some() {
                n -= 1;
                prop_assert_eq!(q.len(), n);
            }
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.popped_total(), q.scheduled_total());
        }
    }
}
