//! The event queue's contract against a reference model.
//!
//! Random interleavings of `schedule_at`, `pop`, `cancel`, `peek_time`,
//! `clear` and `reset` run on an [`EventQueue`] and on a reference list
//! sorted by `(time, schedule order)`, whose first entry is the next to
//! fire. Pop order, `len`, `now`, `peek_time`, `cancel` results and
//! `is_pending` of every handle ever issued must match exactly.
//!
//! Times come from a small set of offsets from `now`, so ties within an
//! instant are common and FIFO order is exercised on most pops. Cancels
//! draw from every handle ever issued: live, fired, cancelled, or issued
//! before a `clear`/`reset`. One property keeps over 20 000 far-future
//! events pending underneath the churn, the shape of a measurement
//! campaign that arms all its execution timers at time zero.
//!
//! Each case is seeded; a failure names its seed so the case can be
//! rerun on its own (`CASE_SEED=<seed> cargo test -p ctsim-des
//! --test queue_contract`).

use std::collections::BTreeMap;

use ctsim_des::{EventHandle, EventQueue, SimTime};

/// SplitMix64: a small deterministic stream per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }
}

/// The reference: pending payloads sorted by `(time, schedule order)`,
/// and each payload's key while it is pending.
#[derive(Default)]
struct Reference {
    pending: BTreeMap<(u64, u32), u32>,
    keys: Vec<Option<(u64, u32)>>,
    now: u64,
}

impl Reference {
    fn schedule(&mut self, t: u64) -> u32 {
        let id = self.keys.len() as u32;
        self.pending.insert((t, id), id);
        self.keys.push(Some((t, id)));
        id
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let ((t, _), id) = self.pending.pop_first()?;
        self.keys[id as usize] = None;
        self.now = t;
        Some((t, id))
    }

    fn cancel(&mut self, id: u32) -> Option<u32> {
        let key = self.keys[id as usize].take()?;
        self.pending.remove(&key)
    }

    fn clear(&mut self) {
        self.pending.clear();
        self.keys.iter_mut().for_each(|k| *k = None);
    }

    fn is_pending(&self, id: u32) -> bool {
        self.keys[id as usize].is_some()
    }
}

/// Queue and reference side by side, with every handle ever issued.
struct Harness {
    q: EventQueue<u32>,
    r: Reference,
    handles: Vec<EventHandle>,
}

impl Harness {
    fn new() -> Self {
        Self {
            q: EventQueue::new(),
            r: Reference::default(),
            handles: Vec::new(),
        }
    }

    fn schedule(&mut self, t: u64) {
        let id = self.r.schedule(t);
        self.handles
            .push(self.q.schedule_at(SimTime::from_nanos(t), id));
    }

    fn pop(&mut self) -> Result<(), String> {
        let got = self.q.pop().map(|(t, id)| (t.as_nanos(), id));
        let want = self.r.pop();
        if got != want {
            return Err(format!("pop: queue {got:?}, reference {want:?}"));
        }
        Ok(())
    }

    fn check(&self, op: &str) -> Result<(), String> {
        self.check_len(op)?;
        for (id, &h) in self.handles.iter().enumerate() {
            if self.q.is_pending(h) != self.r.is_pending(id as u32) {
                return Err(format!("after {op}: is_pending of event {id} disagrees"));
            }
        }
        Ok(())
    }

    fn check_len(&self, op: &str) -> Result<(), String> {
        if self.q.len() != self.r.pending.len() {
            return Err(format!(
                "after {op}: len {} vs reference {}",
                self.q.len(),
                self.r.pending.len()
            ));
        }
        if self.q.now().as_nanos() != self.r.now {
            return Err(format!(
                "after {op}: now {} vs {}",
                self.q.now(),
                self.r.now
            ));
        }
        Ok(())
    }

    /// One random operation; `offsets` are the schedule times relative
    /// to `now`. `clears` allows `clear` and `reset`; every handle is
    /// checked after the operation when `check_all` is set.
    fn step(
        &mut self,
        rng: &mut Rng,
        offsets: &[u64],
        clears: bool,
        check_all: bool,
    ) -> Result<(), String> {
        let op = match rng.below(if clears { 100 } else { 96 }) {
            0..=44 => {
                let d = offsets[rng.below(offsets.len() as u64) as usize];
                self.schedule(self.r.now + d);
                "schedule_at"
            }
            45..=74 => {
                self.pop()?;
                "pop"
            }
            75..=86 => {
                if !self.handles.is_empty() {
                    let id = rng.below(self.handles.len() as u64) as u32;
                    let got = self.q.cancel(self.handles[id as usize]);
                    let want = self.r.cancel(id);
                    if got != want {
                        return Err(format!("cancel({id}): queue {got:?}, reference {want:?}"));
                    }
                }
                "cancel"
            }
            87..=95 => {
                let got = self.q.peek_time().map(SimTime::as_nanos);
                let want = self.r.pending.keys().next().map(|&(t, _)| t);
                if got != want {
                    return Err(format!("peek_time: queue {got:?}, reference {want:?}"));
                }
                "peek_time"
            }
            96..=97 => {
                self.q.clear();
                self.r.clear();
                "clear"
            }
            _ => {
                self.q.reset();
                self.r.clear();
                self.r.now = 0;
                "reset"
            }
        };
        if check_all {
            self.check(op)
        } else {
            self.check_len(op)
        }
    }

    fn drain(&mut self) -> Result<(), String> {
        while !self.r.pending.is_empty() {
            self.pop()?;
        }
        self.pop()?;
        self.check("drain")
    }
}

/// Runs `case` once per seed, or only for `CASE_SEED` when it is set.
fn for_cases(name: &str, cases: u64, case: impl Fn(&mut Rng) -> Result<(), String>) {
    let only = std::env::var("CASE_SEED")
        .ok()
        .map(|s| s.parse::<u64>().unwrap());
    for seed in (0..cases).filter(|s| only.map_or(true, |o| o == *s)) {
        if let Err(e) = case(&mut Rng(seed ^ 0x5eed_0000)) {
            panic!("{name}: case seed {seed} failed: {e}");
        }
    }
}

/// Ties are the norm: four distinct offsets, one of them zero.
const TIGHT: [u64; 4] = [0, 1, 2, 7];
/// Ties plus spreads that cross many radix buckets.
const WIDE: [u64; 7] = [0, 0, 3, 1_000, 65_536, 1 << 33, (1 << 40) + 5];

#[test]
fn random_interleavings_match_the_reference() {
    for_cases("random_interleavings", 256, |rng| {
        let offsets: &[u64] = if rng.below(2) == 0 { &TIGHT } else { &WIDE };
        let mut h = Harness::new();
        for _ in 0..(50 + rng.below(250)) {
            h.step(rng, offsets, true, true)?;
        }
        h.drain()
    });
}

#[test]
fn far_future_backlog_does_not_disturb_the_near_term() {
    const FAR: u64 = 20_000;
    for_cases("far_future_backlog", 4, |rng| {
        let mut h = Harness::new();
        // Execution timers 10 ms apart from t = 1 s, all armed at once.
        for k in 0..FAR {
            h.schedule(1_000_000_000 + k * 10_000_000);
        }
        for i in 0..2_000 {
            h.step(rng, &TIGHT, false, i % 100 == 0)?;
        }
        h.check("churn")?;
        let left = h.r.pending.len();
        if left < FAR as usize {
            return Err(format!("only {left} events pending before the drain"));
        }
        h.drain()
    });
}
