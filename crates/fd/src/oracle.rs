//! An idealized ("complete and accurate") failure detector for the
//! paper's run classes 1 and 2.
//!
//! Class 1: no process is ever suspected. Class 2: the initially crashed
//! process is suspected forever from the beginning; correct processes
//! are never suspected.

use ctsim_neko::{Ctx, ProcessId};

use crate::{FailureDetector, FdEvent};

/// A failure detector whose output is fixed for the whole run.
#[derive(Debug, Clone)]
pub struct OracleFd {
    suspected: Vec<bool>,
}

impl OracleFd {
    /// An oracle that never suspects anyone (run class 1).
    pub fn accurate(n: usize) -> Self {
        Self {
            suspected: vec![false; n],
        }
    }

    /// An oracle that suspects exactly the given processes from the
    /// start, forever (run class 2).
    pub fn suspecting(n: usize, crashed: &[ProcessId]) -> Self {
        let mut suspected = vec![false; n];
        for p in crashed {
            suspected[p.0] = true;
        }
        Self { suspected }
    }
}

impl<M> FailureDetector<M> for OracleFd {
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    fn note_alive(&mut self, _ctx: &mut Ctx<'_, M>, _from: ProcessId) {}

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _token: u64) -> bool {
        false
    }

    fn is_suspected(&self, q: ProcessId) -> bool {
        self.suspected[q.0]
    }

    fn drain_events(&mut self) -> Option<FdEvent> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accurate_oracle_suspects_nobody() {
        let fd = OracleFd::accurate(5);
        for i in 0..5 {
            assert!(!FailureDetector::<u8>::is_suspected(&fd, ProcessId(i)));
        }
    }

    #[test]
    fn suspecting_oracle_marks_only_the_crashed() {
        let fd = OracleFd::suspecting(5, &[ProcessId(0), ProcessId(3)]);
        let s: Vec<bool> = (0..5)
            .map(|i| FailureDetector::<u8>::is_suspected(&fd, ProcessId(i)))
            .collect();
        assert_eq!(s, vec![true, false, false, true, false]);
    }

    #[test]
    fn oracle_emits_no_events() {
        let mut fd = OracleFd::suspecting(3, &[ProcessId(1)]);
        assert!(FailureDetector::<u8>::drain_events(&mut fd).is_none());
    }
}
