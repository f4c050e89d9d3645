//! Machine-speed calibration.
//!
//! The sandbox this suite was sized on is a two-vCPU guest on a shared host,
//! and its speed moves in phases that last minutes: between two phases the
//! same round of the same workload takes 1.3 to 1.5 times as long. Integer
//! arithmetic in registers is steady to 3 %; what moves is everything that
//! touches memory (streaming, dependent loads, small allocations). No
//! statistic taken inside one run removes a shift that outlasts the run, so
//! the end-to-end timings are reported relative to a fixed unit of work of
//! that same kind, run between the rounds: a round's timings are multiplied
//! by `NOMINAL_UNIT_NS / (mean of the unit just before and just after it)`
//! before any statistic is taken. On a machine that runs the unit in the
//! nominal time nothing changes. The README has the measurements behind
//! this, and what calibration does not steady.
//!
//! The unit is sambench's own code and depends neither on the seed nor on
//! the library, so a change to the library moves a calibrated timing as it
//! moves the raw one. Raw values are printed beside the calibrated ones.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The unit's time on the reference sandbox in a typical phase.
pub const NOMINAL_UNIT_NS: f64 = 3.0e6;
/// Units are run between rounds, at least this far apart.
const INTERVAL: Duration = Duration::from_millis(150);
/// Words of the buffer the unit streams over and chases through (4 MB:
/// as large as one vCPU's L2, so both passes reach the shared cache).
const WORDS: usize = 1 << 19;

/// One thread's share of the unit.
struct Lane {
    buf: Vec<u64>,
}

impl Lane {
    /// Fixed work of the kinds whose speed moves with the host: a streaming
    /// write and read of the buffer, dependent loads through it, and small
    /// allocations behind a hash map.
    fn unit(&mut self) -> u64 {
        let started = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for (i, slot) in self.buf.iter_mut().enumerate() {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i as u64);
            *slot = x >> 20;
        }
        let sum = self.buf.iter().fold(0u64, |a, v| a.wrapping_add(*v));
        let mut at = sum as usize % WORDS;
        for _ in 0..15_000 {
            at = (self.buf[at] as usize ^ at) % WORDS;
        }
        let mut map: HashMap<u64, Vec<Vec<u32>>> = HashMap::new();
        for i in 0..8000u64 {
            map.entry(i % 997).or_default().push(vec![i as u32; 3]);
        }
        std::hint::black_box((at, map.len()));
        started.elapsed().as_nanos() as u64
    }
}

/// Runs the unit on as many threads at once as the workload keeps busy, so
/// that a phase in which the two vCPUs get in each other's way slows the
/// unit as it slows the workload.
pub struct Calibrator {
    lanes: Vec<Lane>,
    last: Option<Instant>,
}

impl Calibrator {
    pub fn new(threads: usize) -> Calibrator {
        let lanes = (0..threads.max(1)).map(|_| Lane { buf: vec![1; WORDS] }).collect();
        Calibrator { lanes, last: None }
    }

    /// One unit now: nanoseconds of the slowest lane.
    pub fn unit(&mut self) -> f64 {
        self.last = Some(Instant::now());
        let (first, others) = self.lanes.split_first_mut().expect("at least one lane");
        std::thread::scope(|scope| {
            let others: Vec<_> = others.iter_mut().map(|lane| scope.spawn(|| lane.unit())).collect();
            let mine = first.unit();
            others
                .into_iter()
                .fold(mine, |slowest, t| slowest.max(t.join().expect("the unit does not panic")))
                as f64
        })
    }

    /// One unit if the last one is at least [`INTERVAL`] old.
    pub fn unit_if_due(&mut self) -> Option<f64> {
        self.last.is_none_or(|last| last.elapsed() >= INTERVAL).then(|| self.unit())
    }
}

/// What to multiply a timing by, given the unit time sampled around it.
pub fn factor(unit_ns: f64) -> f64 {
    NOMINAL_UNIT_NS / unit_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_machine_at_nominal_speed_is_left_alone_and_a_slow_one_scaled_back() {
        assert_eq!(factor(NOMINAL_UNIT_NS), 1.0);
        assert_eq!(factor(2.0 * NOMINAL_UNIT_NS), 0.5);
    }

    #[test]
    fn units_run_on_every_lane_and_respect_the_interval() {
        let mut cal = Calibrator::new(2);
        assert!(cal.unit_if_due().is_some_and(|ns| ns > 0.0), "the first unit is always due");
        assert!(cal.unit_if_due().is_none(), "the next one waits for the interval");
    }
}
