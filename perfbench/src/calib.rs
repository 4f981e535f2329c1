//! A host-speed reference that shares no code with the program under
//! test: a small register machine interpreting a fixed pseudo-random
//! program over a 256 KiB array — branchy and cache-resident, like the
//! SIMT interpreter.
//!
//! Shared hosts drift: on a shared 2-vCPU VM one input ran at 9 jobs/s
//! and, half an hour later, at 18; the reference's rate moves by a
//! quarter from one second to the next. Host-time metrics are therefore
//! reported at a nominal reference speed: each measured time is scaled by
//! `rate / NOMINAL_RATE`, where `rate` is the reference's median rate
//! around the moment the time was taken. Inside a measured window the
//! clients take short samples between jobs ([`Ticker`]); each set-up is
//! scaled by samples taken just before and just after it. The raw values
//! are printed next to the scaled ones.

use std::sync::Mutex;
use std::time::{Duration, Instant};

const WORDS: usize = 1 << 16;
const PROGRAM: usize = 4096;
/// The reference rate (Mops/s) host-time metrics are reported at.
pub const NOMINAL_RATE: f64 = 600.0;
/// Instructions per sample taken outside a measured window.
const STEPS: usize = 4_000_000;
/// Instructions per in-window sample (about 2 ms).
const TICK_STEPS: usize = 1_000_000;
/// Fewest seconds between two in-window samples (about 4% of the window).
const TICK_EVERY: Duration = Duration::from_millis(50);
/// Samples within this many seconds of a timed span set its local rate.
const NEAR_S: f64 = 1.0;
/// ... or, when fewer lie that close, this many nearest samples.
const NEAREST: usize = 15;

/// The reference program and its memory.
pub struct Reference {
    program: Vec<(u8, u16, u16)>,
    mem: Vec<u32>,
    check: u32,
}

impl Reference {
    pub fn new() -> Self {
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let program =
            (0..PROGRAM).map(|_| ((next() % 40) as u8, next() as u16, next() as u16)).collect();
        let mem = (0..WORDS).map(|_| next() as u32).collect();
        Reference { program, mem, check: 0 }
    }

    /// Interpret `steps` instructions; returns the rate in millions of
    /// instructions per second.
    pub fn rate(&mut self, steps: usize) -> f64 {
        let t = Instant::now();
        let (program, mem) = (&self.program, &mut self.mem);
        let mut regs = [1u32, 2, 3, 4, 5, 6, 7, 8];
        let mut pc = 0usize;
        for _ in 0..steps {
            let (op, a, b) = program[pc];
            let r = (op & 7) as usize;
            match op >> 3 {
                0 => regs[r] = regs[r].wrapping_add(mem[a as usize]),
                1 => mem[b as usize] ^= regs[r],
                2 => regs[r] = regs[r].rotate_left(u32::from(a & 31)) ^ u32::from(b),
                3 => {
                    if regs[r] & 1 == 0 {
                        pc = a as usize % PROGRAM;
                        continue;
                    }
                }
                _ => regs[r] = regs[r].wrapping_mul(0x9E37_79B9) ^ mem[(regs[r] as usize) % WORDS],
            }
            pc = (pc + 1) % PROGRAM;
        }
        // Keep the work observable so it cannot be optimised away.
        self.check ^= regs.iter().fold(0, |acc, &r| acc ^ r);
        std::hint::black_box(self.check);
        steps as f64 / t.elapsed().as_secs_f64() / 1e6
    }
}

/// `reps` samples of the reference rate, in millions of instructions per
/// second.
pub fn samples(reps: usize) -> Vec<f64> {
    let mut reference = Reference::new();
    (0..reps.max(1)).map(|_| reference.rate(STEPS)).collect()
}

/// Reference samples taken during a measured window, each stamped with
/// the window time (s) of its midpoint. Clients call [`Ticker::tick`]
/// between jobs; at most one sample is taken per [`TICK_EVERY`].
pub struct Ticker {
    start: Instant,
    state: Mutex<TickState>,
}

struct TickState {
    /// When the last sample ended.
    last: Option<Instant>,
    reference: Reference,
    samples: Vec<(f64, f64)>,
}

impl Ticker {
    pub fn new(start: Instant) -> Self {
        let state = TickState { last: None, reference: Reference::new(), samples: Vec::new() };
        Ticker { start, state: Mutex::new(state) }
    }

    /// Take a sample unless one was taken less than [`TICK_EVERY`] ago or
    /// another client is taking one.
    pub fn tick(&self) {
        let Ok(mut state) = self.state.try_lock() else { return };
        if state.last.is_some_and(|t| t.elapsed() < TICK_EVERY) {
            return;
        }
        let t0 = self.start.elapsed().as_secs_f64();
        let rate = state.reference.rate(TICK_STEPS);
        let t1 = self.start.elapsed().as_secs_f64();
        state.samples.push(((t0 + t1) / 2.0, rate));
        state.last = Some(Instant::now());
    }

    pub fn into_samples(self) -> Vec<(f64, f64)> {
        self.state.into_inner().map(|s| s.samples).unwrap_or_default()
    }
}

/// The reference rate around the span `[from, to]` (window seconds):
/// the median of the samples within [`NEAR_S`] of it, or of the
/// [`NEAREST`] samples nearest to it when fewer lie that close. `None`
/// without samples.
pub fn local_rate(samples: &[(f64, f64)], from: f64, to: f64) -> Option<f64> {
    let distance = |t: f64| if t < from { from - t } else { (t - to).max(0.0) };
    let near: Vec<f64> =
        samples.iter().filter(|(t, _)| distance(*t) <= NEAR_S).map(|&(_, r)| r).collect();
    if near.len() >= NEAREST {
        return crate::stats::median(&near);
    }
    let mut by_distance: Vec<(f64, f64)> = samples.iter().map(|&(t, r)| (distance(t), r)).collect();
    by_distance.sort_by(|a, b| a.0.total_cmp(&b.0));
    let nearest: Vec<f64> = by_distance.iter().take(NEAREST).map(|&(_, r)| r).collect();
    crate::stats::median(&nearest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_rate_uses_the_samples_near_the_span() {
        // Slow host from 0 to 5 s, fast after.
        let samples: Vec<(f64, f64)> =
            (0..100).map(|i| (i as f64 * 0.1, if i < 50 { 300.0 } else { 600.0 })).collect();
        assert_eq!(local_rate(&samples, 1.0, 1.2), Some(300.0));
        assert_eq!(local_rate(&samples, 8.0, 8.1), Some(600.0));
        // Past the last sample: the nearest ones.
        assert_eq!(local_rate(&samples, 20.0, 21.0), Some(600.0));
        assert_eq!(local_rate(&[], 0.0, 1.0), None);
    }

    #[test]
    fn ticker_spaces_its_samples() {
        let ticker = Ticker::new(Instant::now());
        ticker.tick();
        ticker.tick();
        let samples = ticker.into_samples();
        assert_eq!(samples.len(), 1);
        assert!(samples[0].1 > 0.0);
    }
}
