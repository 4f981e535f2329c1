//! A small set-associative LRU cache simulator.
//!
//! Used for the per-SM texture cache (both devices) and the Fermi L1.
//! Determinism matters more than cycle-accuracy here: the paper's texture
//! wins come from read-only spatial locality, which set-associative LRU
//! captures.

/// Set-associative LRU cache over byte addresses.
#[derive(Debug, Clone)]
pub struct Cache {
    line_bytes: u64,
    /// `log2(line_bytes)`: an address's line is `addr >> line_shift`.
    line_shift: u32,
    sets: usize,
    ways: usize,
    /// `tags[set * ways + way]` = line tag; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags` (larger = more recent).
    stamps: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache of `capacity_bytes` with `line_bytes` lines and
    /// `ways`-way associativity. Capacity is rounded down to a whole number
    /// of sets; a zero-capacity cache is legal and always misses.
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(ways >= 1);
        let lines = (capacity_bytes / line_bytes) as usize;
        let sets = (lines / ways).max(if lines == 0 { 0 } else { 1 });
        Cache {
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Access `addr`; returns `true` on hit. Misses fill the line.
    pub fn access(&mut self, addr: u64) -> bool {
        if self.sets == 0 {
            self.misses += 1;
            return false;
        }
        self.tick += 1;
        let line = addr >> self.line_shift;
        let set = (line as usize) % self.sets;
        let base = set * self.ways;
        let tags = &mut self.tags[base..base + self.ways];
        let stamps = &mut self.stamps[base..base + self.ways];
        // Hit?
        if let Some(way) = tags.iter().position(|&t| t == line) {
            stamps[way] = self.tick;
            self.hits += 1;
            return true;
        }
        // Miss: evict the LRU way (the first of equally old ones). The
        // oldest stamp rides in a register, so the scan carries no
        // load-to-load dependency.
        let (mut victim, mut oldest) = (0, stamps[0]);
        for (way, &stamp) in stamps.iter().enumerate().skip(1) {
            if stamp < oldest {
                (victim, oldest) = (way, stamp);
            }
        }
        tags[victim] = line;
        stamps[victim] = self.tick;
        self.misses += 1;
        false
    }

    /// (hits, misses) so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Clear contents and counters (between kernel launches).
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_access_hits_within_lines() {
        let mut c = Cache::new(1024, 32, 4);
        // 8 accesses per 32B line at 4B stride: 1 miss + 7 hits.
        for i in 0..8u64 {
            let hit = c.access(i * 4);
            assert_eq!(hit, i != 0);
        }
        assert_eq!(c.counters(), (7, 1));
    }

    #[test]
    fn capacity_eviction() {
        // 2 lines total, direct-ish: 1 set x 2 ways of 32B.
        let mut c = Cache::new(64, 32, 2);
        assert!(!c.access(0)); // line 0
        assert!(!c.access(32)); // line 1
        assert!(c.access(0)); // still resident
        assert!(!c.access(64)); // evicts LRU (line 1)
        assert!(c.access(0)); // line 0 stays (recently used)
        assert!(!c.access(32)); // was evicted
    }

    #[test]
    fn zero_capacity_always_misses() {
        let mut c = Cache::new(0, 32, 4);
        assert!(!c.access(0));
        assert!(!c.access(0));
        assert_eq!(c.counters(), (0, 2));
    }

    #[test]
    fn reset_clears_contents() {
        let mut c = Cache::new(128, 32, 2);
        c.access(0);
        c.access(0);
        assert_eq!(c.counters(), (1, 1));
        c.reset();
        assert_eq!(c.counters(), (0, 0));
        assert!(!c.access(0));
    }

    #[test]
    fn lru_prefers_oldest_victim() {
        let mut c = Cache::new(64, 32, 2); // one set, two ways
        c.access(0); // A
        c.access(32); // B
        c.access(0); // touch A
        c.access(64); // C evicts B (LRU)
        assert!(c.access(0), "A must survive");
        assert!(c.access(64), "C resident");
    }
}
