//! Active-lane masks.
//!
//! A [`Mask`] holds one bit per thread of a block. All SIMT control flow in
//! the simulator is expressed through masks: `if_else` intersects them,
//! `loop_while` iterates while any lane remains active, and every operation
//! charges issue cycles only for *warps* that still have at least one
//! active lane — which is exactly how divergence costs on hardware.

use crate::pool::PoolItem;

/// One bit per lane of a thread block (lane 0 = bit 0 of word 0).
///
/// Backing storage recycles through the thread-local pool in
/// [`crate::pool`]: masks are created and dropped once per simulated
/// branch, so pooling removes an allocator round-trip from every
/// structured-control-flow operation.
#[derive(Debug, PartialEq, Eq)]
pub struct Mask {
    bits: Vec<u64>,
    len: usize,
}

impl Clone for Mask {
    fn clone(&self) -> Self {
        let mut bits = u64::take(self.bits.len());
        bits.copy_from_slice(&self.bits);
        Mask { bits, len: self.len }
    }
}

impl Drop for Mask {
    fn drop(&mut self) {
        u64::put(std::mem::take(&mut self.bits));
    }
}

/// Lanes per warp; fixed at 32 across every CUDA generation we model.
pub const WARP: usize = 32;

impl Mask {
    /// All lanes active.
    pub fn all(len: usize) -> Self {
        let mut bits = u64::take(len.div_ceil(64));
        bits.fill(u64::MAX);
        Self::trim(&mut bits, len);
        Mask { bits, len }
    }

    /// No lanes active.
    pub fn none(len: usize) -> Self {
        Mask { bits: u64::take(len.div_ceil(64)), len }
    }

    /// Build from a predicate over lane indices.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut m = Mask::none(len);
        for lane in 0..len {
            if f(lane) {
                m.set(lane, true);
            }
        }
        m
    }

    fn trim(bits: &mut [u64], len: usize) {
        let extra = bits.len() * 64 - len;
        if extra > 0 {
            let last = bits.len() - 1;
            bits[last] &= u64::MAX >> extra;
        }
    }

    /// Number of lanes this mask covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no lanes are covered (empty block — not "no active lanes").
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lane state.
    #[inline]
    pub fn get(&self, lane: usize) -> bool {
        debug_assert!(lane < self.len);
        (self.bits[lane / 64] >> (lane % 64)) & 1 == 1
    }

    /// Set lane state.
    #[inline]
    pub fn set(&mut self, lane: usize, v: bool) {
        debug_assert!(lane < self.len);
        if v {
            self.bits[lane / 64] |= 1 << (lane % 64);
        } else {
            self.bits[lane / 64] &= !(1 << (lane % 64));
        }
    }

    /// Any lane active?
    pub fn any(&self) -> bool {
        self.bits.iter().any(|&w| w != 0)
    }

    /// Number of active lanes.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn zip_with(&self, other: &Mask, f: impl Fn(u64, u64) -> u64) -> Mask {
        debug_assert_eq!(self.len, other.len);
        let mut bits = u64::take(self.bits.len());
        for ((o, &a), &b) in bits.iter_mut().zip(&self.bits).zip(&other.bits) {
            *o = f(a, b);
        }
        Mask { bits, len: self.len }
    }

    /// Lane-wise AND.
    pub fn and(&self, other: &Mask) -> Mask {
        self.zip_with(other, |a, b| a & b)
    }

    /// Lane-wise OR.
    pub fn or(&self, other: &Mask) -> Mask {
        self.zip_with(other, |a, b| a | b)
    }

    /// Lane-wise AND NOT (`self & !other`).
    pub fn and_not(&self, other: &Mask) -> Mask {
        self.zip_with(other, |a, b| a & !b)
    }

    /// Complement within the block.
    pub fn not(&self) -> Mask {
        let mut bits = u64::take(self.bits.len());
        for (o, &a) in bits.iter_mut().zip(&self.bits) {
            *o = !a;
        }
        Self::trim(&mut bits, self.len);
        Mask { bits, len: self.len }
    }

    /// Iterate active lane indices in increasing order.
    pub fn lanes(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Maximal runs of contiguous active lanes, in increasing order.
    ///
    /// Lane-wise operations walk these instead of single lanes, so a mask
    /// whose active lanes form a few runs (the usual shape: a full block,
    /// or the first `m` lanes of a task kernel) costs a few slice loops
    /// rather than a bit-scan per lane. `runs().flatten()` visits exactly
    /// the lanes of [`Mask::lanes`].
    pub fn runs(&self) -> Runs<'_> {
        Runs { bits: &self.bits, pos: 0 }
    }

    /// The lanes of `self` where `f(a[lane], b[lane])` holds, as a new
    /// mask. Each 64-lane word is built branch-free from the operand
    /// slices and then ANDed with the active word, so `f` also runs on
    /// inactive lanes (and must be a pure comparison).
    pub(crate) fn and_where<T: Copy>(&self, a: &[T], b: &[T], f: impl Fn(T, T) -> bool) -> Mask {
        debug_assert!(a.len() == self.len && b.len() == self.len);
        let mut bits = u64::take(self.bits.len());
        let lanes = a.chunks(64).zip(b.chunks(64));
        for ((o, &active), (a, b)) in bits.iter_mut().zip(&self.bits).zip(lanes) {
            if active == 0 {
                continue;
            }
            // One 0/1 byte per lane (a vectorisable loop), then eight
            // lanes per multiply: byte `k` of `v` lands on bit `k` of the
            // product's top byte.
            let mut flags = [0u8; 64];
            for ((flag, &x), &y) in flags.iter_mut().zip(a).zip(b) {
                *flag = f(x, y) as u8;
            }
            let mut word = 0u64;
            for (k, eight) in flags.chunks_exact(8).enumerate() {
                let v = u64::from_le_bytes(eight.try_into().expect("chunks of 8"));
                word |= (v.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
            }
            *o = word & active;
        }
        Mask { bits, len: self.len }
    }

    /// The backing words: lane `l` is bit `l % 64` of word `l / 64`, and
    /// bits past [`Mask::len`] are always clear.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Number of warps the block spans (including trailing partial warp).
    pub fn warp_count(&self) -> usize {
        self.len.div_ceil(WARP)
    }

    /// The 32-bit activity pattern of warp `w`.
    pub fn warp_bits(&self, w: usize) -> u32 {
        let lane0 = w * WARP;
        debug_assert!(lane0 < self.len);
        let word = self.bits[lane0 / 64];
        let shifted = (word >> (lane0 % 64)) as u32;
        // A warp never straddles a u64 boundary (32 | 64).
        let width = (self.len - lane0).min(WARP);
        if width == WARP {
            shifted
        } else {
            shifted & ((1u32 << width) - 1)
        }
    }

    /// Does warp `w` have any active lane?
    pub fn warp_any(&self, w: usize) -> bool {
        self.warp_bits(w) != 0
    }

    /// Number of warps with at least one active lane.
    pub fn active_warps(&self) -> usize {
        // Each word holds two whole warps (32 | 64), and bits past `len`
        // are always clear, so a warp is active iff its half-word is
        // non-zero.
        self.bits.iter().map(|&w| (w as u32 != 0) as usize + ((w >> 32) != 0) as usize).sum()
    }

    /// Iterate active lanes of warp `w`.
    pub fn warp_lanes(&self, w: usize) -> impl Iterator<Item = usize> + '_ {
        let base = w * WARP;
        let mut bits = self.warp_bits(w);
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(base + b)
            }
        })
    }
}

/// Iterator over a mask's maximal runs of active lanes (see
/// [`Mask::runs`]).
pub struct Runs<'a> {
    bits: &'a [u64],
    /// Lane index the next search starts from.
    pos: usize,
}

impl Iterator for Runs<'_> {
    type Item = std::ops::Range<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut wi = self.pos / 64;
        let mut w = *self.bits.get(wi)? & (u64::MAX << (self.pos % 64));
        while w == 0 {
            wi += 1;
            w = *self.bits.get(wi)?;
        }
        let off = w.trailing_zeros() as usize;
        let start = wi * 64 + off;
        // Ones from `off` upward; a run reaching the top bit continues
        // into the following words.
        let mut end = start + (!(w >> off)).trailing_zeros() as usize;
        while end % 64 == 0 {
            wi += 1;
            let Some(&next) = self.bits.get(wi) else { break };
            let ones = next.trailing_ones() as usize;
            end += ones;
            if ones < 64 {
                break;
            }
        }
        self.pos = end;
        Some(start..end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_none() {
        let a = Mask::all(70);
        assert_eq!(a.count(), 70);
        assert!(a.any());
        assert!(a.get(69));
        let n = Mask::none(70);
        assert_eq!(n.count(), 0);
        assert!(!n.any());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = Mask::none(100);
        m.set(0, true);
        m.set(63, true);
        m.set(64, true);
        m.set(99, true);
        assert_eq!(m.count(), 4);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(99));
        m.set(63, false);
        assert!(!m.get(63));
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn boolean_algebra() {
        let a = Mask::from_fn(64, |i| i % 2 == 0);
        let b = Mask::from_fn(64, |i| i % 3 == 0);
        assert_eq!(a.and(&b).count(), 11); // multiples of 6 in 0..64
        assert_eq!(a.or(&b).count(), 32 + 22 - 11);
        assert_eq!(a.not().count(), 32);
        assert_eq!(a.and_not(&b).count(), 32 - 11);
    }

    #[test]
    fn not_respects_length() {
        let m = Mask::none(33);
        assert_eq!(m.not().count(), 33); // not 64
    }

    #[test]
    fn lane_iteration_matches_bits() {
        let m = Mask::from_fn(130, |i| i % 7 == 0);
        let lanes: Vec<usize> = m.lanes().collect();
        let expect: Vec<usize> = (0..130).filter(|i| i % 7 == 0).collect();
        assert_eq!(lanes, expect);
    }

    #[test]
    fn warp_views() {
        let m = Mask::from_fn(96, |i| i < 40);
        assert_eq!(m.warp_count(), 3);
        assert_eq!(m.warp_bits(0), u32::MAX);
        assert_eq!(m.warp_bits(1), 0xFF); // lanes 32..40
        assert_eq!(m.warp_bits(2), 0);
        assert_eq!(m.active_warps(), 2);
        assert!(m.warp_any(1));
        assert!(!m.warp_any(2));
        let lanes: Vec<usize> = m.warp_lanes(1).collect();
        assert_eq!(lanes, (32..40).collect::<Vec<_>>());
    }

    #[test]
    fn partial_trailing_warp() {
        let m = Mask::all(40);
        assert_eq!(m.warp_count(), 2);
        assert_eq!(m.warp_bits(1), 0xFF);
        assert_eq!(m.active_warps(), 2);
    }
}
