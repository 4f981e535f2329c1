//! Lockstep block execution.
//!
//! Kernels are written in a block-wide SPMD style: every per-thread value
//! is a register vector ([`Reg`], one slot per thread of the block) and
//! every operation goes through [`BlockCtx`], which
//!
//! 1. applies the operation functionally to all *active* lanes, and
//! 2. charges issue cycles for every **warp** containing at least one
//!    active lane — so divergent control flow costs exactly what the SIMT
//!    hardware pays (both branch sides serialized for mixed warps).
//!
//! Global accesses stream lane addresses through the coalescing model,
//! shared accesses through the bank-conflict model, and atomics through
//! the serialization model (with CAS-loop emulation for float atomics on
//! CC 1.x, as the paper discusses for the Tesla C1060).

use crate::cache::Cache;
use crate::coalesce::{
    coalesce_cc13_half_warp_into, lines_cc20_into, word_transaction, Transaction,
};
use crate::device::DeviceSpec;
use crate::global::{elem_addr, oob_load, DevicePtr, GlobalMem};
use crate::mask::{Mask, WARP};
use crate::pool::PoolItem;
use crate::shared::{bank_conflict_degree, ShPtr, SharedMem};
use crate::stats::KernelStats;

/// A per-thread register vector (one value per lane of the block).
///
/// The backing buffer recycles through a thread-local free list (see
/// [`crate::pool`]): every lockstep operation produces a `Reg`, so the
/// hot path never touches the global allocator once the pool is warm.
#[derive(Debug)]
pub struct Reg<T: PoolItem>(pub(crate) Vec<T>);

impl<T: PoolItem> Clone for Reg<T> {
    fn clone(&self) -> Self {
        let mut v = T::take(self.0.len());
        v.copy_from_slice(&self.0);
        Reg(v)
    }
}

impl<T: PoolItem> Drop for Reg<T> {
    fn drop(&mut self) {
        T::put(std::mem::take(&mut self.0));
    }
}

impl<T: PoolItem> Reg<T> {
    /// Value held by `lane`.
    #[inline]
    pub fn lane(&self, lane: usize) -> T {
        self.0[lane]
    }

    /// All lanes (host-side inspection; not charged).
    pub fn as_slice(&self) -> &[T] {
        &self.0
    }
}

/// Instruction classes with distinct issue costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Integer/logic ALU op (add, shift, mask…).
    IAlu,
    /// f32 add/sub/compare-class op.
    FAlu,
    /// f32 multiply / FMA.
    FMul,
    /// Transcendental on the SFU (`__powf`, `__expf`, rsqrt, rcp…).
    Sfu,
    /// Integer division or modulo (expanded to many instructions).
    IDivMod,
    /// Register move / select / conversion.
    Mov,
    /// Branch / loop bookkeeping.
    Branch,
    /// Memory instruction issue (address math + request).
    MemIssue,
    /// Shared-memory access instruction.
    Shared,
    /// Barrier.
    Bar,
}

/// Issue cost of `op` in shader cycles per warp on `dev`.
pub fn op_cycles(dev: &DeviceSpec, op: Op) -> u32 {
    let base = dev.issue_cycles_per_warp;
    match op {
        Op::IAlu | Op::FAlu | Op::FMul | Op::Mov | Op::Branch | Op::Bar => base,
        Op::MemIssue | Op::Shared => base,
        Op::Sfu => dev.sfu_cycles_per_warp,
        // Integer div/mod lowers to a long instruction sequence on both
        // GT200 and Fermi (no hardware divider): ~16 ALU ops.
        Op::IDivMod => 16 * base,
    }
}

/// Execution context of one thread block.
pub struct BlockCtx<'a> {
    pub(crate) device: &'a DeviceSpec,
    /// Block index within the grid.
    pub block_idx: u32,
    /// Grid size in blocks.
    pub grid_dim: u32,
    /// Threads per block.
    pub block_dim: u32,
    pub(crate) sm_id: usize,
    mask_stack: Vec<Mask>,
    shared: SharedMem,
    pub(crate) stats: &'a mut KernelStats,
    tex: &'a mut Cache,
    l1: &'a mut Cache,
    declared_shared_bytes: u32,
    // Reusable scratch buffers for the memory models (allocated once per
    // block, reused by every access — the per-op `collect()`s they
    // replace dominated interpreter time). `scratch_lanes` and
    // `scratch_words` are parallel: active lane, shared word address.
    scratch_lanes: Vec<u32>,
    scratch_words: Vec<u32>,
    scratch_addrs: Vec<u64>,
    scratch_lines: Vec<u64>,
    scratch_txns: Vec<Transaction>,
    scratch_counts: Vec<(u64, u32)>,
}

impl<'a> BlockCtx<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        device: &'a DeviceSpec,
        block_idx: u32,
        grid_dim: u32,
        block_dim: u32,
        sm_id: usize,
        shared_bytes: u32,
        stats: &'a mut KernelStats,
        tex: &'a mut Cache,
        l1: &'a mut Cache,
    ) -> Self {
        BlockCtx {
            device,
            block_idx,
            grid_dim,
            block_dim,
            sm_id,
            mask_stack: vec![Mask::all(block_dim as usize)],
            shared: SharedMem::new(shared_bytes),
            stats,
            tex,
            l1,
            declared_shared_bytes: shared_bytes,
            scratch_lanes: Vec::new(),
            scratch_words: Vec::new(),
            scratch_addrs: Vec::new(),
            scratch_lines: Vec::new(),
            scratch_txns: Vec::new(),
            scratch_counts: Vec::new(),
        }
    }

    /// The device this block runs on.
    pub fn device(&self) -> &DeviceSpec {
        self.device
    }

    /// Current active mask.
    #[inline]
    pub fn active(&self) -> &Mask {
        self.mask_stack.last().expect("mask stack never empty")
    }

    /// Charge `count` instructions of class `op` to every active warp.
    pub fn charge(&mut self, op: Op, count: u64) {
        let warps = self.active().active_warps() as f64;
        if warps == 0.0 {
            return;
        }
        let cycles = op_cycles(self.device, op) as f64;
        self.stats.issue_cycles_per_sm[self.sm_id] += warps * cycles * count as f64;
        self.stats.warp_instructions += warps * count as f64;
    }

    // --- register creation ------------------------------------------------

    /// `threadIdx.x` of every lane.
    pub fn thread_idx(&mut self) -> Reg<u32> {
        self.charge(Op::Mov, 1);
        let mut out = u32::take(self.block_dim as usize);
        for (t, o) in out.iter_mut().enumerate() {
            *o = t as u32;
        }
        Reg(out)
    }

    /// `blockIdx.x * blockDim.x + threadIdx.x`.
    pub fn global_thread_idx(&mut self) -> Reg<u32> {
        self.charge(Op::IAlu, 1);
        let base = self.block_idx * self.block_dim;
        let mut out = u32::take(self.block_dim as usize);
        for (t, o) in out.iter_mut().enumerate() {
            *o = base + t as u32;
        }
        Reg(out)
    }

    /// Broadcast an f32 constant.
    pub fn splat_f32(&mut self, v: f32) -> Reg<f32> {
        self.charge(Op::Mov, 1);
        let mut out = f32::take(self.block_dim as usize);
        out.fill(v);
        Reg(out)
    }

    /// Broadcast a u32 constant.
    pub fn splat_u32(&mut self, v: u32) -> Reg<u32> {
        self.charge(Op::Mov, 1);
        let mut out = u32::take(self.block_dim as usize);
        out.fill(v);
        Reg(out)
    }

    /// Initialise a register from a lane function (costed as one move; use
    /// for thread-dependent seeds and similar setup, not bulk compute).
    /// Only *active* lanes are evaluated — inactive lanes read back 0.
    pub fn reg_from_fn_u32(&mut self, mut f: impl FnMut(usize) -> u32) -> Reg<u32> {
        self.charge(Op::Mov, 1);
        let mut out = u32::take(self.block_dim as usize);
        for lane in self.active().lanes() {
            out[lane] = f(lane);
        }
        Reg(out)
    }

    // --- generic lane-wise helpers ----------------------------------------
    //
    // Lane-wise operations walk the active mask's contiguous runs with
    // slice loops; inactive lanes of a fresh register stay 0.

    /// A fresh register with `f(a[lane])` in every active lane.
    fn map1<A: PoolItem, T: PoolItem>(&self, a: &Reg<A>, f: impl Fn(A) -> T) -> Reg<T> {
        let mut out = T::take(self.block_dim as usize);
        for r in self.active().runs() {
            for (o, &x) in out[r.clone()].iter_mut().zip(&a.0[r]) {
                *o = f(x);
            }
        }
        Reg(out)
    }

    /// A fresh register with `f(a[lane], b[lane])` in every active lane.
    fn map2<T: PoolItem>(&self, a: &Reg<T>, b: &Reg<T>, f: impl Fn(T, T) -> T) -> Reg<T> {
        let mut out = T::take(self.block_dim as usize);
        for r in self.active().runs() {
            let (a, b) = (&a.0[r.clone()], &b.0[r.clone()]);
            for ((o, &x), &y) in out[r].iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        }
        Reg(out)
    }

    fn bin<T: PoolItem>(
        &mut self,
        op: Op,
        a: &Reg<T>,
        b: &Reg<T>,
        f: impl Fn(T, T) -> T,
    ) -> Reg<T> {
        self.charge(op, 1);
        self.map2(a, b, f)
    }

    fn un<T: PoolItem>(&mut self, op: Op, a: &Reg<T>, f: impl Fn(T) -> T) -> Reg<T> {
        self.charge(op, 1);
        self.map1(a, f)
    }

    // --- f32 arithmetic -----------------------------------------------------

    pub fn fadd(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Reg<f32> {
        self.bin(Op::FAlu, a, b, |x, y| x + y)
    }
    pub fn fsub(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Reg<f32> {
        self.bin(Op::FAlu, a, b, |x, y| x - y)
    }
    pub fn fmul(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Reg<f32> {
        self.bin(Op::FMul, a, b, |x, y| x * y)
    }
    /// `a * b + c` as a single FMA.
    pub fn fma(&mut self, a: &Reg<f32>, b: &Reg<f32>, c: &Reg<f32>) -> Reg<f32> {
        self.charge(Op::FMul, 1);
        let mut out = f32::take(self.block_dim as usize);
        for r in self.active().runs() {
            let (a, b, c) = (&a.0[r.clone()], &b.0[r.clone()], &c.0[r.clone()]);
            for (((o, &x), &y), &z) in out[r].iter_mut().zip(a).zip(b).zip(c) {
                *o = x.mul_add(y, z);
            }
        }
        Reg(out)
    }
    /// Division lowers to SFU reciprocal + multiply.
    pub fn fdiv(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Reg<f32> {
        self.charge(Op::Sfu, 1);
        self.bin(Op::FMul, a, b, |x, y| x / y)
    }
    pub fn fmin(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Reg<f32> {
        self.bin(Op::FAlu, a, b, f32::min)
    }
    pub fn fmax(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Reg<f32> {
        self.bin(Op::FAlu, a, b, f32::max)
    }
    /// `__powf` — two SFU passes (log + exp) plus a multiply.
    pub fn fpow(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Reg<f32> {
        self.charge(Op::Sfu, 2);
        self.bin(Op::FMul, a, b, f32::powf)
    }
    /// Absolute value.
    pub fn fabs(&mut self, a: &Reg<f32>) -> Reg<f32> {
        self.un(Op::FAlu, a, f32::abs)
    }
    /// SFU reciprocal (`__frcp`).
    pub fn frecip(&mut self, a: &Reg<f32>) -> Reg<f32> {
        self.un(Op::Sfu, a, |x| 1.0 / x)
    }
    /// SFU square root.
    pub fn fsqrt(&mut self, a: &Reg<f32>) -> Reg<f32> {
        self.un(Op::Sfu, a, f32::sqrt)
    }

    // --- u32 arithmetic -----------------------------------------------------

    pub fn iadd(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(Op::IAlu, a, b, u32::wrapping_add)
    }
    pub fn isub(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(Op::IAlu, a, b, u32::wrapping_sub)
    }
    pub fn imul(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(Op::IAlu, a, b, u32::wrapping_mul)
    }
    pub fn imod(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(Op::IDivMod, a, b, |x, y| x % y)
    }
    pub fn idiv(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(Op::IDivMod, a, b, |x, y| x / y)
    }
    pub fn iand(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(Op::IAlu, a, b, |x, y| x & y)
    }
    pub fn ior(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(Op::IAlu, a, b, |x, y| x | y)
    }
    pub fn ishl(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(Op::IAlu, a, b, |x, y| x.wrapping_shl(y))
    }
    pub fn ishr(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(Op::IAlu, a, b, |x, y| x.wrapping_shr(y))
    }
    pub fn imin(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(Op::IAlu, a, b, u32::min)
    }
    pub fn imax(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(Op::IAlu, a, b, u32::max)
    }

    /// u32 → f32 conversion.
    pub fn u2f(&mut self, a: &Reg<u32>) -> Reg<f32> {
        self.charge(Op::Mov, 1);
        self.map1(a, |x| x as f32)
    }

    /// f32 → u32 truncating conversion.
    pub fn f2u(&mut self, a: &Reg<f32>) -> Reg<u32> {
        self.charge(Op::Mov, 1);
        self.map1(a, |x| x.max(0.0) as u32)
    }

    /// Mask selecting a single lane of the block (e.g. "thread 0 writes
    /// the result").
    pub fn lane_mask(&self, lane: u32) -> Mask {
        Mask::from_fn(self.block_dim as usize, |l| l == lane as usize)
    }

    // --- comparisons & selection ---------------------------------------------

    fn cmp<T: PoolItem>(&mut self, a: &Reg<T>, b: &Reg<T>, f: impl Fn(T, T) -> bool) -> Mask {
        self.charge(Op::FAlu, 1);
        self.active().and_where(&a.0, &b.0, f)
    }

    pub fn flt(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Mask {
        self.cmp(a, b, |x, y| x < y)
    }
    pub fn fle(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Mask {
        self.cmp(a, b, |x, y| x <= y)
    }
    pub fn fge(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Mask {
        self.cmp(a, b, |x, y| x >= y)
    }
    pub fn fgt(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Mask {
        self.cmp(a, b, |x, y| x > y)
    }
    pub fn ult(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Mask {
        self.cmp(a, b, |x, y| x < y)
    }
    pub fn ule(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Mask {
        self.cmp(a, b, |x, y| x <= y)
    }
    pub fn ueq(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Mask {
        self.cmp(a, b, |x, y| x == y)
    }
    pub fn une(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Mask {
        self.cmp(a, b, |x, y| x != y)
    }

    /// `m ? a : b` on active lanes, 0 elsewhere, reading both masks a
    /// 64-lane word at a time. A fully active word copies the side most
    /// of its lanes take and patches the others lane by lane.
    fn sel<T: PoolItem>(&mut self, m: &Mask, a: &Reg<T>, b: &Reg<T>) -> Reg<T> {
        self.charge(Op::Mov, 1);
        let mut out = T::take(self.block_dim as usize);
        let words = self.active().words().iter().zip(m.words());
        let lanes = out.chunks_mut(64).zip(a.0.chunks(64).zip(b.0.chunks(64)));
        for ((&active, &cond), (o, (a, b))) in words.zip(lanes) {
            let full = u64::MAX >> (64 - o.len());
            if active == full {
                let (most, rest, mut patch) = if 2 * (cond.count_ones() as usize) <= o.len() {
                    (b, a, cond)
                } else {
                    (a, b, !cond & full)
                };
                o.copy_from_slice(most);
                while patch != 0 {
                    let i = patch.trailing_zeros() as usize;
                    o[i] = rest[i];
                    patch &= patch - 1;
                }
                continue;
            }
            let mut lanes = active;
            while lanes != 0 {
                let i = lanes.trailing_zeros() as usize;
                o[i] = if (cond >> i) & 1 == 1 { a[i] } else { b[i] };
                lanes &= lanes - 1;
            }
        }
        Reg(out)
    }

    /// Lane-wise select: `m ? a : b`.
    pub fn select_f32(&mut self, m: &Mask, a: &Reg<f32>, b: &Reg<f32>) -> Reg<f32> {
        self.sel(m, a, b)
    }

    /// Lane-wise select: `m ? a : b`.
    pub fn select_u32(&mut self, m: &Mask, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.sel(m, a, b)
    }

    /// Predicated assignment: active lanes copy `src` into `dst`, inactive
    /// lanes keep their value (how real registers behave under masking).
    pub fn assign_f32(&mut self, dst: &mut Reg<f32>, src: &Reg<f32>) {
        self.assign(dst, src);
    }

    /// Predicated assignment for u32 registers.
    pub fn assign_u32(&mut self, dst: &mut Reg<u32>, src: &Reg<u32>) {
        self.assign(dst, src);
    }

    fn assign<T: PoolItem>(&mut self, dst: &mut Reg<T>, src: &Reg<T>) {
        self.charge(Op::Mov, 1);
        for r in self.active().runs() {
            dst.0[r.clone()].copy_from_slice(&src.0[r]);
        }
    }

    // --- control flow ----------------------------------------------------------

    fn count_divergence(&mut self, cond: &Mask) {
        let active = self.active();
        let mut divergent = 0.0;
        for w in 0..active.warp_count() {
            let aw = active.warp_bits(w);
            if aw == 0 {
                continue;
            }
            let cw = cond.warp_bits(w) & aw;
            if cw != 0 && cw != aw {
                divergent += 1.0;
            }
        }
        self.stats.divergent_branches += divergent;
    }

    /// Structured if/else: runs `then_f` with the mask narrowed to
    /// `active & cond`, then `else_f` with `active & !cond`. Warps with
    /// lanes on both sides are counted divergent and pay for both bodies.
    pub fn if_else(
        &mut self,
        gm: &mut GlobalMem,
        cond: &Mask,
        then_f: impl FnOnce(&mut Self, &mut GlobalMem),
        else_f: impl FnOnce(&mut Self, &mut GlobalMem),
    ) {
        self.charge(Op::Branch, 1);
        self.count_divergence(cond);
        let then_mask = self.active().and(cond);
        let else_mask = self.active().and_not(cond);
        if then_mask.any() {
            self.mask_stack.push(then_mask);
            then_f(self, gm);
            self.mask_stack.pop();
        }
        if else_mask.any() {
            self.mask_stack.push(else_mask);
            else_f(self, gm);
            self.mask_stack.pop();
        }
    }

    /// `if_else` without an else branch.
    pub fn if_then(
        &mut self,
        gm: &mut GlobalMem,
        cond: &Mask,
        then_f: impl FnOnce(&mut Self, &mut GlobalMem),
    ) {
        self.if_else(gm, cond, then_f, |_, _| {});
    }

    /// Charge and account a branch on `cond` without executing anything.
    /// Pair with [`BlockCtx::with_mask`] when the two sides of a branch
    /// must share mutable per-lane state (which `if_else`'s simultaneous
    /// closures cannot express).
    pub fn branch(&mut self, cond: &Mask) {
        self.charge(Op::Branch, 1);
        self.count_divergence(cond);
    }

    /// Run `f` with the active mask narrowed to `active & cond`, charging
    /// nothing for the region itself (use [`BlockCtx::branch`] for the
    /// branch cost). Skipped entirely when no lane qualifies.
    pub fn with_mask(
        &mut self,
        gm: &mut GlobalMem,
        cond: &Mask,
        f: impl FnOnce(&mut Self, &mut GlobalMem),
    ) {
        let m = self.active().and(cond);
        if m.any() {
            self.mask_stack.push(m);
            f(self, gm);
            self.mask_stack.pop();
        }
    }

    /// Data-dependent loop. `body` executes under the mask of lanes still
    /// looping and returns the mask of lanes that want another trip; the
    /// loop ends when none do. A warp keeps paying as long as *any* of its
    /// lanes iterates — the intra-warp serialization the paper's
    /// roulette-wheel scan suffers. (Single-closure form so condition and
    /// body can share mutable per-lane state.)
    pub fn loop_while(
        &mut self,
        gm: &mut GlobalMem,
        mut body: impl FnMut(&mut Self, &mut GlobalMem) -> Mask,
    ) {
        const MAX_TRIPS: u64 = 100_000_000;
        let entry = self.active().clone();
        self.mask_stack.push(entry);
        let mut trips = 0u64;
        loop {
            self.charge(Op::Branch, 1);
            let cont = body(self, gm);
            let next = self.active().and(&cont);
            // Warps with lanes exiting while others continue diverge.
            self.count_divergence(&cont);
            if !next.any() {
                break;
            }
            *self.mask_stack.last_mut().expect("pushed above") = next;
            trips += 1;
            assert!(trips < MAX_TRIPS, "loop_while exceeded {MAX_TRIPS} iterations");
        }
        self.mask_stack.pop();
    }

    /// `__syncthreads()`: semantically a no-op in lockstep execution, but
    /// charged and counted.
    pub fn sync_threads(&mut self) {
        // Barriers are charged for every warp of the block (even fully
        // masked ones must arrive in CUDA's model).
        let warps = self.block_dim.div_ceil(WARP as u32) as f64;
        let cycles = op_cycles(self.device, Op::Bar) as f64;
        self.stats.issue_cycles_per_sm[self.sm_id] += warps * cycles;
        self.stats.warp_instructions += warps;
        self.stats.barriers += 1.0;
    }

    // --- shared memory ----------------------------------------------------------

    /// Allocate `len` f32 elements of shared memory, or `None` when the
    /// block's declared budget is exhausted.
    pub fn try_shared_alloc_f32(&mut self, len: usize) -> Option<ShPtr<f32>> {
        self.shared.try_alloc(len as u32).map(|off| ShPtr::new(off, len as u32))
    }

    /// Allocate shared f32 storage; panics if over the declared budget.
    pub fn shared_alloc_f32(&mut self, len: usize) -> ShPtr<f32> {
        self.try_shared_alloc_f32(len).unwrap_or_else(|| {
            panic!(
                "shared memory exhausted: wanted {} bytes more, declared {}",
                4 * len,
                self.declared_shared_bytes
            )
        })
    }

    /// Allocate `len` u32 elements of shared memory.
    pub fn try_shared_alloc_u32(&mut self, len: usize) -> Option<ShPtr<u32>> {
        self.shared.try_alloc(len as u32).map(|off| ShPtr::new(off, len as u32))
    }

    /// Allocate shared u32 storage; panics if over the declared budget.
    pub fn shared_alloc_u32(&mut self, len: usize) -> ShPtr<u32> {
        self.try_shared_alloc_u32(len).unwrap_or_else(|| {
            panic!(
                "shared memory exhausted: wanted {} bytes more, declared {}",
                4 * len,
                self.declared_shared_bytes
            )
        })
    }

    /// Gather the active lanes and their word addresses into the reusable
    /// parallel scratch lists (callers put them back when done).
    fn gather_words<T>(&mut self, ptr: ShPtr<T>, idx: &Reg<u32>) -> (Vec<u32>, Vec<u32>) {
        let mut lanes = std::mem::take(&mut self.scratch_lanes);
        let mut words = std::mem::take(&mut self.scratch_words);
        lanes.clear();
        words.clear();
        for r in self.active().runs() {
            lanes.extend(r.start as u32..r.end as u32);
            words.extend(idx.0[r].iter().map(|&i| ptr.word_addr(i)));
        }
        (lanes, words)
    }

    /// Charge one shared access instruction and its bank conflicts.
    /// `lanes` (ascending) and `words` are the active lanes and the word
    /// addresses they access.
    fn charge_shared(&mut self, lanes: &[u32], words: &[u32]) {
        self.charge(Op::Shared, 1);
        self.stats.shared_accesses += words.len() as f64;
        let banks = self.device.shared_banks as usize;
        // Conflict granularity: half-warp on CC 1.x, full warp on CC 2.x.
        let group = if self.device.compute_capability.is_fermi() { WARP } else { WARP / 2 };
        let mut extra_total = 0.0;
        let mut s = 0;
        while s < lanes.len() {
            let g = lanes[s] as usize / group;
            let e = s + lanes[s..].partition_point(|&l| l as usize / group == g);
            let degree = bank_conflict_degree(&words[s..e], banks);
            if degree > 1 {
                extra_total += (degree - 1) as f64;
            }
            s = e;
        }
        if extra_total > 0.0 {
            self.stats.bank_conflict_extra += extra_total;
            self.stats.issue_cycles_per_sm[self.sm_id] +=
                extra_total * op_cycles(self.device, Op::Shared) as f64;
        }
    }

    /// Shared load with per-lane indices.
    pub fn sh_ld_f32(&mut self, ptr: ShPtr<f32>, idx: &Reg<u32>) -> Reg<f32> {
        let (lanes, words) = self.gather_words(ptr, idx);
        self.charge_shared(&lanes, &words);
        let mut out = f32::take(self.block_dim as usize);
        for (&lane, &word) in lanes.iter().zip(&words) {
            out[lane as usize] = f32::from_bits(self.shared.load(word));
        }
        self.scratch_lanes = lanes;
        self.scratch_words = words;
        Reg(out)
    }

    /// Shared store with per-lane indices (lane order resolves races).
    pub fn sh_st_f32(&mut self, ptr: ShPtr<f32>, idx: &Reg<u32>, val: &Reg<f32>) {
        let (lanes, words) = self.gather_words(ptr, idx);
        self.charge_shared(&lanes, &words);
        for (&lane, &word) in lanes.iter().zip(&words) {
            self.shared.store(word, val.0[lane as usize].to_bits());
        }
        self.scratch_lanes = lanes;
        self.scratch_words = words;
    }

    /// Shared load with per-lane indices (u32).
    pub fn sh_ld_u32(&mut self, ptr: ShPtr<u32>, idx: &Reg<u32>) -> Reg<u32> {
        let (lanes, words) = self.gather_words(ptr, idx);
        self.charge_shared(&lanes, &words);
        let mut out = u32::take(self.block_dim as usize);
        for (&lane, &word) in lanes.iter().zip(&words) {
            out[lane as usize] = self.shared.load(word);
        }
        self.scratch_lanes = lanes;
        self.scratch_words = words;
        Reg(out)
    }

    /// Shared store with per-lane indices (u32).
    pub fn sh_st_u32(&mut self, ptr: ShPtr<u32>, idx: &Reg<u32>, val: &Reg<u32>) {
        let (lanes, words) = self.gather_words(ptr, idx);
        self.charge_shared(&lanes, &words);
        for (&lane, &word) in lanes.iter().zip(&words) {
            self.shared.store(word, val.0[lane as usize]);
        }
        self.scratch_lanes = lanes;
        self.scratch_words = words;
    }

    /// Uniform (broadcast) shared read — all active lanes read one word;
    /// broadcast never conflicts.
    pub fn sh_ld_f32_uniform(&mut self, ptr: ShPtr<f32>, idx: u32) -> f32 {
        self.charge(Op::Shared, 1);
        self.stats.shared_accesses += self.active().count() as f64;
        f32::from_bits(self.shared.load(ptr.word_addr(idx)))
    }

    /// Uniform (broadcast) shared read of a u32 word.
    pub fn sh_ld_u32_uniform(&mut self, ptr: ShPtr<u32>, idx: u32) -> u32 {
        self.charge(Op::Shared, 1);
        self.stats.shared_accesses += self.active().count() as f64;
        self.shared.load(ptr.word_addr(idx))
    }

    // --- global memory -----------------------------------------------------------

    /// Charge one global access instruction: coalescing (CC 1.3) or L1
    /// lines (CC 2.0) per active warp. Returns the index every active
    /// lane uses when the whole access is one broadcast word, so the
    /// functional half can skip its per-lane walk.
    ///
    /// A warp whose active lanes all use one index is charged in closed
    /// form — exactly what the general path charges for it: one 32-byte
    /// transaction per non-empty half-warp on CC 1.3, one line on CC 2.0.
    fn charge_global_access(
        &mut self,
        gm: &GlobalMem,
        buf_id: u32,
        idx: &Reg<u32>,
        store: bool,
    ) -> Option<u32> {
        self.charge(Op::MemIssue, 1);
        let mut addrs = std::mem::take(&mut self.scratch_addrs);
        let mut lines = std::mem::take(&mut self.scratch_lines);
        let mut txns = std::mem::take(&mut self.scratch_txns);
        let active = self.mask_stack.last().expect("mask stack never empty");
        let stats = &mut *self.stats;
        stats.mem_warp_instructions += active.active_warps() as f64;
        let fermi = self.device.compute_capability.is_fermi();
        let base = gm.base(buf_id);
        // `Some(Some(i))`: every active warp so far broadcast index `i`.
        let mut block_uniform: Option<Option<u32>> = None;
        for w in 0..active.warp_count() {
            let bits = active.warp_bits(w);
            if bits == 0 {
                continue;
            }
            let lane0 = w * WARP;
            let lanes = &idx.0[lane0..(lane0 + WARP).min(idx.0.len())];
            let uniform = warp_uniform(bits, lanes);
            block_uniform = match (block_uniform, uniform) {
                (None, u) => Some(u),
                (Some(Some(b)), Some(u)) if b == u => Some(Some(b)),
                _ => Some(None),
            };
            // Partition camping: a warp-wide broadcast load means every
            // concurrently running block is reading this address right now,
            // all hammering one DRAM partition — traffic is effectively
            // serialized by `broadcast_camping`.
            let camping = if !store && uniform.is_some() && bits.count_ones() >= 16 {
                self.device.broadcast_camping
            } else {
                1.0
            };
            if let Some(i) = uniform {
                let addr = elem_addr(base, i);
                if fermi {
                    charge_line(stats, self.l1, addr & !127, store, camping);
                } else {
                    let bytes = word_transaction(addr).bytes;
                    for half in [bits & 0xFFFF, bits >> 16] {
                        if half != 0 {
                            charge_transaction(stats, bytes, store, camping);
                        }
                    }
                }
                continue;
            }
            // Lane addresses in ascending lane order: the first `half`
            // belong to the warp's first half-warp.
            addrs.clear();
            addrs.extend(active.warp_lanes(w).map(|lane| elem_addr(base, idx.0[lane])));
            let half = (bits & 0xFFFF).count_ones() as usize;
            if fermi {
                // L1-cached loads; stores go straight through in line units.
                lines_cc20_into(&addrs, &mut lines);
                for &line in &lines {
                    charge_line(stats, self.l1, line, store, camping);
                }
            } else {
                // CC 1.3: segment coalescing per half-warp, no cache.
                for part in [&addrs[..half], &addrs[half..]] {
                    coalesce_cc13_half_warp_into(part, &mut lines, &mut txns);
                    for t in &txns {
                        charge_transaction(stats, t.bytes, store, camping);
                    }
                }
            }
        }
        self.scratch_addrs = addrs;
        self.scratch_lines = lines;
        self.scratch_txns = txns;
        block_uniform.flatten()
    }

    /// Functional half of a global load: `src[idx[lane]]` for every
    /// active lane, with the buffer resolved once per operation (`kind`
    /// and `id` name the buffer in the out-of-bounds panic). A broadcast
    /// (`uniform`, from [`Self::charge_global_access`]) is one bounds
    /// check and a fill.
    fn gather_global<T: PoolItem>(
        &self,
        kind: &str,
        id: u32,
        src: &[T],
        idx: &Reg<u32>,
        uniform: Option<u32>,
    ) -> Reg<T> {
        let load = |i: u32| match src.get(i as usize) {
            Some(&x) => x,
            None => oob_load(kind, id, src.len(), i as usize),
        };
        let mut out = T::take(self.block_dim as usize);
        if let Some(i) = uniform {
            let x = load(i);
            for r in self.active().runs() {
                out[r].fill(x);
            }
            return Reg(out);
        }
        for r in self.active().runs() {
            for (o, &i) in out[r.clone()].iter_mut().zip(&idx.0[r]) {
                *o = load(i);
            }
        }
        Reg(out)
    }

    /// Global load, f32.
    pub fn ld_global_f32(
        &mut self,
        gm: &GlobalMem,
        ptr: DevicePtr<f32>,
        idx: &Reg<u32>,
    ) -> Reg<f32> {
        let uniform = self.charge_global_access(gm, ptr.id, idx, false);
        self.gather_global("f32", ptr.id, gm.f32(ptr), idx, uniform)
    }

    /// Global load, u32.
    pub fn ld_global_u32(
        &mut self,
        gm: &GlobalMem,
        ptr: DevicePtr<u32>,
        idx: &Reg<u32>,
    ) -> Reg<u32> {
        let uniform = self.charge_global_access(gm, ptr.id, idx, false);
        self.gather_global("u32", ptr.id, gm.u32(ptr), idx, uniform)
    }

    /// Global store, f32 (lane order resolves same-address races).
    pub fn st_global_f32(
        &mut self,
        gm: &mut GlobalMem,
        ptr: DevicePtr<f32>,
        idx: &Reg<u32>,
        val: &Reg<f32>,
    ) {
        self.charge_global_access(gm, ptr.id, idx, true);
        let active = self.mask_stack.last().expect("mask stack never empty");
        gm.store_f32_lanes(ptr, active.lanes().map(|lane| (idx.0[lane] as usize, val.0[lane])));
    }

    /// Global store, u32.
    pub fn st_global_u32(
        &mut self,
        gm: &mut GlobalMem,
        ptr: DevicePtr<u32>,
        idx: &Reg<u32>,
        val: &Reg<u32>,
    ) {
        self.charge_global_access(gm, ptr.id, idx, true);
        let active = self.mask_stack.last().expect("mask stack never empty");
        gm.store_u32_lanes(ptr, active.lanes().map(|lane| (idx.0[lane] as usize, val.0[lane])));
    }

    /// Read-only load through the texture cache (32-byte lines, per-SM).
    ///
    /// Hits return from the on-chip cache at a fraction of DRAM latency, so
    /// the access contributes to the exposed-latency counter in proportion
    /// to its miss ratio (with a floor for the cache's own latency).
    pub fn ld_tex_f32(&mut self, gm: &GlobalMem, ptr: DevicePtr<f32>, idx: &Reg<u32>) -> Reg<f32> {
        self.charge(Op::MemIssue, 1);
        let mut out = f32::take(self.block_dim as usize);
        let active = self.mask_stack.last().expect("mask stack never empty");
        let stats = &mut *self.stats;
        let (mut hits, mut misses) = (0u64, 0u64);
        let (base, src) = (gm.base(ptr.id), gm.f32(ptr));
        for lane in active.lanes() {
            let i = idx.0[lane];
            if self.tex.access(elem_addr(base, i)) {
                stats.tex_hits += 1.0;
                hits += 1;
            } else {
                stats.tex_misses += 1.0;
                misses += 1;
                stats.dram_bytes += self.tex.line_bytes() as f64;
                stats.ld_transactions += 1.0;
            }
            out[lane] = match src.get(i as usize) {
                Some(&x) => x,
                None => oob_load("f32", ptr.id, src.len(), i as usize),
            };
        }
        let total = (hits + misses).max(1) as f64;
        let weight = 0.35 + 0.65 * misses as f64 / total;
        stats.mem_warp_instructions += active.active_warps() as f64 * weight;
        Reg(out)
    }

    /// Atomic `tau[idx] += val` with intra-warp serialization. On devices
    /// without native float atomics (Tesla C1060) the operation is costed
    /// as the CAS-loop emulation the paper alludes to.
    pub fn atomic_add_f32(
        &mut self,
        gm: &mut GlobalMem,
        ptr: DevicePtr<f32>,
        idx: &Reg<u32>,
        val: &Reg<f32>,
    ) {
        self.charge(Op::MemIssue, 1);
        let mut addr_counts = std::mem::take(&mut self.scratch_counts);
        let active = self.mask_stack.last().expect("mask stack never empty");
        let stats = &mut *self.stats;
        stats.mem_warp_instructions += active.active_warps() as f64;
        let base = gm.base(ptr.id);
        let emu = if self.device.native_float_atomics {
            1.0
        } else {
            self.device.atomic_emulation_factor as f64
        };
        for w in 0..active.warp_count() {
            if !active.warp_any(w) {
                continue;
            }
            addr_counts.clear();
            let mut n_ops = 0.0f64;
            for lane in active.warp_lanes(w) {
                let addr = elem_addr(base, idx.0[lane]);
                n_ops += 1.0;
                match addr_counts.iter_mut().find(|(a, _)| *a == addr) {
                    Some((_, c)) => *c += 1,
                    None => addr_counts.push((addr, 1)),
                }
            }
            let distinct = addr_counts.len() as f64;
            let max_mult = addr_counts.iter().map(|&(_, c)| c).max().unwrap_or(0) as f64;
            stats.atomic_ops += n_ops;
            stats.atomic_conflicts += n_ops - distinct;
            // The warp stalls for one serialized round per replay; each
            // round costs the device's atomic latency (scaled by the CAS
            // emulation factor on CC 1.x).
            stats.issue_cycles_per_sm[self.sm_id] +=
                max_mult * self.device.atomic_cycles as f64 * emu;
            // Each distinct address is a read-modify-write at the memory
            // partition: one 32B read + one 32B write.
            stats.dram_bytes += distinct * 64.0 * emu;
            stats.st_transactions += distinct * emu;
        }
        self.scratch_counts = addr_counts;
        let active = self.mask_stack.last().expect("mask stack never empty");
        gm.atomic_add_f32_lanes(
            ptr,
            active.lanes().map(|lane| (idx.0[lane] as usize, val.0[lane])),
        );
    }

    // --- device RNG -------------------------------------------------------------

    /// Park–Miller minimal-standard LCG step, state in registers — the
    /// "device function instead of CURAND" of Table II, version 3 (the same
    /// generator ACOTSP's sequential code uses). Costed as the standard
    /// division-free implementation (Schrage / `__umulhi` folding: a wide
    /// multiply plus a few ALU ops), not a hardware modulo.
    pub fn lcg_next_f32(&mut self, state: &mut Reg<u32>) -> Reg<f32> {
        // s = s * 16807 mod (2^31 - 1); r = s / (2^31 - 1).
        self.charge(Op::IAlu, 4); // mul.lo, mul.hi, fold, conditional add
        self.charge(Op::FMul, 1); // scale to [0,1)
        let mut out = f32::take(self.block_dim as usize);
        for lane in self.active().lanes() {
            let s = crate::rng::park_miller(state.0[lane]);
            state.0[lane] = s;
            out[lane] = s as f32 / 2_147_483_647.0;
        }
        self.stats.rng_calls += self.active().count() as f64;
        Reg(out)
    }

    /// CURAND-style draw: per-thread generator state lives in *global*
    /// memory (XORWOW state is 48 bytes), so every draw pays state loads
    /// and stores — the overhead version 3 of Table II removes.
    ///
    /// `states` must hold `12 * total_threads` words (12 words = 48 bytes).
    pub fn curand_next_f32(&mut self, gm: &mut GlobalMem, states: DevicePtr<u32>) -> Reg<f32> {
        let gtid = self.global_thread_idx();
        let twelve = self.splat_u32(12);
        let base = self.imul(&gtid, &twelve);
        // Load 3 words of state, xorshift, store back 3 words (the
        // remaining state words ride along in the same transactions).
        let mut s0 = self.ld_global_u32(gm, states, &base);
        let one = self.splat_u32(1);
        let idx1 = self.iadd(&base, &one);
        let s1 = self.ld_global_u32(gm, states, &idx1);
        let two = self.splat_u32(2);
        let idx2 = self.iadd(&base, &two);
        let s2 = self.ld_global_u32(gm, states, &idx2);
        // XORWOW state update + sequence bookkeeping (the library does
        // substantially more integer work per draw than a bare xorshift).
        self.charge(Op::IAlu, 20);
        let mut out = f32::take(self.block_dim as usize);
        for lane in self.active().lanes() {
            let mut x =
                s0.0[lane] ^ s1.0[lane].rotate_left(13) ^ s2.0[lane].wrapping_mul(0x9E37_79B9);
            if x == 0 {
                x = 0x1234_5678;
            }
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            s0.0[lane] = x;
            out[lane] = (x >> 8) as f32 / (1u32 << 24) as f32;
        }
        self.st_global_u32(gm, states, &base, &s0);
        self.st_global_u32(gm, states, &idx1, &s1);
        self.st_global_u32(gm, states, &idx2, &s2);
        self.stats.rng_calls += self.active().count() as f64;
        Reg(out)
    }

    /// Bytes of shared memory the block has allocated so far.
    pub fn shared_used_bytes(&self) -> u32 {
        self.shared.used_bytes()
    }
}

/// The index every active lane of a warp uses, if they all agree.
/// `bits` is the warp's (non-zero) activity pattern and `idx` its lanes.
fn warp_uniform(bits: u32, idx: &[u32]) -> Option<u32> {
    let first = idx[bits.trailing_zeros() as usize];
    let uniform = if bits == u32::MAX {
        idx.iter().fold(0, |acc, &i| acc | (i ^ first)) == 0
    } else {
        let mut differ = 0u32;
        for (lane, &i) in idx.iter().enumerate() {
            differ |= ((i != first) as u32) << lane;
        }
        differ & bits == 0
    };
    uniform.then_some(first)
}

/// Account one 128-byte line of a CC 2.0 access: loads go through the
/// L1, misses and stores cost a DRAM line transaction.
fn charge_line(stats: &mut KernelStats, l1: &mut Cache, line: u64, store: bool, camping: f64) {
    if !store && l1.access(line) {
        stats.l1_hits += 1.0;
        return;
    }
    if !store {
        stats.l1_misses += 1.0;
    }
    charge_transaction(stats, 128, store, camping);
}

/// Account one DRAM transaction of `bytes`.
fn charge_transaction(stats: &mut KernelStats, bytes: u32, store: bool, camping: f64) {
    stats.dram_bytes += bytes as f64 * camping;
    if store {
        stats.st_transactions += 1.0;
    } else {
        stats.ld_transactions += 1.0;
    }
}
