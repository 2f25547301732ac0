//! Columnar (struct-of-arrays) execution of the protocol's step phase.
//!
//! [`StabilityColumns`] is the [`ColumnarStep`] implementation installed
//! into every engine running [`PopulationStability`] (via
//! [`Protocol::columnar`](popstab_sim::Protocol::columnar)). It holds the
//! population *resident* as compact columns — `round`/`to_recruit`/`lineage`
//! vectors plus packed flag bitmasks — and advances them round after round
//! without materializing `Vec<AgentState>`:
//!
//! 1. **wire pass**: from the columns, compose every agent's three-bit
//!    [`Wire`] (Algorithm 2) as *word algebra*, publishing it in one
//!    partner-readable byte column (`wire8`, the wire bits plus an
//!    always-set presence bit — cache-resident even at million-agent
//!    scale), record each 64-agent block's round uniformity, and list the
//!    rare *latch-hazard* lanes whose pre-step lineage a partner might
//!    copy while this round overwrites it;
//! 2. **step pass**: per block, gather one masked `wire8` byte per lane
//!    and transpose them eight-at-a-time (`pack_lsb`) into four mask
//!    words held in registers, then execute the round's transition as
//!    bitwise algebra straight into the columns, batching coin draws with
//!    [`biased_coin_x8`]. Blocks whose agents disagree on the round number
//!    (possible only under adversarial insertion) fall back to an exact
//!    per-lane transition.
//!
//! The engine transposes `Vec<AgentState>` in ([`ColumnarStep::load`]) only
//! when the vector was mutated behind the columns' back, and back out
//! ([`ColumnarStep::store`]) only when an observer reading the agent slice,
//! an adversary reading agent state, or a snapshot needs it — recorded
//! per-round stats come from [`ColumnarStep::observe`] (popcounts plus a
//! run-length scan of the round column) instead, and so do the decisions
//! of stats-only adversaries, whose alterations
//! [`ColumnarStep::alter`] writes into the columns in place. Without such a reader each round streams ~17
//! bytes per agent instead of two passes over 24-byte structs.
//!
//! # Why this is bit-exact (no stream bump)
//!
//! The agent stream (v3) is counter-addressable: agent `slot`'s draw `j`
//! in a round is a pure finalizer of `(round_key, slot, j)`, independent
//! of any other agent's draws, so *batching* evaluation cannot move any
//! draw. The kernels consume exactly the draw positions `Protocol::step`
//! consumes wherever a draw's outcome is observable: leader selection
//! evaluates each lane's biased coin at the same word positions
//! ([`biased_coin_x8`] is pinned lane-for-lane against
//! [`toss_biased_coin`]), winners replay the scalar draw order (coin
//! words, then color, then lineage) on their own slot stream, and the
//! evaluation split coin is the same first-draws-of-slot-stream the scalar
//! path uses. Split and death slots are emitted in ascending slot order,
//! and [`ColumnarStep::apply`] mirrors the engine's vector semantics
//! (append daughters in split order, then swap-remove deaths descending),
//! so a [`ColumnarStep::store`] after any number of resident rounds
//! reproduces the scalar vector byte for byte. `epoch_len` needs no
//! column: every step writes `params.epoch_len()` into every surviving
//! agent, so `store` pins it uniformly — exact because a store can only
//! observe stepped agents. Daughters clone stepped parents; adversarial
//! inserts and overwrites, whether reloaded with the vector or written
//! in place by [`ColumnarStep::alter`], get the load pass's lane encoding
//! (rounds normalized, `epoch_len` dropped) and are stepped before any
//! store can see them. The engine-level equivalence property
//! tests (`tests/columnar_equivalence.rs`) pin columnar vs scalar
//! trajectories bit-for-bit, and the golden fixtures pin both against
//! history.
//!
//! # Latch hazards
//!
//! Lineage is the one field copied partner-to-agent, and messages are
//! simultaneous: a recruit must latch its recruiter's *pre-step* lineage
//! even if the recruiter's own lineage changes this round. A lane
//! advertising `recruiting` on the wire can have its own lineage
//! overwritten only if it is at round 0 (leader coin) or inactive yet
//! recruiting (adversarial state, itself recruited this round) — honest
//! populations have no such lanes. The wire pass lists them (slot,
//! pre-step lineage) in ascending order; everyone else's lineage is safely
//! read live from the column, which also makes the pooled step pass
//! race-free per element (a lineage element is either overwritten and in
//! the hazard list, or read-only this round).

use std::collections::BTreeMap;

use popstab_sim::batch::ShardPool;
use popstab_sim::columns::{
    tail_mask, word_shard_range, BitCol, ColPtr, ColumnarProtocol, ColumnarStep,
};
use popstab_sim::matching::UNMATCHED;
use popstab_sim::metrics::{RoundStats, RoundTally};
use popstab_sim::rng::{biased_coin_x8, slot_key_x8, slot_rng, LANES};
use popstab_sim::Action;
use rand::Rng;

use crate::coin::toss_biased_coin;
use crate::message::Wire;
use crate::params::Params;
use crate::protocol::PopulationStability;
use crate::state::{AgentState, Color};

impl ColumnarProtocol for PopulationStability {
    type Columns = StabilityColumns;

    fn columns(&self) -> StabilityColumns {
        StabilityColumns::new(self.params().clone())
    }
}

/// Per-shard split/death output lists, merged in shard (= slot) order.
#[derive(Debug, Default)]
struct ShardOut {
    splits: Vec<usize>,
    deaths: Vec<usize>,
}

/// The struct-of-arrays store for [`PopulationStability`]: authoritative
/// agent state as columns, resident across rounds inside the engine.
pub struct StabilityColumns {
    params: Params,
    /// Live population; every column holds exactly this many lanes.
    len: usize,
    // Authoritative state columns (epoch_len is implicit; see module docs).
    round: Vec<u32>,
    to_recruit: Vec<u32>,
    lineage: Vec<u64>,
    active: BitCol,
    recruiting: BitCol,
    color: BitCol,
    is_leader: BitCol,
    // Per-round scratch, rebuilt by the wire pass.
    /// Partner-readable wire byte per agent: [`Wire::bits`] (y, x, e low to
    /// high) plus [`WIRE8_PRESENT`], so one masked gather load yields all
    /// four partner masks at once. Sized to whole 64-lane blocks.
    wire8: Vec<u8>,
    /// Normalized round of each 64-agent block's first lane.
    block_round: Vec<u32>,
    /// Whether every lane of the block shares that round.
    block_uniform: Vec<bool>,
    /// Latch-hazard lanes: (slot, pre-step lineage), ascending by slot.
    hazards: Vec<(u32, u64)>,
    shard_hazards: Vec<Vec<(u32, u64)>>,
    shard_out: Vec<ShardOut>,
}

impl std::fmt::Debug for StabilityColumns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StabilityColumns")
            .field("params", &self.params)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

/// The mutable authoritative columns of one word-aligned range, as the
/// step pass borrows them (range-local indices).
struct StateRange<'a> {
    round: &'a mut [u32],
    to_recruit: &'a mut [u32],
    active: &'a mut [u64],
    recruiting: &'a mut [u64],
    color: &'a mut [u64],
    is_leader: &'a mut [u64],
}

/// Bit 3 of a [`StabilityColumns::wire8`] byte: set on every live lane, so
/// a gathered byte carries its own "was matched" flag (unmatched lanes
/// gather a zeroed byte).
const WIRE8_PRESENT: u8 = 0b1000;

/// Spreads bit `k` of `b` to the least-significant bit of byte `k` (the
/// other byte bits zero). The multiply replicates `b` into every byte, the
/// diagonal mask isolates bit `k` inside byte `k`, and the `+ 0x7f`
/// carry-out turns "byte non-zero" into each byte's top bit — no step ever
/// carries across a byte boundary.
#[inline]
fn spread8(b: u8) -> u64 {
    let v = u64::from(b).wrapping_mul(0x0101_0101_0101_0101) & 0x8040_2010_0804_0201;
    ((v + 0x7f7f_7f7f_7f7f_7f7f) >> 7) & 0x0101_0101_0101_0101
}

/// Packs the least-significant bit of byte `k` into bit `k` — the inverse
/// of [`spread8`]. Every partial product of the multiply lands on a
/// distinct bit position (`8k + 7m` collides for no two `(k, m)` pairs),
/// so the top byte accumulates the eight lane bits carry-free.
#[inline]
fn pack_lsb(t: u64) -> u64 {
    (t & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// One block's gathered partner masks plus geometry, register-resident
/// between the gather loop and the kernel that consumes it. Lane `l`
/// corresponds to global slot `slot0 + l`.
struct Block {
    slot0: usize,
    lanes: usize,
    tail: u64,
    /// Lane was matched this round.
    mm: u64,
    /// Partner's wire `in_eval` bit.
    me: u64,
    /// Partner's wire `x` bit.
    mx: u64,
    /// Partner's wire `y` bit.
    my: u64,
}

impl StabilityColumns {
    /// A store with empty columns; sized by [`ColumnarStep::load`].
    pub fn new(params: Params) -> StabilityColumns {
        StabilityColumns {
            params,
            len: 0,
            round: Vec::new(),
            to_recruit: Vec::new(),
            lineage: Vec::new(),
            active: BitCol::default(),
            recruiting: BitCol::default(),
            color: BitCol::default(),
            is_leader: BitCol::default(),
            wire8: Vec::new(),
            block_round: Vec::new(),
            block_uniform: Vec::new(),
            hazards: Vec::new(),
            shard_hazards: Vec::new(),
            shard_out: Vec::new(),
        }
    }

    /// Sizes the authoritative columns for a population of `n`. Contents
    /// are unspecified: the load pass overwrites every lane.
    fn resize(&mut self, n: usize) {
        let nw = n.div_ceil(64);
        self.round.resize(n, 0);
        self.to_recruit.resize(n, 0);
        self.lineage.resize(n, 0);
        self.active.resize_words(nw);
        self.recruiting.resize_words(nw);
        self.color.resize_words(nw);
        self.is_leader.resize_words(nw);
        self.len = n;
    }

    /// Appends one lane, growing the bit words to cover it, and returns its
    /// index. Its contents are unspecified until the caller writes them.
    fn grow_lane(&mut self) -> usize {
        let la = self.len;
        let nw = (la + 1).div_ceil(64);
        self.round.push(0);
        self.to_recruit.push(0);
        self.lineage.push(0);
        for col in [
            &mut self.active,
            &mut self.recruiting,
            &mut self.color,
            &mut self.is_leader,
        ] {
            col.resize_words(nw);
        }
        self.len = la + 1;
        la
    }

    /// Appends a copy of lane `i` (a split daughter of a stepped parent).
    fn push_clone(&mut self, i: usize) {
        let la = self.grow_lane();
        self.round[la] = self.round[i];
        self.to_recruit[la] = self.to_recruit[i];
        self.lineage[la] = self.lineage[i];
        for col in [
            &mut self.active,
            &mut self.recruiting,
            &mut self.color,
            &mut self.is_leader,
        ] {
            let v = col.get(i);
            col.set(la, v);
        }
    }

    /// Overwrites lane `la` (which must exist) with `s`, as the load pass
    /// would write it.
    fn write_lane(&mut self, la: usize, s: &AgentState) {
        self.round[la] = normalized_round(s.round, self.params.epoch_len());
        self.to_recruit[la] = s.to_recruit;
        self.lineage[la] = s.lineage;
        self.active.set(la, s.active);
        self.recruiting.set(la, s.recruiting);
        self.color.set(la, s.color == Color::One);
        self.is_leader.set(la, s.is_leader);
    }

    /// Swap-removes lane `i`, exactly as `Vec::swap_remove` would.
    fn swap_remove(&mut self, i: usize) {
        let last = self.len - 1;
        self.round.swap_remove(i);
        self.to_recruit.swap_remove(i);
        self.lineage.swap_remove(i);
        let nw = last.div_ceil(64);
        for col in [
            &mut self.active,
            &mut self.recruiting,
            &mut self.color,
            &mut self.is_leader,
        ] {
            if i != last {
                let v = col.get(last);
                col.set(i, v);
            }
            // Words above ceil(len/64) hold no live lanes; trimming keeps
            // the push path's growth zero-fill meaningful.
            col.resize_words(nw);
        }
        self.len = last;
    }

    /// Serial wire + step passes over the full range.
    fn step_serial(
        &mut self,
        partners: &[u32],
        round_key: u64,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        let StabilityColumns {
            params,
            len,
            round,
            to_recruit,
            lineage,
            active,
            recruiting,
            color,
            is_leader,
            wire8,
            block_round,
            block_uniform,
            hazards,
            ..
        } = self;
        hazards.clear();
        wire_range(
            params,
            0,
            *len,
            round,
            lineage,
            active.words(),
            recruiting.words(),
            color.words(),
            wire8,
            block_round,
            block_uniform,
            hazards,
        );
        let lin = ColPtr::new(lineage.as_mut_ptr());
        let mut st = StateRange {
            round,
            to_recruit,
            active: active.words_mut(),
            recruiting: recruiting.words_mut(),
            color: color.words_mut(),
            is_leader: is_leader.words_mut(),
        };
        step_range(
            params,
            round_key,
            0,
            *len,
            partners,
            wire8,
            hazards,
            lin,
            &mut st,
            block_round,
            block_uniform,
            splits,
            deaths,
        );
    }

    /// Pool-sharded wire + step passes over word-aligned shard ranges,
    /// with a barrier in between (the step pass reads *global* wire bits
    /// and hazards written by the wire pass).
    fn step_pooled(
        &mut self,
        partners: &[u32],
        round_key: u64,
        pool: &ShardPool,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        use std::slice;
        let n = self.len;
        let nw = n.div_ceil(64);
        let shards = pool.shards();
        if self.shard_out.len() < shards {
            self.shard_out.resize_with(shards, ShardOut::default);
        }
        if self.shard_hazards.len() < shards {
            self.shard_hazards.resize_with(shards, Vec::new);
        }
        let rnd_p = ColPtr::new(self.round.as_mut_ptr());
        let tr_p = ColPtr::new(self.to_recruit.as_mut_ptr());
        let lin_p = ColPtr::new(self.lineage.as_mut_ptr());
        let act_p = ColPtr::new(self.active.words_mut().as_mut_ptr());
        let rec_p = ColPtr::new(self.recruiting.words_mut().as_mut_ptr());
        let col_p = ColPtr::new(self.color.words_mut().as_mut_ptr());
        let il_p = ColPtr::new(self.is_leader.words_mut().as_mut_ptr());
        let w8_p = ColPtr::new(self.wire8.as_mut_ptr());
        let brnd_p = ColPtr::new(self.block_round.as_mut_ptr());
        let buni_p = ColPtr::new(self.block_uniform.as_mut_ptr());
        let sh_p = ColPtr::new(self.shard_hazards.as_mut_ptr());
        let so_p = ColPtr::new(self.shard_out.as_mut_ptr());
        let params = &self.params;

        /// The word range of shard `s` and its slot range, clipped to `n`.
        fn ranges(nw: usize, n: usize, shards: usize, s: usize) -> (usize, usize, usize, usize) {
            let (wlo, whi) = word_shard_range(nw, shards, s);
            (wlo, whi, wlo * 64, (whi * 64).min(n))
        }

        // Pass 1: wire, each shard composing its own agents' wire bits.
        pool.dispatch(&|s| {
            let (wlo, whi, lo, hi) = ranges(nw, n, shards, s);
            if wlo == whi {
                return;
            }
            let (len, wlen) = (hi - lo, whi - wlo);
            // SAFETY: `word_shard_range` gives disjoint word-aligned
            // ranges, so no two shards touch the same column element or
            // bitmask word; the state columns are only read here, and
            // `shard_hazards[s]` is owned by shard `s` alone (`dispatch`
            // runs each index once).
            unsafe {
                let hz = &mut *sh_p.get().add(s);
                hz.clear();
                wire_range(
                    params,
                    lo,
                    len,
                    slice::from_raw_parts(rnd_p.get().add(lo).cast_const(), len),
                    slice::from_raw_parts(lin_p.get().add(lo).cast_const(), len),
                    slice::from_raw_parts(act_p.get().add(wlo).cast_const(), wlen),
                    slice::from_raw_parts(rec_p.get().add(wlo).cast_const(), wlen),
                    slice::from_raw_parts(col_p.get().add(wlo).cast_const(), wlen),
                    slice::from_raw_parts_mut(w8_p.get().add(wlo * 64), wlen * 64),
                    slice::from_raw_parts_mut(brnd_p.get().add(wlo), wlen),
                    slice::from_raw_parts_mut(buni_p.get().add(wlo), wlen),
                    hz,
                );
            }
        });

        // Shard s covers smaller slots than shard s + 1, and each shard's
        // hazards are ascending, so concatenation stays sorted by slot.
        self.hazards.clear();
        for hz in &self.shard_hazards[..shards] {
            self.hazards.extend_from_slice(hz);
        }
        let hazards: &[(u32, u64)] = &self.hazards;

        // Pass 2: gather + step, each shard writing only its own columns.
        pool.dispatch(&|s| {
            let (wlo, whi, lo, hi) = ranges(nw, n, shards, s);
            if wlo == whi {
                return;
            }
            let (len, wlen) = (hi - lo, whi - wlo);
            // SAFETY: the pass-1 barrier has completed, so the wire bit
            // columns and hazards are read-only global state during this
            // dispatch; each shard mutates only its own word-aligned range
            // of the state columns. Lineage is global (partner latches may
            // read across ranges) but race-free per element: any element a
            // kernel overwrites this round is either outside every other
            // shard's reads or served from the hazard list (module docs).
            unsafe {
                let mut st = StateRange {
                    round: slice::from_raw_parts_mut(rnd_p.get().add(lo), len),
                    to_recruit: slice::from_raw_parts_mut(tr_p.get().add(lo), len),
                    active: slice::from_raw_parts_mut(act_p.get().add(wlo), wlen),
                    recruiting: slice::from_raw_parts_mut(rec_p.get().add(wlo), wlen),
                    color: slice::from_raw_parts_mut(col_p.get().add(wlo), wlen),
                    is_leader: slice::from_raw_parts_mut(il_p.get().add(wlo), wlen),
                };
                let wire8 = slice::from_raw_parts(w8_p.get().cast_const(), nw * 64);
                let out = &mut *so_p.get().add(s);
                out.splits.clear();
                out.deaths.clear();
                step_range(
                    params,
                    round_key,
                    lo,
                    len,
                    &partners[lo..hi],
                    wire8,
                    hazards,
                    lin_p,
                    &mut st,
                    slice::from_raw_parts(brnd_p.get().add(wlo).cast_const(), wlen),
                    slice::from_raw_parts(buni_p.get().add(wlo).cast_const(), wlen),
                    &mut out.splits,
                    &mut out.deaths,
                );
            }
        });

        // Shard s covers smaller slots than shard s + 1, so concatenation
        // in shard order reproduces the serial loop's ascending slot order.
        for out in &self.shard_out[..shards] {
            splits.extend_from_slice(&out.splits);
            deaths.extend_from_slice(&out.deaths);
        }
    }
}

impl ColumnarStep<AgentState> for StabilityColumns {
    fn load(&mut self, agents: &[AgentState], pool: Option<&ShardPool>) {
        use std::slice;
        let n = agents.len();
        self.resize(n);
        match pool {
            Some(pool) if pool.shards() > 1 => {
                let nw = n.div_ceil(64);
                let shards = pool.shards();
                let rnd_p = ColPtr::new(self.round.as_mut_ptr());
                let tr_p = ColPtr::new(self.to_recruit.as_mut_ptr());
                let lin_p = ColPtr::new(self.lineage.as_mut_ptr());
                let act_p = ColPtr::new(self.active.words_mut().as_mut_ptr());
                let rec_p = ColPtr::new(self.recruiting.words_mut().as_mut_ptr());
                let col_p = ColPtr::new(self.color.words_mut().as_mut_ptr());
                let il_p = ColPtr::new(self.is_leader.words_mut().as_mut_ptr());
                let params = &self.params;
                pool.dispatch(&|s| {
                    let (wlo, whi) = word_shard_range(nw, shards, s);
                    if wlo == whi {
                        return;
                    }
                    let (lo, hi) = (wlo * 64, (whi * 64).min(n));
                    let (len, wlen) = (hi - lo, whi - wlo);
                    // SAFETY: disjoint word-aligned ranges per shard; the
                    // agent slice is only read.
                    unsafe {
                        load_range(
                            params,
                            &agents[lo..hi],
                            slice::from_raw_parts_mut(rnd_p.get().add(lo), len),
                            slice::from_raw_parts_mut(tr_p.get().add(lo), len),
                            slice::from_raw_parts_mut(lin_p.get().add(lo), len),
                            slice::from_raw_parts_mut(act_p.get().add(wlo), wlen),
                            slice::from_raw_parts_mut(rec_p.get().add(wlo), wlen),
                            slice::from_raw_parts_mut(col_p.get().add(wlo), wlen),
                            slice::from_raw_parts_mut(il_p.get().add(wlo), wlen),
                        );
                    }
                });
            }
            _ => load_range(
                &self.params,
                agents,
                &mut self.round,
                &mut self.to_recruit,
                &mut self.lineage,
                self.active.words_mut(),
                self.recruiting.words_mut(),
                self.color.words_mut(),
                self.is_leader.words_mut(),
            ),
        }
    }

    fn step(
        &mut self,
        partners: &[u32],
        round_key: u64,
        pool: Option<&ShardPool>,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        debug_assert_eq!(partners.len(), self.len);
        let nw = self.len.div_ceil(64);
        // Contents are unspecified: the wire pass stores every block whole.
        self.wire8.resize(nw * 64, 0);
        self.block_round.resize(nw, 0);
        self.block_uniform.resize(nw, false);
        match pool {
            Some(pool) if pool.shards() > 1 => {
                self.step_pooled(partners, round_key, pool, splits, deaths);
            }
            _ => self.step_serial(partners, round_key, splits, deaths),
        }
    }

    fn apply(&mut self, splits: &[usize], deaths: &[usize]) {
        for &i in splits {
            self.push_clone(i);
        }
        for &i in deaths.iter().rev() {
            self.swap_remove(i);
        }
    }

    /// Inserts and modifies go through the load pass's lane encoding
    /// (rounds normalized); deletes reuse the split/death swap-remove.
    fn alter(
        &mut self,
        inserts: &[AgentState],
        modifies: &[(usize, AgentState)],
        deletes: &[usize],
    ) -> bool {
        for s in inserts {
            let la = self.grow_lane();
            self.write_lane(la, s);
        }
        for (i, s) in modifies {
            self.write_lane(*i, s);
        }
        for &i in deletes.iter().rev() {
            self.swap_remove(i);
        }
        true
    }

    fn store(&self, agents: &mut Vec<AgentState>) {
        let t = self.params.epoch_len();
        agents.clear();
        agents.reserve(self.len);
        let aw = self.active.words();
        let rw = self.recruiting.words();
        let cw = self.color.words();
        let iw = self.is_leader.words();
        for la in 0..self.len {
            let (w, b) = (la >> 6, la & 63);
            agents.push(AgentState {
                round: self.round[la],
                active: aw[w] >> b & 1 != 0,
                color: if cw[w] >> b & 1 != 0 {
                    Color::One
                } else {
                    Color::Zero
                },
                recruiting: rw[w] >> b & 1 != 0,
                to_recruit: self.to_recruit[la],
                is_leader: iw[w] >> b & 1 != 0,
                lineage: self.lineage[la],
                epoch_len: t,
            });
        }
    }

    /// Popcounts over the flag words (the tail word masked: swap-removes
    /// leave dead bits above `len`) and a run-length scan of the `round`
    /// column. `color0` is `active − color1` because inactive agents report
    /// no color; `in_eval` is the tally of the evaluation round
    /// `epoch_len − 1`, as `store` pins `epoch_len` uniformly.
    fn observe(&self, round: u64, counts: &mut BTreeMap<u32, usize>) -> Option<RoundStats> {
        let n = self.len;
        let mut stats = RoundStats {
            round,
            population: n,
            ..RoundStats::default()
        };
        let (aw, cw) = (self.active.words(), self.color.words());
        let (rw, iw) = (self.recruiting.words(), self.is_leader.words());
        for w in 0..n.div_ceil(64) {
            let live = tail_mask(n - w * 64);
            let active = aw[w] & live;
            stats.active += active.count_ones() as usize;
            stats.color1 += (active & cw[w]).count_ones() as usize;
            stats.recruiting += (rw[w] & live).count_ones() as usize;
            stats.leaders += (iw[w] & live).count_ones() as usize;
        }
        stats.color0 = stats.active - stats.color1;
        let mut tally = RoundTally::new(counts);
        for &r in &self.round {
            tally.push(r);
        }
        (stats.majority_round, stats.wrong_round) = tally.finish();
        stats.in_eval = counts.get(&self.params.eval_round()).copied().unwrap_or(0);
        Some(stats)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        let shard_lists: usize = self
            .shard_out
            .iter()
            .map(|o| (o.splits.capacity() + o.deaths.capacity()) * size_of::<usize>())
            .sum::<usize>()
            + self
                .shard_hazards
                .iter()
                .map(|h| h.capacity() * size_of::<(u32, u64)>())
                .sum::<usize>();
        self.round.capacity() * size_of::<u32>()
            + self.to_recruit.capacity() * size_of::<u32>()
            + self.lineage.capacity() * size_of::<u64>()
            + self.active.capacity_bytes()
            + self.recruiting.capacity_bytes()
            + self.color.capacity_bytes()
            + self.is_leader.capacity_bytes()
            + self.wire8.capacity()
            + self.block_round.capacity() * size_of::<u32>()
            + self.block_uniform.capacity()
            + self.hazards.capacity() * size_of::<(u32, u64)>()
            + shard_lists
    }
}

/// `round` reduced into `0..epoch_len`, as the columns hold it — exact,
/// because the scalar step normalizes before any use and a store can only
/// observe stepped (hence normalized) agents.
#[inline]
fn normalized_round(round: u32, epoch_len: u32) -> u32 {
    if round < epoch_len {
        round
    } else {
        round % epoch_len
    }
}

/// Transpose pass: stream `agents` (one range) once into the authoritative
/// columns. Bit words are built in registers and stored whole, so stale
/// buffer contents and tail bits never leak. Rounds are
/// [normalized](normalized_round) on the way in.
#[allow(clippy::too_many_arguments)]
fn load_range(
    params: &Params,
    agents: &[AgentState],
    round: &mut [u32],
    to_recruit: &mut [u32],
    lineage: &mut [u64],
    active: &mut [u64],
    recruiting: &mut [u64],
    color: &mut [u64],
    is_leader: &mut [u64],
) {
    let t = params.epoch_len();
    for (w, chunk) in agents.chunks(64).enumerate() {
        let mut wa = 0u64;
        let mut wr = 0u64;
        let mut wc = 0u64;
        let mut il = 0u64;
        for (l, s) in chunk.iter().enumerate() {
            let la = w * 64 + l;
            wa |= u64::from(s.active) << l;
            wr |= u64::from(s.recruiting) << l;
            wc |= u64::from(s.color == Color::One) << l;
            il |= u64::from(s.is_leader) << l;
            round[la] = normalized_round(s.round, t);
            to_recruit[la] = s.to_recruit;
            lineage[la] = s.lineage;
        }
        active[w] = wa;
        recruiting[w] = wr;
        color[w] = wc;
        is_leader[w] = il;
    }
}

/// Wire pass: compose every agent's three-bit [`Wire`] (Algorithm 2) from
/// the columns as word algebra, publish it into the `wire8` byte column,
/// record block round uniformity, and list latch-hazard lanes. `base` is
/// the global slot of the range's first lane (word-aligned); `wire8` is
/// the range's own `64 * words`-byte window.
#[allow(clippy::too_many_arguments)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "`as u8` takes one byte of a lane mask on purpose; slots are < population \
              ≤ u32::MAX, enforced by SimConfig::validate"
)]
fn wire_range(
    params: &Params,
    base: usize,
    len: usize,
    round: &[u32],
    lineage: &[u64],
    active: &[u64],
    recruiting: &[u64],
    color: &[u64],
    wire8: &mut [u8],
    block_round: &mut [u32],
    block_uniform: &mut [bool],
    hazards: &mut Vec<(u32, u64)>,
) {
    let t = params.epoch_len();
    let eval = params.eval_round();
    for w in 0..len.div_ceil(64) {
        let lanes = (len - w * 64).min(64);
        let tailm = tail_mask(lanes);
        let rounds = &round[w * 64..w * 64 + lanes];
        let r0 = rounds[0];
        let mut acc = 0u32;
        for &r in rounds {
            acc |= r ^ r0;
        }
        let rn0 = if r0 < t { r0 } else { r0 % t };
        let (ew, zw);
        if acc == 0 {
            ew = if rn0 == eval { tailm } else { 0 };
            zw = if rn0 == 0 { tailm } else { 0 };
            block_uniform[w] = true;
        } else {
            let mut e_bits = 0u64;
            let mut z_bits = 0u64;
            for (l, &r) in rounds.iter().enumerate() {
                let rn = if r < t { r } else { r % t };
                e_bits |= u64::from(rn == eval) << l;
                z_bits |= u64::from(rn == 0) << l;
            }
            ew = e_bits;
            zw = z_bits;
            block_uniform[w] = false;
        }
        block_round[w] = rn0;
        let wa = active[w] & tailm;
        let wr = recruiting[w] & tailm;
        let wc = color[w] & tailm;
        // Algorithm 2 as word algebra: in eval, (x, y) = (active, color);
        // recruiting agents advertise (1, color); the rest (0, active).
        let xw = (ew & wa) | (!ew & wr);
        let o = ew | wr;
        let yw = (o & wc) | (!o & wa);
        // Publish the block's 64 wire bytes, eight lanes per store. Tail
        // lanes get the bare presence bit; no valid partner slot reaches
        // them, so the garbage is unobservable.
        for g in 0..8 {
            let sh = g * 8;
            let v = spread8((yw >> sh) as u8)
                | (spread8((xw >> sh) as u8) << 1)
                | (spread8((ew >> sh) as u8) << 2)
                | (u64::from(WIRE8_PRESENT) * 0x0101_0101_0101_0101);
            wire8[w * 64 + sh..w * 64 + sh + 8].copy_from_slice(&v.to_le_bytes());
        }
        debug_assert!((0..lanes).all(|l| {
            let r = rounds[l];
            let rn = if r < t { r } else { r % t };
            let in_eval = rn == eval;
            let (a, rq, c) = (wa >> l & 1 != 0, wr >> l & 1 != 0, wc >> l & 1 != 0);
            let (xb, yb) = if in_eval {
                (a, c)
            } else if rq {
                (true, c)
            } else {
                (false, a)
            };
            let got = (yw >> l & 1) as u8 | ((xw >> l & 1) as u8) << 1 | ((ew >> l & 1) as u8) << 2;
            got == Wire::from_bits(in_eval, xb, yb).bits()
                && wire8[w * 64 + l] == got | WIRE8_PRESENT
        }));
        // Latch-hazard lanes (module docs): advertising `recruiting` on the
        // wire while this round may overwrite their own lineage.
        let mut hz = wr & !ew & (zw | !wa);
        while hz != 0 {
            let l = hz.trailing_zeros() as usize;
            hz &= hz - 1;
            hazards.push(((base + w * 64 + l) as u32, lineage[w * 64 + l]));
        }
    }
}

/// A matched, non-eval, recruiting partner's pre-step lineage: from the
/// hazard list if the lane's own lineage may change this round, else live
/// from the column.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "slots are < population ≤ u32::MAX, enforced by SimConfig::validate"
)]
fn latched_lineage(lin: ColPtr<u64>, hazards: &[(u32, u64)], p: usize) -> u64 {
    if !hazards.is_empty() {
        if let Ok(k) = hazards.binary_search_by_key(&(p as u32), |h| h.0) {
            return hazards[k].1;
        }
    }
    // SAFETY: `p` indexes the live population; any lineage element a
    // kernel overwrites this round belongs to a hazard-listed lane (module
    // docs), so this element is read-only for the whole step pass.
    unsafe { lin.get().add(p).cast_const().read() }
}

/// Step pass: per block, gather the partners' wire bytes into register
/// masks and run the round transition, writing results straight into the
/// columns. `base` is the global slot of the range's first lane
/// (word-aligned); `wire8` is the *global* wire byte column; splits/deaths
/// carry global slots in ascending order.
#[allow(clippy::too_many_arguments)]
fn step_range(
    params: &Params,
    round_key: u64,
    base: usize,
    len: usize,
    partners: &[u32],
    wire8: &[u8],
    hazards: &[(u32, u64)],
    lin: ColPtr<u64>,
    st: &mut StateRange<'_>,
    block_round: &[u32],
    block_uniform: &[bool],
    splits: &mut Vec<usize>,
    deaths: &mut Vec<usize>,
) {
    let eval = params.eval_round();
    for w in 0..len.div_ceil(64) {
        let lanes = (len - w * 64).min(64);
        // Gather this block's partner masks: one masked byte load per lane,
        // branch-free (a random `p != UNMATCHED` branch would mispredict
        // half the time), then one bit-plane transpose per eight lanes.
        // The presence bit doubles as the matched mask, and the byte column
        // stays cache-resident even at million-agent scale.
        let mut mm = 0u64;
        let mut me = 0u64;
        let mut mx = 0u64;
        let mut my = 0u64;
        for (g, chunk) in partners[w * 64..w * 64 + lanes].chunks(8).enumerate() {
            let mut t = 0u64;
            for (b, &p) in chunk.iter().enumerate() {
                let sel = p != UNMATCHED;
                let idx = if sel { p as usize } else { 0 };
                // SAFETY: every partner slot indexes the live population
                // (the invariant of `sample_partners_into` and
                // `partner_table_into`, both tested), and `wire8` covers it.
                let byte = unsafe { *wire8.get_unchecked(idx) } & 0u8.wrapping_sub(u8::from(sel));
                t |= u64::from(byte) << (b * 8);
            }
            let sh = g * 8;
            my |= pack_lsb(t) << sh;
            mx |= pack_lsb(t >> 1) << sh;
            me |= pack_lsb(t >> 2) << sh;
            mm |= pack_lsb(t >> 3) << sh;
        }
        let blk = Block {
            slot0: base + w * 64,
            lanes,
            tail: tail_mask(lanes),
            mm,
            me,
            mx,
            my,
        };
        // Latch the partner's pre-step lineage at every lane the
        // recruitment rule could read it from: matched, self inactive,
        // partner advertising `recruiting` (not-eval with `x` set).
        let mut plin = [0u64; 64];
        let mut latch = mm & !me & mx & !st.active[w];
        while latch != 0 {
            let l = latch.trailing_zeros() as usize;
            latch &= latch - 1;
            let p = partners[w * 64 + l] as usize;
            plin[l] = latched_lineage(lin, hazards, p);
        }
        if block_uniform[w] {
            let rn = block_round[w];
            if rn == 0 {
                leader_block(params, round_key, &blk, st, w, lin, deaths);
            } else if rn == eval {
                eval_block(params, round_key, rn, &blk, st, w, lin, splits, deaths);
            } else {
                recruit_block(params, rn, &blk, st, w, lin, &plin, deaths);
            }
        } else {
            let mut wa = st.active[w];
            let mut wr = st.recruiting[w];
            let mut wc = st.color[w];
            let mut il = st.is_leader[w];
            for (l, &partner) in plin.iter().enumerate().take(lanes) {
                step_lane(
                    params,
                    round_key,
                    &blk,
                    l,
                    partner,
                    &mut wa,
                    &mut wr,
                    &mut wc,
                    &mut il,
                    &mut st.round[w * 64 + l],
                    &mut st.to_recruit[w * 64 + l],
                    lin,
                    splits,
                    deaths,
                );
            }
            st.active[w] = wa;
            st.recruiting[w] = wr;
            st.color[w] = wc;
            st.is_leader[w] = il;
        }
    }
}

/// Round 0 (Algorithm 3, `DetermineIfLeader`) over one uniform block.
fn leader_block(
    params: &Params,
    round_key: u64,
    blk: &Block,
    st: &mut StateRange<'_>,
    w: usize,
    lin: ColPtr<u64>,
    deaths: &mut Vec<usize>,
) {
    // Consistency (Algorithm 7): a matched partner claiming eval kills us
    // before anything else; dead lanes keep their state (round stays 0).
    let die = blk.mm & blk.me;
    let live = !die & blk.tail;
    let exp = params.leader_bias_exp();
    let mut win = 0u64;
    for g in 0..blk.lanes.div_ceil(LANES) {
        let keys = slot_key_x8(round_key, (blk.slot0 + g * LANES) as u64);
        win |= u64::from(biased_coin_x8(exp, &keys)) << (g * LANES);
    }
    win &= live;
    let rounds = &mut st.round[w * 64..w * 64 + blk.lanes];
    for (l, r) in rounds.iter_mut().enumerate() {
        *r = (live >> l & 1) as u32;
    }
    // Losers: `active` is *assigned* false (Algorithm 3 overwrites whatever
    // an adversarially inserted agent claimed); winners set the flag, dead
    // lanes keep theirs.
    st.active[w] = (st.active[w] & die) | win;
    st.recruiting[w] |= win;
    st.is_leader[w] |= win;
    // Winners are ~2^-exp rare: replay the scalar draw order (coin words,
    // color, lineage) on each winner's own slot stream.
    let mut wc = st.color[w];
    let mut bits = win;
    while bits != 0 {
        let l = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let slot = blk.slot0 + l;
        let mut rng = slot_rng(round_key, slot as u64);
        let won = toss_biased_coin(exp, &mut rng);
        debug_assert!(won, "x8 winner must replay as a scalar winner");
        if rng.random::<bool>() {
            wc |= 1u64 << l;
        } else {
            wc &= !(1u64 << l);
        }
        st.to_recruit[w * 64 + l] = params.subphases();
        // SAFETY: a winner's own lineage element; if any partner could
        // latch it, the lane is hazard-listed and readers use the list.
        unsafe { lin.get().add(slot).write(rng.random::<u64>() | 1) };
    }
    st.color[w] = wc;
    let mut bits = die;
    while bits != 0 {
        let l = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        deaths.push(blk.slot0 + l);
    }
}

/// Rounds `1 … T−2` (Algorithm 5, `RecruitmentPhase`) over one uniform
/// block, as pure mask algebra (the only coin-free phase).
#[allow(clippy::too_many_arguments)]
fn recruit_block(
    params: &Params,
    rn: u32,
    blk: &Block,
    st: &mut StateRange<'_>,
    w: usize,
    lin: ColPtr<u64>,
    plin: &[u64; 64],
    deaths: &mut Vec<usize>,
) {
    let die = blk.mm & blk.me;
    let live = !die & blk.tail;
    let active = st.active[w];
    let recruiting = st.recruiting[w];
    // Word-level wire decode (Wire::active / Wire::recruiting, vectorized);
    // only meaningful under `mm`, and always consumed under it.
    let p_active = (blk.me & blk.mx) | (!blk.me & (blk.mx | blk.my));
    let p_recruiting = !blk.me & blk.mx;
    let stand_down = recruiting & blk.mm & !p_active & live;
    let recruited = !active & p_recruiting & blk.mm & live;
    // The scalar `else if` order cannot matter: a recruiting wire implies
    // an active wire, so the two branch conditions are disjoint.
    debug_assert_eq!(stand_down & recruited, 0);
    let mut recruiting_new = recruiting & !(stand_down | recruited);
    if params.is_subphase_boundary(rn) {
        // Re-arm uses the *updated* active set: an agent recruited at a
        // boundary round re-arms immediately, exactly as in the scalar
        // branch order.
        recruiting_new |= (active | recruited) & live;
    }
    let rounds = &mut st.round[w * 64..w * 64 + blk.lanes];
    for (l, r) in rounds.iter_mut().enumerate() {
        *r = rn + (live >> l & 1) as u32;
    }
    st.active[w] = active | recruited;
    st.recruiting[w] = recruiting_new;
    let mut wc = st.color[w];
    let mut bits = recruited;
    while bits != 0 {
        let l = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        if blk.my >> l & 1 != 0 {
            wc |= 1u64 << l;
        } else {
            wc &= !(1u64 << l);
        }
        st.to_recruit[w * 64 + l] = params.to_recruit_at(rn);
        // SAFETY: a recruit's own lineage element; if any partner could
        // latch it, the lane is hazard-listed and readers use the list.
        unsafe { lin.get().add(blk.slot0 + l).write(plin[l]) };
    }
    st.color[w] = wc;
    let mut bits = stand_down;
    while bits != 0 {
        let l = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let tr = &mut st.to_recruit[w * 64 + l];
        *tr = tr.saturating_sub(1);
    }
    let mut bits = die;
    while bits != 0 {
        let l = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        deaths.push(blk.slot0 + l);
    }
}

/// Round `T−1` (Algorithm 6, `EvaluationPhase`) over one uniform block.
#[allow(clippy::too_many_arguments)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "`as u8` takes one byte of a lane mask on purpose"
)]
fn eval_block(
    params: &Params,
    round_key: u64,
    rn: u32,
    blk: &Block,
    st: &mut StateRange<'_>,
    w: usize,
    lin: ColPtr<u64>,
    splits: &mut Vec<usize>,
    deaths: &mut Vec<usize>,
) {
    // Consistency: a matched partner NOT in eval kills us, and the scalar
    // path early-returns — those lanes keep their whole state.
    let die_c = blk.mm & !blk.me;
    let live = !die_c & blk.tail;
    let active = st.active[w];
    let color = st.color[w];
    // In eval the partner's wire `x` bit IS its active flag.
    let decision = active & blk.mm & blk.mx & live;
    let diff = decision & (blk.my ^ color);
    let same = decision & !(blk.my ^ color);
    let mut split_mask = 0u64;
    if same != 0 {
        let exp = params.split_bias_exp();
        for g in 0..blk.lanes.div_ceil(LANES) {
            let gm = (same >> (g * LANES)) as u8;
            if gm == 0 {
                continue;
            }
            let keys = slot_key_x8(round_key, (blk.slot0 + g * LANES) as u64);
            // `true` = all heads = keep; split on the complement. Unused
            // lanes cost nothing: draws are addressable, so computing a
            // lane the scalar path would not have drawn perturbs no other
            // draw position.
            let heads = biased_coin_x8(exp, &keys);
            split_mask |= u64::from(!heads & gm) << (g * LANES);
        }
    }
    // Reset every live lane for the next epoch (including different-color
    // deaths: Algorithm 6 resets before returning Die). Consistency deaths
    // keep their state bar the normalized round.
    let rounds = &mut st.round[w * 64..w * 64 + blk.lanes];
    for (l, r) in rounds.iter_mut().enumerate() {
        *r = if die_c >> l & 1 != 0 { rn } else { 0 };
    }
    st.active[w] = active & die_c;
    st.recruiting[w] &= die_c;
    st.color[w] = color & die_c;
    st.is_leader[w] &= die_c;
    for l in 0..blk.lanes {
        let keep32 = 0u32.wrapping_sub((die_c >> l & 1) as u32);
        st.to_recruit[w * 64 + l] &= keep32;
        let keep64 = 0u64.wrapping_sub(die_c >> l & 1);
        // SAFETY: an eval lane's own lineage element; eval lanes advertise
        // `in_eval` on the wire, so no partner latches them.
        unsafe {
            let p = lin.get().add(blk.slot0 + l);
            p.write(p.read() & keep64);
        }
    }
    // One ascending sweep emits deaths and splits in slot order, exactly
    // as the scalar loop pushes them (a lane is in at most one set).
    let die_all = die_c | diff;
    let mut bits = die_all | split_mask;
    while bits != 0 {
        let l = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        if die_all >> l & 1 != 0 {
            deaths.push(blk.slot0 + l);
        } else {
            splits.push(blk.slot0 + l);
        }
    }
}

/// Exact per-lane transition for blocks with mixed round numbers
/// (adversarial desync): a transcription of `PopulationStability::step`
/// against the gathered wire bits, draw-for-draw, writing the columns.
/// `plin` is the lane's latched partner lineage (valid wherever the
/// recruitment rule reads it); `wa`/`wr`/`wc`/`il` are the block's flag
/// words, register-resident across the caller's lane loop.
#[allow(clippy::too_many_arguments)]
fn step_lane(
    params: &Params,
    round_key: u64,
    blk: &Block,
    l: usize,
    plin: u64,
    wa: &mut u64,
    wr: &mut u64,
    wc: &mut u64,
    il: &mut u64,
    round: &mut u32,
    to_recruit: &mut u32,
    lin: ColPtr<u64>,
    splits: &mut Vec<usize>,
    deaths: &mut Vec<usize>,
) {
    let slot = blk.slot0 + l;
    let bit = 1u64 << l;
    let t = params.epoch_len();
    let mut r = *round;
    if r >= t {
        r %= t;
    }
    let in_eval = r == params.eval_round();
    let matched = blk.mm & bit != 0;
    if matched && (blk.me & bit != 0) != in_eval {
        *round = r;
        deaths.push(slot);
        return;
    }
    if r == 0 {
        let mut rng = slot_rng(round_key, slot as u64);
        if toss_biased_coin(params.leader_bias_exp(), &mut rng) {
            *wa |= bit;
            if rng.random::<bool>() {
                *wc |= bit;
            } else {
                *wc &= !bit;
            }
            *wr |= bit;
            *to_recruit = params.subphases();
            *il |= bit;
            // SAFETY: own lineage element; hazard-listed if latchable.
            unsafe { lin.get().add(slot).write(rng.random::<u64>() | 1) };
        } else {
            *wa &= !bit;
        }
        *round = 1;
    } else if !in_eval {
        if matched {
            let px = blk.mx & bit != 0;
            let py = blk.my & bit != 0;
            // Partner passed consistency, so it is not in eval: decode
            // active as `x || y`, recruiting as `x`.
            let p_active = px || py;
            if *wr & bit != 0 && !p_active {
                *wr &= !bit;
                *to_recruit = to_recruit.saturating_sub(1);
            } else if *wa & bit == 0 && px {
                *wa |= bit;
                if py {
                    *wc |= bit;
                } else {
                    *wc &= !bit;
                }
                *wr &= !bit;
                *to_recruit = params.to_recruit_at(r);
                // SAFETY: own lineage element; hazard-listed if latchable.
                unsafe { lin.get().add(slot).write(plin) };
            }
        }
        if params.is_subphase_boundary(r) && *wa & bit != 0 {
            *wr |= bit;
        }
        *round = r + 1;
    } else {
        let mut action = Action::Continue;
        if *wa & bit != 0 && matched && blk.mx & bit != 0 {
            if (blk.my & bit != 0) == (*wc & bit != 0) {
                let mut rng = slot_rng(round_key, slot as u64);
                if !toss_biased_coin(params.split_bias_exp(), &mut rng) {
                    action = Action::Split;
                }
            } else {
                action = Action::Die;
            }
        }
        *round = 0;
        *wa &= !bit;
        *wr &= !bit;
        *wc &= !bit;
        *il &= !bit;
        *to_recruit = 0;
        // SAFETY: own lineage element; eval lanes are never latched.
        unsafe { lin.get().add(slot).write(0) };
        match action {
            Action::Split => splits.push(slot),
            Action::Die => deaths.push(slot),
            Action::Continue | Action::KillPartner => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popstab_sim::matching::{sample_matching_into, Matching};
    use popstab_sim::rng::{rng_from_seed, round_key};
    use popstab_sim::{MatchingModel, Protocol, SimRng};

    /// One scalar reference round: messages, steps, splits/deaths.
    fn scalar_round(
        proto: &PopulationStability,
        agents: &mut [AgentState],
        partners: &[u32],
        rkey: u64,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        let messages: Vec<Option<crate::message::Message>> = partners
            .iter()
            .map(|&p| {
                if p == UNMATCHED {
                    None
                } else {
                    Some(proto.message(&agents[p as usize]))
                }
            })
            .collect();
        for (i, incoming) in messages.iter().enumerate() {
            let mut rng = slot_rng(rkey, i as u64);
            match proto.step(&mut agents[i], incoming.as_ref(), &mut rng) {
                Action::Continue => {}
                Action::Split => splits.push(i),
                Action::Die => deaths.push(i),
                Action::KillPartner => unreachable!("core protocol never kills partners"),
            }
        }
    }

    fn partner_table(n: usize, seed: u64, round: u64) -> Vec<u32> {
        let mut matching = Matching::default();
        let mut shuffle = Vec::new();
        sample_matching_into(
            &mut matching,
            &mut shuffle,
            n,
            MatchingModel::Full,
            round_key(seed ^ 0x6d61, round),
        );
        let mut partners = Vec::new();
        matching.partner_table_into(&mut partners, n);
        partners
    }

    /// Drives one load → step → store cycle and the scalar `Protocol::step`
    /// loop over the same population + matching and asserts bit-identical
    /// states, splits, and deaths — the unit-level twin of the engine-level
    /// equivalence tests.
    fn assert_step_phase_matches_scalar(
        proto: &PopulationStability,
        agents: &[AgentState],
        seed: u64,
        round: u64,
    ) {
        let partners = partner_table(agents.len(), seed, round);
        let rkey = round_key(seed, round);

        let mut scalar = agents.to_vec();
        let mut s_splits = Vec::new();
        let mut s_deaths = Vec::new();
        scalar_round(
            proto,
            &mut scalar,
            &partners,
            rkey,
            &mut s_splits,
            &mut s_deaths,
        );

        let mut stepper = StabilityColumns::new(proto.params().clone());
        stepper.load(agents, None);
        let mut c_splits = Vec::new();
        let mut c_deaths = Vec::new();
        stepper.step(&partners, rkey, None, &mut c_splits, &mut c_deaths);
        let mut columnar = Vec::new();
        stepper.store(&mut columnar);

        assert_eq!(scalar, columnar, "states diverged at round {round}");
        assert_eq!(s_splits, c_splits, "splits diverged at round {round}");
        assert_eq!(s_deaths, c_deaths, "deaths diverged at round {round}");
    }

    #[test]
    fn columnar_step_matches_scalar_across_whole_epochs() {
        let params = Params::for_target(1024).unwrap();
        let proto = PopulationStability::new(params.clone());
        let mut agents: Vec<AgentState> = (0..300).map(|_| AgentState::fresh(&params)).collect();
        // Drive the *population* forward with the scalar path, checking
        // every round's step phase on the way (covers leader, boundary,
        // plain recruitment, and eval rounds).
        for round in 0..u64::from(params.epoch_len()) + 3 {
            assert_step_phase_matches_scalar(&proto, &agents, 77, round);
            let partners = partner_table(agents.len(), 77, round);
            let rkey = round_key(77, round);
            let (mut splits, mut deaths) = (Vec::new(), Vec::new());
            scalar_round(
                &proto,
                &mut agents,
                &partners,
                rkey,
                &mut splits,
                &mut deaths,
            );
        }
    }

    #[test]
    fn resident_columns_match_scalar_over_epochs_with_apply() {
        // The resident lifecycle: load once, then step + apply round after
        // round on the columns alone (population changing through splits
        // and deaths), storing only at the very end. Must reproduce the
        // scalar trajectory byte for byte.
        let params = Params::for_target(1024).unwrap();
        let proto = PopulationStability::new(params.clone());
        let mut scalar: Vec<AgentState> = (0..300).map(|_| AgentState::fresh(&params)).collect();
        let mut stepper = StabilityColumns::new(params.clone());
        stepper.load(&scalar, None);
        for round in 0..2 * u64::from(params.epoch_len()) + 3 {
            let partners = partner_table(scalar.len(), 909, round);
            let rkey = round_key(909, round);
            let (mut s_splits, mut s_deaths) = (Vec::new(), Vec::new());
            scalar_round(
                &proto,
                &mut scalar,
                &partners,
                rkey,
                &mut s_splits,
                &mut s_deaths,
            );
            let (mut c_splits, mut c_deaths) = (Vec::new(), Vec::new());
            stepper.step(&partners, rkey, None, &mut c_splits, &mut c_deaths);
            assert_eq!(s_splits, c_splits, "splits diverged at round {round}");
            assert_eq!(s_deaths, c_deaths, "deaths diverged at round {round}");
            // Engine apply semantics on both representations.
            s_deaths.sort_unstable();
            s_deaths.dedup();
            for &i in &s_splits {
                let d = scalar[i];
                scalar.push(d);
            }
            for &i in s_deaths.iter().rev() {
                scalar.swap_remove(i);
            }
            stepper.apply(&c_splits, &s_deaths);
            assert_eq!(
                stepper.len(),
                scalar.len(),
                "population diverged at round {round}"
            );
            assert_eq!(
                stepper.observe(round, &mut BTreeMap::new()),
                Some(RoundStats::observe(round, &scalar)),
                "column-native stats diverged at round {round}"
            );
        }
        let mut columnar = Vec::new();
        stepper.store(&mut columnar);
        assert_eq!(scalar, columnar, "resident trajectory diverged");
    }

    #[test]
    fn columnar_step_matches_scalar_on_desynced_blocks() {
        // Mixed-round blocks force the per-lane fallback; make sure it and
        // the uniform kernels agree with the scalar path side by side.
        let params = Params::for_target(1024).unwrap();
        let proto = PopulationStability::new(params.clone());
        let t = params.epoch_len();
        let mut g = rng_from_seed(42);
        let agents: Vec<AgentState> = (0u64..200)
            .map(|i| {
                use rand::Rng;
                let r: u32 = (g.random::<u32>()) % (2 * t);
                match i % 4 {
                    0 => AgentState::fresh(&params),
                    1 => AgentState::desynced(&params, r),
                    2 => AgentState::active_at(&params, r % t, Color::One),
                    _ => AgentState::leader(&params, Color::Zero, i | 1),
                }
            })
            .collect();
        for round in 0..6 {
            assert_step_phase_matches_scalar(&proto, &agents, 1234, round);
        }
    }

    /// `StabilityColumns::observe` against `RoundStats::observe` on the
    /// stored vector, for `n` agents mixing every flag and, through
    /// desynced clocks, several round values with a two-way tie for the
    /// majority — before and after swap-removes leave dead bits in the
    /// tail word.
    fn assert_observe_matches_vector(n: usize) {
        let params = Params::for_target(1024).unwrap();
        let t = params.epoch_len();
        let agents: Vec<AgentState> = (0..n)
            .map(|i| {
                let k = u32::try_from(i).unwrap();
                match k % 6 {
                    // Rounds 2 and t − 1 tie (two lanes in six each), so
                    // the majority must take the larger one.
                    0 => AgentState::desynced(&params, 2),
                    1 => AgentState::active_at(&params, t - 1, Color::One),
                    2 => AgentState::leader(&params, Color::Zero, u64::from(k) | 1),
                    3 => AgentState::active_at(&params, 2, Color::Zero),
                    4 => AgentState::desynced(&params, t - 1),
                    // Out of range on purpose: load normalizes it to 3 or 4.
                    _ => AgentState::desynced(&params, t + 3 + k % 2),
                }
            })
            .collect();
        let mut stepper = StabilityColumns::new(params);
        stepper.load(&agents, None);
        let mut counts = BTreeMap::new();
        let mut stored = Vec::new();
        for deaths in [vec![], vec![0, 3], vec![1]] {
            let deaths: Vec<usize> = deaths.into_iter().filter(|&d| d < stepper.len()).collect();
            stepper.apply(&[], &deaths);
            stepper.store(&mut stored);
            let want = RoundStats::observe(9, &stored);
            assert_eq!(stepper.observe(9, &mut counts), Some(want), "n = {n}");
        }
    }

    #[test]
    fn column_native_stats_match_the_stored_vector() {
        for n in [0, 1, 63, 64, 65, 4097] {
            assert_observe_matches_vector(n);
        }
        let params = Params::for_target(1024).unwrap();
        let tie: Vec<AgentState> = [2, 2, params.epoch_len() - 1, 5]
            .iter()
            .map(|&r| AgentState::desynced(&params, r))
            .chain([AgentState::active_at(
                &params,
                params.epoch_len() - 1,
                Color::One,
            )])
            .collect();
        let mut stepper = StabilityColumns::new(params);
        stepper.load(&tie, None);
        let stats = stepper.observe(0, &mut BTreeMap::new()).unwrap();
        assert_eq!(
            stats.majority_round,
            Some(tie[2].round),
            "ties go to the larger round"
        );
        assert_eq!(stats.wrong_round, 3);
        assert_eq!(stats.in_eval, 2);
    }

    /// `alter` applies the engine's vector semantics to the columns:
    /// overwrite in place, append inserts in order, swap-remove deletes in
    /// descending order — and encodes lanes as `load` does. The reference
    /// is therefore a fresh `load` of the vector altered the `Vec` way;
    /// both are compared through `store`, `observe`, and one more step.
    #[test]
    fn alter_matches_loading_the_altered_vector() {
        use rand::Rng;
        let params = Params::for_target(1024).unwrap();
        let t = params.epoch_len();
        let mut g = rng_from_seed(0xa17);
        let state = |g: &mut SimRng, i: u64| {
            // Rounds up to 2T: inserts and modifies may be out of range.
            let r = g.random_range(0..2 * t);
            match i % 4 {
                0 => AgentState::fresh(&params),
                1 => AgentState::desynced(&params, r),
                2 => AgentState::active_at(&params, r % t, Color::One),
                _ => AgentState::leader(&params, Color::Zero, i | 1),
            }
        };
        for n in [63usize, 64, 65] {
            for case in 0..4u64 {
                let agents: Vec<AgentState> = (0..n as u64).map(|i| state(&mut g, i)).collect();
                let inserts: Vec<AgentState> = (0..case * 23 % 70)
                    .map(|i| state(&mut g, i + case))
                    .collect();
                let len = n + inserts.len();
                let mut modifies: Vec<(usize, AgentState)> = (0..case + 2)
                    .map(|i| (g.random_range(0..n), state(&mut g, i)))
                    .collect();
                modifies.push((modifies[0].0, state(&mut g, case + 1)));
                // The last lane, the first and last inserted lanes, a
                // modified lane, and a random one.
                let mut deletes = vec![len - 1, n, n - 1, modifies[1].0, g.random_range(0..len)];
                deletes.retain(|&d| d < len);
                deletes.sort_unstable();
                deletes.dedup();

                let mut want = agents.clone();
                for (i, s) in &modifies {
                    want[*i] = *s;
                }
                want.extend_from_slice(&inserts);
                for &i in deletes.iter().rev() {
                    want.swap_remove(i);
                }
                let mut reference = StabilityColumns::new(params.clone());
                reference.load(&want, None);

                let mut altered = StabilityColumns::new(params.clone());
                altered.load(&agents, None);
                assert!(altered.alter(&inserts, &modifies, &deletes));

                let label = format!("n = {n}, case {case}");
                let (mut got, mut expected) = (Vec::new(), Vec::new());
                altered.store(&mut got);
                reference.store(&mut expected);
                assert_eq!(got, expected, "{label}");
                assert!(
                    got.iter().all(|a| a.round < t),
                    "{label}: unnormalized round"
                );
                assert_eq!(
                    altered.observe(3, &mut BTreeMap::new()),
                    reference.observe(3, &mut BTreeMap::new()),
                    "{label}"
                );
                let partners = partner_table(want.len(), case, 1);
                let (mut a_splits, mut a_deaths) = (Vec::new(), Vec::new());
                let (mut r_splits, mut r_deaths) = (Vec::new(), Vec::new());
                let rkey = round_key(case, 1);
                altered.step(&partners, rkey, None, &mut a_splits, &mut a_deaths);
                reference.step(&partners, rkey, None, &mut r_splits, &mut r_deaths);
                assert_eq!((a_splits, a_deaths), (r_splits, r_deaths), "{label}");
                altered.store(&mut got);
                reference.store(&mut expected);
                assert_eq!(got, expected, "{label}: stepped");
            }
        }
    }

    #[test]
    fn mem_bytes_grows_with_population() {
        let params = Params::for_target(1024).unwrap();
        let proto = PopulationStability::new(params.clone());
        let mut stepper = StabilityColumns::new(params.clone());
        assert_eq!(stepper.mem_bytes(), 0);
        let agents: Vec<AgentState> = (0..1024).map(|_| AgentState::fresh(&params)).collect();
        stepper.load(&agents, None);
        let partners = partner_table(agents.len(), 5, 0);
        let (mut splits, mut deaths) = (Vec::new(), Vec::new());
        stepper.step(&partners, round_key(5, 0), None, &mut splits, &mut deaths);
        let _ = &proto;
        let bytes = stepper.mem_bytes();
        // 16 B of u32/u64 columns + 7 bit columns + block metadata
        // ≈ 17 B/agent.
        assert!(bytes >= 16 * 1024, "columns too small: {bytes}");
        assert!(bytes <= 24 * 1024, "columns unexpectedly large: {bytes}");
    }
}
