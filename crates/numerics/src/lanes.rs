//! Lane-blocked row storage, the exact batched dot-product kernel
//! behind every flat f64 similarity scan, and the 16-bit fixed-point
//! screen that lets the exact nearest-row search read a quarter of the
//! bytes.
//!
//! A flat scan scores one query against many stored rows. Stored
//! row-major, each dot product is one serial chain of dependent adds, so
//! the scan runs at the latency of one add per component per row.
//! [`LaneRows`] interleaves [`LANES`] = 8 rows per block instead: slot `s`
//! lives in block `s / 8`, lane `s % 8`, and component `d` of it sits at
//! `block * dim * 8 + d * 8 + lane`. [`LaneRows::block_dots`] then scores
//! a whole block with 8 independent accumulators, which the compiler
//! turns into vector multiplies and adds.
//!
//! The f64 results are exact, not approximate: each lane still computes
//! `init + q[0] * r[0] + q[1] * r[1] + ...` left to right, with a separate
//! multiply and add, so every score is the same f64 a serial fold from
//! `init` produces.
//!
//! [`ScreenedRows`] keeps a second, fixed-point copy of the same rows:
//! each component `x` as the `i16` `round(x * 32767)`, saturated to
//! `±32767`, sixteen rows per block. It finds the best-scoring row in two
//! steps. [`ScreenedRows::screen`] scores the rows with integer dot
//! products (SSE2 `pmaddwd` on x86-64), which read a quarter of the f64
//! scan's bytes, and keeps as candidates only the rows whose integer
//! score is within twice [`fixed_screen_error_bound`] of the largest. The
//! caller then re-scores the candidates in f64 with
//! [`LaneRows::slot_dot`]. Integer dot products are exact, so the bound
//! covers only quantization and the f64 fold's own rounding; no integer
//! score is further than it from its f64 score (scaled by `32767²`), so
//! the row an all-f64 scan would pick is always among the candidates,
//! and the answer is bit for bit the full scan's. A block whose best lane
//! is already below the floor is passed over without looking at its
//! lanes.
//!
//! The screen has two consumers. The cache's flat index asks
//! [`ScreenedRows::nearest`] for the best row, re-scored in slot order.
//! The fleet's affinity leader table only cares about a leader that
//! reaches its join threshold, so it also passes a *seed*: a floor
//! ([`ScreenedRows::seed_for`]) below which no row can reach that score.
//! Rows under it are never candidates, and when every row falls under
//! it, nothing is re-scored at all. The table re-scores its candidates in
//! its own admission order. The same kernel also runs the other way
//! round, in [`QueryBlocks`]: many stored queries, sixteen to a block,
//! scored against one row, each against a seed of its own.
//!
//! The guarantee needs rows and queries of Euclidean norm at most
//! `1 + 2^-30`, which every normalized (or zero) vector meets.

/// Rows per f64 block, and accumulators per kernel call.
pub const LANES: usize = 8;

/// Rows per fixed-point screen block: four SSE2 registers of four `i32`
/// lanes each.
pub const SCREEN_LANES: usize = 16;

/// The fixed-point scale `S`: a component `x` is stored as
/// `round(x * S)`, saturated to `±S`. `-32768` is never stored, so one
/// `pmaddwd` pair sum stays below `2 S² < 2^31` and cannot wrap.
const FIXED_ONE: i16 = i16::MAX;

/// `S²`, the fixed-point score of a unit row against itself.
const FIXED_ONE_SQ: i64 = FIXED_ONE as i64 * FIXED_ONE as i64;

/// The largest row length for which [`fixed_screen_error_bound`]'s
/// derivation and its no-overflow argument are carried out.
pub const MAX_SCREEN_DIM: usize = 1 << 20;

/// Equal-length f64 rows in lane-blocked layout (eight rows per block),
/// addressed by slot: the exact kernel.
///
/// The row length is learned from the first pushed row. Slots are never
/// removed; owners that retire rows overwrite them in place with
/// [`LaneRows::set`] and skip dead slots themselves.
///
/// # Example
///
/// ```
/// use modm_numerics::lanes::LaneRows;
///
/// let mut rows = LaneRows::new();
/// rows.push(&[1.0, 0.0]);
/// rows.push(&[0.5, 0.5]);
/// let scores = rows.block_dots(&[1.0, 2.0], 0.0).next().unwrap();
/// assert_eq!(&scores[..2], &[1.0, 1.5]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LaneRows {
    /// [`LANES`]-slot blocks of `dim * LANES` values each, component-major
    /// within a block. Lanes past the last slot are zero padding.
    data: Vec<f64>,
    /// Row length; 0 until the first push.
    dim: usize,
    /// Slots in use.
    len: usize,
}

impl LaneRows {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Row length (0 before the first push).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `row` as slot [`LaneRows::len`] and returns that slot.
    ///
    /// # Panics
    ///
    /// Panics if `row`'s length differs from earlier rows, or is zero.
    pub fn push(&mut self, row: &[f64]) -> usize {
        if self.len == 0 {
            assert!(!row.is_empty(), "rows must be non-empty");
            self.dim = row.len();
        }
        let slot = self.len;
        if slot.is_multiple_of(LANES) {
            self.data.resize(self.data.len() + self.dim * LANES, 0.0);
        }
        self.len += 1;
        self.set(slot, row);
        slot
    }

    /// Overwrites slot `slot` with `row`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or `row`'s length differs from
    /// the stored rows'.
    pub fn set(&mut self, slot: usize, row: &[f64]) {
        assert!(slot < self.len, "slot {slot} out of range");
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        for (col, &x) in self.columns_mut(slot / LANES).iter_mut().zip(row) {
            col[slot % LANES] = x;
        }
    }

    /// A copy of the row at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn row(&self, slot: usize) -> Vec<f64> {
        assert!(slot < self.len, "slot {slot} out of range");
        self.columns(slot / LANES)
            .iter()
            .map(|col| col[slot % LANES])
            .collect()
    }

    /// Dot product of `q` with the row at `slot` alone: a serial fold from
    /// `init`, bit-identical to that slot's lane of
    /// [`LaneRows::block_dots`]. Scoring a handful of rows this way skips
    /// the rest of their blocks.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or `q`'s length differs from the
    /// stored rows'.
    pub fn slot_dot(&self, slot: usize, q: &[f64], init: f64) -> f64 {
        assert!(slot < self.len, "slot {slot} out of range");
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        let lane = slot % LANES;
        q.iter()
            .zip(self.columns(slot / LANES))
            .fold(init, |acc, (&x, col)| acc + x * col[lane])
    }

    /// Block `b` as its `dim` component columns, one value per lane.
    fn columns(&self, b: usize) -> &[[f64; LANES]] {
        let stride = self.dim * LANES;
        self.data[b * stride..][..stride].as_chunks().0
    }

    /// [`LaneRows::columns`], writable.
    fn columns_mut(&mut self, b: usize) -> &mut [[f64; LANES]] {
        let stride = self.dim * LANES;
        self.data[b * stride..][..stride].as_chunks_mut().0
    }

    /// Dot products of `q` with every row, one `[f64; LANES]` per block:
    /// lane `l` of the `b`-th item scores slot `b * LANES + l`. Each score
    /// is bit-identical to
    /// `q.iter().zip(row).fold(init, |a, (x, y)| a + x * y)`. Lanes past
    /// the last slot score the zero padding and are the caller's to
    /// ignore (zipping with a `chunks(LANES)` view of slot-parallel data
    /// does this).
    ///
    /// # Panics
    ///
    /// Panics if rows are stored and `q`'s length differs from theirs.
    pub fn block_dots<'a>(
        &'a self,
        q: &'a [f64],
        init: f64,
    ) -> impl Iterator<Item = [f64; LANES]> + 'a {
        assert!(
            self.len == 0 || q.len() == self.dim,
            "query dimension mismatch: {} vs {}",
            q.len(),
            self.dim
        );
        // `max(1)` only matters while empty, when `data` is too.
        self.data
            .chunks_exact(self.dim.max(1) * LANES)
            .map(move |block| {
                let (cols, _) = block.as_chunks::<LANES>();
                let mut acc = [init; LANES];
                for (&x, col) in q.iter().zip(cols) {
                    for (a, &y) in acc.iter_mut().zip(col) {
                        *a += x * y;
                    }
                }
                acc
            })
    }
}

/// `x` in fixed point: `x * 32767` rounded to the nearest integer (ties
/// to even), saturated to `±32767`.
fn quantize(x: f64) -> i16 {
    // For |y| <= S, y + 1.5 * 2^52 lies in [2^52, 2^53), where the f64
    // spacing is 1, so the add rounds y to an integer held in the low
    // bits of the sum's mantissa (offset by 2^51, above the low 16).
    const ROUNDER: f64 = 6_755_399_441_055_744.0;
    let s = f64::from(FIXED_ONE);
    ((x * s).clamp(-s, s) + ROUNDER).to_bits() as i16
}

/// `values` in fixed point, in component pairs; an odd last component is
/// padded with a zero.
fn quantized_pairs(values: &[f64]) -> impl Iterator<Item = [i16; 2]> + '_ {
    let (pairs, odd) = values.as_chunks::<2>();
    let pairs = pairs.iter().map(|&[a, b]| [quantize(a), quantize(b)]);
    pairs.chain(odd.iter().map(|&a| [quantize(a), 0]))
}

/// The bound, in fixed-point units (`S = 32767`, so a score of `S²`
/// means 1.0), on how far the screen's integer score of a row can fall
/// from `S²` times its f64 score ([`LaneRows::block_dots`] from `0.0`),
/// when row and query are f64 vectors of length `n = dim` and Euclidean
/// norm at most `1 + δ`, `δ = 2^-30`: `⌈S √n + n / 4⌉ + 1`. Normalizing
/// in f64 errs by about `(n / 2 + 2) 2^-53`, so every unit vector of
/// length up to [`MAX_SCREEN_DIM`] qualifies, and so does the zero vector.
///
/// Write `v = 2^-53` (f64 unit roundoff), `Q(x)` for the stored integer
/// and `I = Σ Q(q_i) Q(r_i)` for the screen's score:
///
/// 1. Every component has `|x| <= 1 + δ`, so `fl(x S)` is within
///    `S (1 + δ) v < 2^-37` of `x S`, and `x S` is within `S δ < 2^-15`
///    of `[−S, S]`. Clamping to `[−S, S]` and rounding to the nearest
///    integer then gives `Q(x) = S x + e` with `|e| <= ε := 1/2 + 2^-37`.
/// 2. `I` is the exact integer dot product (see below for why no
///    overflow can change it). Expanding the products,
///    `I − S² (q·r) = S Σ (q_i e_{r,i} + r_i e_{q,i}) + Σ e_{q,i} e_{r,i}`,
///    and `‖x‖₁ <= √n ‖x‖₂` gives
///    `|I − S² (q·r)| <= 2 S ε (1 + δ) √n + n ε²`.
/// 3. The f64 fold is within `γ_n(v) ‖q‖ ‖r‖` of `q·r` (Higham,
///    *Accuracy and Stability of Numerical Algorithms*, §3.1, with
///    `γ_n(w) = n w / (1 − n w)`), and `S² γ_n(v) (1 + δ)² <= n 2^-22`
///    for `n <= 2^20`.
///
/// So `|I − S² d| <= S √n (1 + 2^-29) + n (1/4 + 2^-36) + n 2^-22`. For
/// `n <= 2^20` the terms past `S √n + n / 4` add up to less than 0.4,
/// which the `+ 1` covers along with the rounding of `√n` in f64. Zero
/// rows score exactly 0 on both sides.
///
/// **No overflow.** Saturation keeps `|Q(x)| <= S`, so one `pmaddwd` pair
/// sum is at most `2 S² < 2^31` and never wraps. The lanes then add in
/// wrapping `i32` arithmetic, exact modulo `2^32`, so a lane equals `I`
/// whenever `|I| < 2^31`. By Cauchy–Schwarz
/// `|I| <= ‖Q(q)‖ ‖Q(r)‖` and `‖Q(x)‖ <= S (1 + δ) + ε √n <= 33 281` for
/// `n <= 2^20`, so `|I| < 1.04 · 2^30`.
///
/// The worst case grows like `S √n`; it is reached when every component
/// rounds the same way by nearly `1/2`. Typical errors are a few times
/// smaller, so [`ScreenedRows::screen`] passes only a handful of rows.
///
/// # Panics
///
/// Panics if `dim` exceeds [`MAX_SCREEN_DIM`].
pub fn fixed_screen_error_bound(dim: usize) -> i64 {
    assert!(
        dim <= MAX_SCREEN_DIM,
        "row length {dim} exceeds the screen's proven range ({MAX_SCREEN_DIM})"
    );
    let n = dim as f64;
    (f64::from(FIXED_ONE) * n.sqrt() + n / 4.0).ceil() as i64 + 1
}

/// The fixed-point copy behind [`ScreenedRows`]: sixteen slots per
/// block, components interleaved in pairs. Within a block, pair `p` of
/// lane `l` holds `[Q(r[2p]), Q(r[2p + 1])]` at `p * 32 + 2 * l`, so one
/// 16-byte load feeds `pmaddwd` four lanes' pair. An odd row length is
/// padded with a zero component.
#[derive(Debug, Clone, Default)]
struct FixedRows {
    /// Blocks of `pairs * 2 * SCREEN_LANES` values; unset lanes are zero.
    data: Vec<i16>,
    /// Component pairs per row, `dim.div_ceil(2)`.
    pairs: usize,
}

impl FixedRows {
    /// Values per block.
    fn stride(&self) -> usize {
        self.pairs * 2 * SCREEN_LANES
    }

    /// Writes `row` into slot `slot`, growing the store by whole blocks.
    /// The owner checks the slot and the row length.
    fn set(&mut self, slot: usize, row: &[f64]) {
        self.write(slot, row.len().div_ceil(2), quantized_pairs(row));
    }

    /// Writes the `pairs` fixed-point component pairs `values` into slot
    /// `slot`, growing the store by whole blocks.
    fn write(&mut self, slot: usize, pairs: usize, values: impl Iterator<Item = [i16; 2]>) {
        self.pairs = pairs;
        let stride = self.stride();
        let end = (slot / SCREEN_LANES + 1) * stride;
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        // Pair `p` of lane `l` is the `p * SCREEN_LANES + l`-th pair.
        let (block, _) = self.data[end - stride..end].as_chunks_mut::<{ 2 * SCREEN_LANES }>();
        let lane = 2 * (slot % SCREEN_LANES);
        for (lanes, [lo, hi]) in block.iter_mut().zip(values) {
            (lanes[lane], lanes[lane + 1]) = (lo, hi);
        }
    }

    /// Integer scores of every block against `q` (packed pairs, from
    /// [`FixedRows::query_into`]), one `[i32; SCREEN_LANES]` per block.
    fn block_scores<'a>(&'a self, q: &'a [i32]) -> impl Iterator<Item = [i32; SCREEN_LANES]> + 'a {
        // `max(1)` only matters while empty, when `data` is too.
        self.data
            .chunks_exact(self.stride().max(1))
            .map(move |block| block_scores(block, q))
    }

    /// Writes `q` in fixed point to `out`, each component pair packed
    /// into one `i32`, the first in the low half: the operand
    /// `_mm_set1_epi32` broadcasts to every `pmaddwd` pair.
    fn query_into(q: &[f64], out: &mut Vec<i32>) {
        out.clear();
        out.extend(
            quantized_pairs(q)
                .map(|[lo, hi]| (u32::from(lo as u16) | (u32::from(hi as u16) << 16)) as i32),
        );
    }
}

/// One block's sixteen integer scores against the packed query pairs
/// `q`: lane `l` is `Σ_p q[2p] r_l[2p] + q[2p + 1] r_l[2p + 1]`, summed in
/// wrapping `i32` arithmetic. SSE2 `pmaddwd`, four lanes per register,
/// four accumulators.
///
/// # Panics
///
/// Panics if `block` does not hold exactly `2 * SCREEN_LANES` values per
/// query pair.
#[cfg(target_arch = "x86_64")]
fn block_scores(block: &[i16], q: &[i32]) -> [i32; SCREEN_LANES] {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_loadu_si128, _mm_madd_epi16, _mm_set1_epi32, _mm_setzero_si128,
        _mm_storeu_si128,
    };
    assert_eq!(block.len(), q.len() * 2 * SCREEN_LANES, "screen block size");
    let mut out = [0; SCREEN_LANES];
    // SAFETY: SSE2 is part of the x86-64 baseline, so its intrinsics are
    // always available. `block` holds 64 bytes per query pair (asserted
    // above), so the load at register offset `4p + k`, `k < 4`, reads
    // inside it, and the four stores write exactly the 64 bytes of
    // `out`. `loadu` and `storeu` need no alignment.
    unsafe {
        let rows = block.as_ptr().cast::<__m128i>();
        let mut acc = [_mm_setzero_si128(); 4];
        for (p, &pair) in q.iter().enumerate() {
            let pair = _mm_set1_epi32(pair);
            for (k, a) in acc.iter_mut().enumerate() {
                let r = _mm_loadu_si128(rows.add(4 * p + k));
                *a = _mm_add_epi32(*a, _mm_madd_epi16(r, pair));
            }
        }
        for (k, a) in acc.into_iter().enumerate() {
            _mm_storeu_si128(out.as_mut_ptr().cast::<__m128i>().add(k), a);
        }
    }
    out
}

/// [`block_scores`] as a scalar fold: the same wrapping sums, lane for
/// lane. The kernel on targets without SSE2, and its reference in tests.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn block_scores_scalar(block: &[i16], q: &[i32]) -> [i32; SCREEN_LANES] {
    assert_eq!(block.len(), q.len() * 2 * SCREEN_LANES, "screen block size");
    let mut acc = [0i32; SCREEN_LANES];
    for (&pair, values) in q.iter().zip(block.as_chunks::<{ 2 * SCREEN_LANES }>().0) {
        let (q0, q1) = (i32::from(pair as i16), i32::from((pair >> 16) as i16));
        for (a, r) in acc.iter_mut().zip(values.as_chunks::<2>().0) {
            let dot = (i32::from(r[0]) * q0).wrapping_add(i32::from(r[1]) * q1);
            *a = a.wrapping_add(dot);
        }
    }
    acc
}

#[cfg(not(target_arch = "x86_64"))]
use block_scores_scalar as block_scores;

/// A vector in the screen's fixed point, packed as the kernel reads a
/// query: built once with [`FixedQuery::set`], then stored in a
/// [`QueryBlocks`] or scored against one.
#[derive(Debug, Clone, Default)]
pub struct FixedQuery {
    pairs: Vec<i32>,
}

impl FixedQuery {
    /// Creates an empty query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes this the fixed-point copy of `q`, reusing the buffer.
    pub fn set(&mut self, q: &[f64]) {
        FixedRows::query_into(q, &mut self.pairs);
    }
}

/// [`FixedQuery`]s in numbered slots, stored the way the screen stores
/// rows, sixteen to a block: [`QueryBlocks::block_scores`] then scores
/// one more query against a block of them at once, with the screen's
/// kernel.
/// Integer dot products are exact, so each score is the one
/// [`ScreenedRows::screen`] gives the same two vectors with their roles
/// swapped, and the seeds of [`ScreenedRows::seed_for`] apply to it
/// unchanged.
#[derive(Debug, Clone, Default)]
pub struct QueryBlocks {
    rows: FixedRows,
    len: usize,
}

impl QueryBlocks {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a copy of `q` in slot `slot`, overwriting it, or appending
    /// it when `slot` is the number of slots.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is past the number of slots or `q`'s length
    /// differs from the stored queries'.
    pub fn set(&mut self, slot: usize, q: &FixedQuery) {
        assert!(slot <= self.len, "slot {slot} out of range");
        assert!(
            self.len == 0 || q.pairs.len() == self.rows.pairs,
            "query dimension mismatch"
        );
        let values = q.pairs.iter().map(|&p| [p as i16, (p >> 16) as i16]);
        self.rows.write(slot, q.pairs.len(), values);
        self.len = self.len.max(slot + 1);
    }

    /// Number of blocks: the number of slots over [`SCREEN_LANES`],
    /// rounded up.
    pub fn blocks(&self) -> usize {
        self.len.div_ceil(SCREEN_LANES)
    }

    /// Integer scores of block `b`'s slots against `q`: lane `l` scores
    /// slot `b * SCREEN_LANES + l`, and lanes past the last slot score
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not below [`QueryBlocks::blocks`] or `q`'s length
    /// differs from the stored queries'.
    pub fn block_scores(&self, b: usize, q: &FixedQuery) -> [i32; SCREEN_LANES] {
        assert!(b < self.blocks(), "block {b} out of range");
        let stride = self.rows.stride();
        block_scores(&self.rows.data[b * stride..][..stride], &q.pairs)
    }
}

/// The rows a [`ScreenedRows::screen`] passed, with the buffers the
/// screen reuses: a caller that keeps one `Candidates` across calls
/// screens without allocating once the buffers have grown.
#[derive(Debug, Clone, Default)]
pub struct Candidates {
    /// The query in fixed point, as [`FixedRows::query_into`] packs it.
    query: Vec<i32>,
    /// `(slot, integer score)` of every live row that cleared the
    /// running floor; once the screen returns, only those that clear the
    /// final one, in slot order.
    hits: Vec<(usize, i64)>,
}

impl Candidates {
    /// Creates empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The candidate slots of the last screen, in increasing order.
    pub fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.hits.iter().map(|&(slot, _)| slot)
    }
}

/// The same rows stored twice, as exact f64 [`LaneRows`] and as a 16-bit
/// fixed-point screen copy, kept in step: [`ScreenedRows::push`] and
/// [`ScreenedRows::set`] write both. Rows and queries are meant to have
/// Euclidean norm at most `1 + 2^-30` (unit or zero vectors, such as
/// normalized embeddings).
///
/// Two exact probes store their rows here and share
/// [`ScreenedRows::screen`]: the cache's flat index, through
/// [`ScreenedRows::nearest`] (no seed, re-scored in slot order), and the
/// fleet's affinity leader table, which seeds the screen with its join
/// threshold ([`ScreenedRows::seed_for`]) and re-scores the candidates
/// in its own admission order.
///
/// # Example
///
/// ```
/// use modm_numerics::lanes::{Candidates, ScreenedRows};
///
/// let mut rows = ScreenedRows::new();
/// rows.push(&[1.0, 0.0]);
/// rows.push(&[0.6, 0.8]);
/// rows.push(&[0.0, 1.0]);
/// // Slot 2 is dead; slot 1 is the best live row.
/// let best = rows.nearest(&[0.0, 1.0], |slot| slot != 2, &mut Candidates::new());
/// assert_eq!(best, Some((1, 0.8)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScreenedRows {
    exact: LaneRows,
    screen: FixedRows,
}

impl ScreenedRows {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Row length (0 before the first push).
    pub fn dim(&self) -> usize {
        self.exact.dim()
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }

    /// The f64 copy, for exact scores ([`LaneRows::slot_dot`],
    /// [`LaneRows::block_dots`]).
    pub fn exact(&self) -> &LaneRows {
        &self.exact
    }

    /// Appends `row` to both copies and returns its slot.
    ///
    /// # Panics
    ///
    /// As [`LaneRows::push`].
    pub fn push(&mut self, row: &[f64]) -> usize {
        let slot = self.exact.push(row);
        self.screen.set(slot, row);
        slot
    }

    /// Overwrites slot `slot` in both copies.
    ///
    /// # Panics
    ///
    /// As [`LaneRows::set`].
    pub fn set(&mut self, slot: usize, row: &[f64]) {
        self.exact.set(slot, row);
        self.screen.set(slot, row);
    }

    /// The seed for [`ScreenedRows::screen`] that keeps every row whose
    /// score reaches `score`: `⌊S² score⌋ − B`, with `score` clamped to
    /// `[-1, 1]` and `B` the [`fixed_screen_error_bound`] of the stored
    /// rows; `i64::MIN` (no seed) when that is at or below `−S²`.
    ///
    /// "Score" is any f64 score within `B / S²` of the integer one, as
    /// [`ScreenedRows::screen`] states: a row whose clamped score `c`
    /// reaches `score` has clamped integer score `Î >= S² c − B >=
    /// S² score − B`, and so, being an integer, `Î >= ⌈S² score⌉ − B`.
    /// `S² score` is rounded once in f64, by far less than 1, so its floor
    /// is at most that ceiling. A seed above `−S²` exceeds the clamp's
    /// lower end, so the unclamped score clears it too.
    ///
    /// # Panics
    ///
    /// Panics if `score` is NaN, or as [`fixed_screen_error_bound`].
    pub fn seed_for(&self, score: f64) -> i64 {
        assert!(!score.is_nan(), "seed score is NaN");
        let scaled = (FIXED_ONE_SQ as f64 * score.clamp(-1.0, 1.0)).floor() as i64;
        let seed = scaled - fixed_screen_error_bound(self.dim());
        if seed > -FIXED_ONE_SQ {
            seed
        } else {
            i64::MIN
        }
    }

    /// Screens every live row against `q` in fixed point and leaves in
    /// `out` the candidate slots, in slot order: the live rows whose
    /// integer score reaches `max(seed, min(m, S²) − 2B)`, where `m` is
    /// the largest integer score of a live row, `S = 32767` and `B` is
    /// [`fixed_screen_error_bound`]. `live(slot)` says whether a slot is
    /// live; it is asked only about slots of blocks that are scored lane
    /// by lane. Pass `i64::MIN` as `seed` for no seed.
    ///
    /// What the candidates guarantee: write `I` for a row's integer
    /// score, `Î` for it clamped to `[−S², S²]`, and `c` for an f64 score
    /// of the row, clamped to `[-1, 1]`, with `|Î − S² c| <= B`. The
    /// clamped f64 dot from [`LaneRows::slot_dot`] is such a score when
    /// the rows and `q` have Euclidean norm at most `1 + 2^-30` (see
    /// [`fixed_screen_error_bound`]); a cosine within `B`'s slack of that
    /// dot is another. Every live row of largest `c` whose `c` reaches
    /// the score the seed was made for ([`ScreenedRows::seed_for`]; any
    /// score when there is no seed) is then a candidate. So re-scoring
    /// the candidates in some order and keeping the first strict maximum
    /// in that order gives the full f64 scan's answer in the same order,
    /// whenever that answer reaches the seed's score.
    ///
    /// Why: let `k` be the live row of integer score `m` and `j` a row of
    /// largest `c`, so `c_j >= c_k`. Then `Î_j >= S² c_j − B >= S² c_k − B
    /// >= Î_k − 2B`, and `Î_k` is `m` clamped; `Î_j >= seed` by the seed's
    /// definition. A floor at or below `−S²` admits every row, whatever
    /// its unclamped score. Clamping `m` matters: rows whose f64 dot
    /// rounds above 1.0 all clamp to 1.0 and tie, and a later one may lead
    /// the screen by more than `2B`.
    ///
    /// The floor is kept as the scan runs and only rises, so every row
    /// that clears the final floor cleared it when seen. A block whose
    /// largest lane (dead and padding lanes included) is below the
    /// running floor is skipped without asking `live`: none of its lanes
    /// could clear the final floor, and none could raise it, since a lane
    /// below the floor lifts `min(m, S²) − 2B` to less than itself.
    ///
    /// # Panics
    ///
    /// Panics if rows are stored and `q`'s length differs from theirs,
    /// or if their length exceeds [`MAX_SCREEN_DIM`].
    pub fn screen(&self, q: &[f64], live: impl Fn(usize) -> bool, seed: i64, out: &mut Candidates) {
        assert!(
            self.exact.is_empty() || q.len() == self.dim(),
            "query dimension mismatch: {} vs {}",
            q.len(),
            self.dim()
        );
        let window = 2 * fixed_screen_error_bound(self.dim());
        // Rows whose clamped integer score reaches `min(m, S²) − window`,
        // for the running maximum `m`. A floor at or below −S² admits
        // every row, whatever its unclamped score.
        let floor_of = |m: i64| {
            let floor = m.min(FIXED_ONE_SQ) - window;
            if floor > -FIXED_ONE_SQ {
                floor.max(seed)
            } else {
                seed
            }
        };
        FixedRows::query_into(q, &mut out.query);
        out.hits.clear();
        let mut m = i64::MIN;
        let mut floor = seed;
        for (b, scores) in self.screen.block_scores(&out.query).enumerate() {
            let top = i64::from(scores.into_iter().fold(i32::MIN, i32::max));
            if top < floor {
                continue;
            }
            let first = b * SCREEN_LANES;
            for (lane, s) in scores.into_iter().enumerate().take(self.len() - first) {
                let slot = first + lane;
                if !live(slot) {
                    continue;
                }
                let s = i64::from(s);
                if s > m {
                    m = s;
                    floor = floor_of(m);
                }
                if s >= floor {
                    out.hits.push((slot, s));
                }
            }
        }
        out.hits.retain(|&(_, s)| s >= floor);
    }

    /// The live slot with the highest f64 score against `q`, and that
    /// score, clamped to `[-1, 1]`: the first strict maximum in slot
    /// order. `live(slot)` says whether a slot is live; dead slots are
    /// never scored into the answer. `None` when no slot is live.
    ///
    /// Runs [`ScreenedRows::screen`] with no seed, then re-scores the
    /// candidates in slot order with [`LaneRows::slot_dot`] from `0.0`.
    /// The answer is bit-identical to clamping every live lane of
    /// `exact().block_dots(q, 0.0)` and keeping the first strict maximum,
    /// provided every row is finite and every live row's integer score,
    /// clamped to `[−S², S²]`, is within [`fixed_screen_error_bound`] of
    /// `S²` times its clamped f64 score (`S = 32767`). That holds when
    /// the rows and `q` have Euclidean norm at most `1 + 2^-30`, and for
    /// rows whose integer and f64 scores both clamp to the same end of
    /// the range. The screen runs in `candidates`' buffers: a caller that
    /// keeps one `Candidates` across probes allocates nothing once they
    /// have grown.
    ///
    /// # Panics
    ///
    /// As [`ScreenedRows::screen`].
    pub fn nearest(
        &self,
        q: &[f64],
        live: impl Fn(usize) -> bool,
        candidates: &mut Candidates,
    ) -> Option<(usize, f64)> {
        self.screen(q, live, i64::MIN, candidates);
        let mut best: Option<(usize, f64)> = None;
        for slot in candidates.slots() {
            let sim = self.exact.slot_dot(slot, q, 0.0).clamp(-1.0, 1.0);
            if best.is_none_or(|(_, b)| sim > b) {
                best = Some((slot, sim));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `q` in fixed point, packed as the kernel reads it.
    fn packed(q: &[f64]) -> Vec<i32> {
        let mut out = Vec::new();
        FixedRows::query_into(q, &mut out);
        out
    }

    fn serial(q: &[f64], row: &[f64], init: f64) -> f64 {
        q.iter().zip(row).fold(init, |a, (x, y)| a + x * y)
    }

    fn pseudo(i: usize) -> f64 {
        // Deterministic values with full mantissas, so reassociation
        // would show up in the low bits.
        ((i as f64 * 0.618_033_988_749_895).fract() - 0.5) * 1.7
    }

    #[test]
    fn block_dots_match_serial_fold_bit_for_bit() {
        for dim in [1, 2, 3, 16, 64] {
            for n in [1, 7, 8, 9, 17] {
                let mut rows = LaneRows::new();
                let stored: Vec<Vec<f64>> = (0..n)
                    .map(|s| (0..dim).map(|d| pseudo(s * 131 + d)).collect())
                    .collect();
                for r in &stored {
                    rows.push(r);
                }
                let q: Vec<f64> = (0..dim).map(|d| pseudo(7_919 + d)).collect();
                for init in [0.0, -0.0] {
                    let scores: Vec<f64> = rows.block_dots(&q, init).flatten().collect();
                    assert_eq!(scores.len(), n.div_ceil(LANES) * LANES);
                    for (s, r) in stored.iter().enumerate() {
                        assert_eq!(
                            scores[s].to_bits(),
                            serial(&q, r, init).to_bits(),
                            "dim {dim}, n {n}, slot {s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn slot_dot_matches_its_block_lane_bit_for_bit() {
        for dim in [1, 3, 64] {
            let mut rows = LaneRows::new();
            for s in 0..19 {
                rows.push(&(0..dim).map(|d| pseudo(s * 97 + d)).collect::<Vec<_>>());
            }
            let q: Vec<f64> = (0..dim).map(|d| pseudo(4_999 + d)).collect();
            for init in [0.0, -0.0] {
                let lanes: Vec<f64> = rows.block_dots(&q, init).flatten().collect();
                for (s, lane) in lanes.iter().take(rows.len()).enumerate() {
                    assert_eq!(
                        rows.slot_dot(s, &q, init).to_bits(),
                        lane.to_bits(),
                        "dim {dim}, slot {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn set_overwrites_and_row_reads_back() {
        let mut rows = LaneRows::new();
        for s in 0..10 {
            rows.push(&[s as f64, -(s as f64), 0.5]);
        }
        rows.set(9, &[1.0, 2.0, 3.0]);
        assert_eq!(rows.row(9), vec![1.0, 2.0, 3.0]);
        assert_eq!(rows.row(3), vec![3.0, -3.0, 0.5]);
        assert_eq!(rows.len(), 10);
        assert_eq!(rows.dim(), 3);
    }

    #[test]
    fn empty_store_yields_no_blocks() {
        let rows = LaneRows::new();
        assert!(rows.is_empty());
        assert_eq!(rows.block_dots(&[1.0, 2.0], 0.0).count(), 0);
    }

    #[test]
    fn init_sign_survives_all_zero_products() {
        let mut rows = LaneRows::new();
        rows.push(&[0.0, 0.0]);
        let neg = rows.block_dots(&[-1.0, -1.0], -0.0).next().unwrap()[0];
        assert!(neg == 0.0 && neg.is_sign_negative());
        let pos = rows.block_dots(&[-1.0, -1.0], 0.0).next().unwrap()[0];
        assert!(pos == 0.0 && pos.is_sign_positive());
    }

    /// Seeded unit vector of length `dim` (splitmix64 uniforms in
    /// `[-1, 1)`, normalized in f64).
    fn unit(dim: usize, seed: &mut u64) -> Vec<f64> {
        let mut v: Vec<f64> = (0..dim)
            .map(|_| {
                *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = *seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect();
        crate::vector::normalize(&mut v);
        v
    }

    /// Largest `|integer score − S² · f64 score| / fixed_screen_error_bound(dim)`
    /// over every pair of `rows` (each also used as a query).
    fn worst_ratio(rows: &[Vec<f64>]) -> f64 {
        let dim = rows[0].len();
        let mut screened = ScreenedRows::new();
        for r in rows {
            screened.push(r);
        }
        let bound = fixed_screen_error_bound(dim) as f64;
        let mut worst: f64 = 0.0;
        for q in rows {
            let qi = packed(q);
            let wide = screened.exact.block_dots(q, 0.0).flatten();
            let fixed = screened.screen.block_scores(&qi).flatten();
            for (d, s) in wide.zip(fixed).take(rows.len()) {
                worst = worst.max((f64::from(s) - d * FIXED_ONE_SQ as f64).abs() / bound);
            }
        }
        worst
    }

    #[test]
    fn fixed_screen_error_bound_holds_and_is_not_loose() {
        let mut seed = 0x5EED;
        for dim in [1, 3, 64, 512] {
            let mut rows: Vec<Vec<f64>> = (0..128).map(|_| unit(dim, &mut seed)).collect();
            rows.push(vec![0.0; dim]);
            let worst = worst_ratio(&rows);
            assert!(worst <= 1.0, "dim {dim}: error {worst} x the bound");
            // Unit vectors of length 1 are ±1 and score exactly.
            if dim > 1 {
                assert!(worst >= 0.01, "dim {dim}: bound {:.0}x loose", 1.0 / worst);
            }
        }
        // Adversarial: equal magnitudes with alternating signs, so every
        // component rounds by the same amount and the errors add up in
        // lockstep (a row against itself) or cancel (against its flip).
        for dim in [3, 63, 64, 511, 512] {
            let c = 1.0 / (dim as f64).sqrt();
            let alternating: Vec<f64> = (0..dim).map(|d| if d % 2 == 0 { c } else { -c }).collect();
            let flat = vec![c; dim];
            let worst = worst_ratio(&[alternating, flat]);
            assert!(worst <= 1.0, "dim {dim}: error {worst} x the bound");
        }
    }

    /// Splitmix64 step, for raw fixed-point test values.
    fn next(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn query_blocks_score_as_the_screen_with_roles_swapped() {
        for dim in [7, 64] {
            let vector = |i: usize| -> Vec<f64> { (0..dim).map(|d| pseudo(i * 37 + d)).collect() };
            let (mut rows, mut queries) = (ScreenedRows::new(), QueryBlocks::new());
            let mut fixed = FixedQuery::new();
            for slot in 0..21 {
                rows.push(&vector(slot));
                fixed.set(&vector(slot));
                queries.set(slot, &fixed);
            }
            // Overwrite a slot in both stores.
            rows.set(5, &vector(99));
            fixed.set(&vector(99));
            queries.set(5, &fixed);
            assert_eq!(queries.blocks(), 2);
            let q = vector(1_000);
            fixed.set(&q);
            let swapped: Vec<i32> = (0..queries.blocks())
                .flat_map(|b| queries.block_scores(b, &fixed))
                .collect();
            let screened: Vec<i32> = rows.screen.block_scores(&packed(&q)).flatten().collect();
            assert_eq!(swapped, screened, "dim {dim}");
            assert!(swapped[21..].iter().all(|&s| s == 0), "dim {dim}: padding");
        }
    }

    #[test]
    fn fixed_kernel_matches_scalar_fold() {
        let s = f64::from(FIXED_ONE);
        let mut seed = 0xC0DE;
        for dim in [1, 7, 64, 512] {
            // Rows of the given integers (`k / S` quantizes back to `k`).
            type Pattern = fn(usize, usize, &mut u64) -> i16;
            let patterns: [Pattern; 4] = [
                |_, _, seed| ((next(seed) % 65_535) as i32 - i32::from(FIXED_ONE)) as i16,
                |_, _, _| FIXED_ONE,
                |_, _, _| -FIXED_ONE,
                |slot, d, _| {
                    if (slot + d) % 2 == 0 {
                        FIXED_ONE
                    } else {
                        -FIXED_ONE
                    }
                },
            ];
            for (p, pattern) in patterns.iter().enumerate() {
                let mut rows = ScreenedRows::new();
                let ints = |slot: usize, seed: &mut u64| -> Vec<f64> {
                    (0..dim)
                        .map(|d| f64::from(pattern(slot, d, seed)) / s)
                        .collect()
                };
                for slot in 0..21 {
                    rows.push(&ints(slot, &mut seed));
                }
                for query in 0..4 {
                    let q = ints(100 + query, &mut seed);
                    let qi = packed(&q);
                    let stride = rows.screen.stride();
                    for block in rows.screen.data.chunks_exact(stride) {
                        assert_eq!(
                            block_scores(block, &qi),
                            block_scores_scalar(block, &qi),
                            "dim {dim}, pattern {p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn saturated_components_never_wrap_a_pair() {
        assert_eq!(quantize(-2.0), -FIXED_ONE);
        assert_eq!(quantize(2.0), FIXED_ONE);
        // Both components of query and row saturate: the pair sum is
        // 2 S², just inside i32, and the row must still win.
        let mut rows = ScreenedRows::new();
        rows.push(&[-2.0, -2.0]);
        rows.push(&[0.0, 0.0]);
        assert_eq!(
            rows.nearest(&[-2.0, -2.0], |_| true, &mut Candidates::new()),
            Some((0, 1.0))
        );
    }

    /// The first strict maximum of the clamped f64 scores of live rows.
    fn full_scan(rows: &ScreenedRows, q: &[f64], live: &[bool]) -> Option<(usize, f64)> {
        let mut full: Option<(usize, f64)> = None;
        let dots = rows.exact().block_dots(q, 0.0).flatten();
        for (slot, (d, &alive)) in dots.zip(live).enumerate() {
            let sim = d.clamp(-1.0, 1.0);
            if alive && full.is_none_or(|(_, b)| sim > b) {
                full = Some((slot, sim));
            }
        }
        full
    }

    /// `rows` pushed in order into a fresh store.
    fn screened(rows: &[&[f64]]) -> ScreenedRows {
        let mut store = ScreenedRows::new();
        for r in rows {
            store.push(r);
        }
        store
    }

    /// Integer screen scores of `rows` against `q`, in slot order.
    fn fixed_scores(rows: &ScreenedRows, q: &[f64]) -> Vec<i32> {
        let qi = packed(q);
        let n = rows.exact().len();
        rows.screen.block_scores(&qi).flatten().take(n).collect()
    }

    #[test]
    fn quantization_near_ties_go_to_the_f64_winner() {
        let mut seed = 0x71E5;
        let dim = 64;
        let q = unit(dim, &mut seed);
        // Equal integer rows: a few f64 ulps apart in one component, on
        // the side where the query makes them score higher.
        let r = unit(dim, &mut seed);
        let d = (0..dim)
            .max_by(|&a, &b| q[a].abs().total_cmp(&q[b].abs()))
            .unwrap();
        let mut up = r.clone();
        for _ in 0..4 {
            up[d] = if q[d] > 0.0 {
                up[d].next_up()
            } else {
                up[d].next_down()
            };
        }
        let pair = screened(&[&r, &up]);
        let ints = fixed_scores(&pair, &q);
        assert_eq!(
            ints[0], ints[1],
            "the nudge must not change the integer row"
        );
        let (low, high) = (
            pair.exact().slot_dot(0, &q, 0.0),
            pair.exact().slot_dot(1, &q, 0.0),
        );
        assert!(high > low, "the nudge must raise the f64 score");
        assert_eq!(
            pair.nearest(&q, |_| true, &mut Candidates::new()),
            Some((1, high))
        );
        let swapped = screened(&[&up, &r]);
        assert_eq!(
            swapped.nearest(&q, |_| true, &mut Candidates::new()),
            Some((0, high))
        );
        let twins = screened(&[&r, &r]);
        assert_eq!(
            twins.nearest(&q, |_| true, &mut Candidates::new()),
            Some((0, low))
        );

        // Rows whose integer order is the reverse of their f64 order: the
        // screen's leader loses the re-score, from either slot.
        let flipped = (0..10_000)
            .find_map(|_| {
                let base = unit(dim, &mut seed);
                let noise = unit(dim, &mut seed);
                let mut near: Vec<f64> =
                    base.iter().zip(&noise).map(|(b, n)| b + 1e-5 * n).collect();
                crate::vector::normalize(&mut near);
                let rows = screened(&[&base, &near]);
                let ints = fixed_scores(&rows, &q);
                let dots = [
                    rows.exact().slot_dot(0, &q, 0.0),
                    rows.exact().slot_dot(1, &q, 0.0),
                ];
                (ints[0] < ints[1] && dots[0] > dots[1]).then_some((base, near, dots[0]))
            })
            .expect("some nearby rows round out of f64 order");
        let (base, near, best) = flipped;
        assert_eq!(
            screened(&[&base, &near]).nearest(&q, |_| true, &mut Candidates::new()),
            Some((0, best))
        );
        assert_eq!(
            screened(&[&near, &base]).nearest(&q, |_| true, &mut Candidates::new()),
            Some((1, best))
        );
    }

    #[test]
    fn skipped_blocks_never_hide_the_best_live_row() {
        let mut seed = 0x5A1F;
        let dim = 16;
        let q = unit(dim, &mut seed);
        let mut rows: Vec<Vec<f64>> = Vec::new();
        // Block 0: a dead copy of the query, which outscores every live
        // row, then live rows in random directions.
        rows.push(q.clone());
        rows.extend((1..16).map(|_| unit(dim, &mut seed)));
        // Block 1: dead rows opposite the query, so the block is skipped.
        rows.extend((0..16).map(|_| q.iter().map(|x| -x).collect::<Vec<f64>>()));
        // Block 2 (partial): the best live row last, near the query.
        rows.extend((0..7).map(|_| unit(dim, &mut seed)));
        let noise = unit(dim, &mut seed);
        let mut best: Vec<f64> = q.iter().zip(&noise).map(|(x, n)| x + 0.05 * n).collect();
        crate::vector::normalize(&mut best);
        rows.push(best);
        let store = screened(&rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let live: Vec<bool> = (0..rows.len())
            .map(|s| s != 0 && !(16..32).contains(&s))
            .collect();
        let want = full_scan(&store, &q, &live);
        assert_eq!(want.map(|(s, _)| s), Some(39));
        assert_eq!(store.nearest(&q, |s| live[s], &mut Candidates::new()), want);
        // With block 1 live too, it still cannot win: same answer.
        let live: Vec<bool> = (0..rows.len()).map(|s| s != 0).collect();
        assert_eq!(store.nearest(&q, |s| live[s], &mut Candidates::new()), want);
    }

    #[test]
    fn a_block_whose_top_lane_meets_the_floor_is_scored() {
        // Integer query (1, 1, S): slot 0 scores exactly S² (the running
        // maximum, f64 score just below 1.0), and slot 16, alone in block
        // 1, scores exactly the floor S² − 2B. Its first component
        // saturates, so its f64 score clamps to 1.0 and it is the answer.
        let s = i64::from(FIXED_ONE);
        let sf = f64::from(FIXED_ONE);
        let q = [1.0 / sf, 1.0 / sf, 1.0];
        let floor = FIXED_ONE_SQ - 2 * fixed_screen_error_bound(3);
        let rest = floor - s;
        let (hi, lo) = (rest.div_euclid(s), rest.rem_euclid(s));
        let top = [0.0, 0.0, 1.0 - 0.25 / sf];
        let at_floor = [1e6, lo as f64 / sf, hi as f64 / sf];
        let low = [0.0, 0.0, -1.0];
        let mut rows: Vec<&[f64]> = vec![&top];
        rows.extend([&low[..]; 15]);
        rows.push(&at_floor);
        let store = screened(&rows);
        let ints = fixed_scores(&store, &q);
        assert_eq!(
            (i64::from(ints[0]), i64::from(ints[16])),
            (FIXED_ONE_SQ, floor)
        );
        assert_eq!(
            store.nearest(&q, |_| true, &mut Candidates::new()),
            Some((16, 1.0))
        );
    }

    #[test]
    fn screened_rows_keep_slot_order_past_the_fixed_point_range() {
        // Rows past unit norm along the query: integer scores of about
        // 1.06 S² and 1.41 S² both clamp to S², as the f64 dots clamp to
        // 1.0, so slot 0 must win although slot 1 leads the screen by far
        // more than twice the bound.
        let c = 0.5_f64.sqrt();
        let mut rows = ScreenedRows::new();
        rows.push(&[0.75, 0.75]);
        rows.push(&[1.0, 1.0]);
        assert!(fixed_scores(&rows, &[c, c])
            .iter()
            .all(|&s| i64::from(s) > FIXED_ONE_SQ));
        assert_eq!(
            rows.nearest(&[c, c], |_| true, &mut Candidates::new()),
            Some((0, 1.0))
        );
        // The same at the bottom, where the floor falls below −S².
        let mut rows = ScreenedRows::new();
        rows.push(&[-1.0, -1.0]);
        rows.push(&[-0.75, -0.75]);
        assert_eq!(
            rows.nearest(&[c, c], |_| true, &mut Candidates::new()),
            Some((0, -1.0))
        );
    }

    #[test]
    fn screened_rows_keep_slot_order_among_clamped_ties() {
        // Rows past unit norm: f64 dots of 1.5 and 2.0 both clamp to 1.0
        // and tie, so slot 0 must win although slot 1 leads the f32 screen
        // by far more than twice the bound.
        let mut rows = ScreenedRows::new();
        rows.push(&[1.5, 0.0]);
        rows.push(&[2.0, 0.0]);
        assert_eq!(
            rows.nearest(&[1.0, 0.0], |_| true, &mut Candidates::new()),
            Some((0, 1.0))
        );
        // The same at the bottom: -2.0 and -1.5 both clamp to -1.0.
        let mut rows = ScreenedRows::new();
        rows.push(&[-2.0, 0.0]);
        rows.push(&[-1.5, 0.0]);
        assert_eq!(
            rows.nearest(&[1.0, 0.0], |_| true, &mut Candidates::new()),
            Some((0, -1.0))
        );
    }

    /// Rows of two components whose integer scores against
    /// [`integer_query`] are exactly `scores`: `[hi / S, lo / S]` with
    /// `S hi + lo` the score.
    fn rows_scoring(scores: &[i64]) -> ScreenedRows {
        let s = i64::from(FIXED_ONE);
        let sf = f64::from(FIXED_ONE);
        let mut rows = ScreenedRows::new();
        for &score in scores {
            let (hi, lo) = (score.div_euclid(s), score.rem_euclid(s));
            rows.push(&[hi as f64 / sf, lo as f64 / sf]);
        }
        rows
    }

    /// `(S, 1)` in fixed point, so a row `(hi, lo)` scores `S hi + lo`.
    fn integer_query() -> [f64; 2] {
        [1.0, 1.0 / f64::from(FIXED_ONE)]
    }

    /// The candidate slots of a screen of every row, all live.
    fn screened_slots(rows: &ScreenedRows, seed: i64) -> Vec<usize> {
        let mut out = Candidates::new();
        rows.screen(&integer_query(), |_| true, seed, &mut out);
        out.slots().collect()
    }

    #[test]
    fn a_row_at_the_seed_is_a_candidate_and_one_below_is_not() {
        let seed = FIXED_ONE_SQ / 2;
        let rows = rows_scoring(&[seed - 1, seed]);
        let q = integer_query();
        assert_eq!(
            fixed_scores(&rows, &q),
            [(seed - 1) as i32, seed as i32],
            "the rows score as built"
        );
        assert_eq!(screened_slots(&rows, seed), [1]);
        assert_eq!(screened_slots(&rows_scoring(&[seed, seed - 1]), seed), [0]);
        assert_eq!(screened_slots(&rows, seed + 1), [0usize; 0]);
        // Without a seed, both lie well within the window.
        assert_eq!(screened_slots(&rows, i64::MIN), [0, 1]);
    }

    #[test]
    fn a_seed_above_every_row_passes_none_and_asks_about_no_lane() {
        let scores: Vec<i64> = (0..37).map(|s| s * (FIXED_ONE_SQ / 40)).collect();
        let rows = rows_scoring(&scores);
        let seed = FIXED_ONE_SQ - FIXED_ONE_SQ / 40;
        let asked = std::cell::Cell::new(0);
        let mut out = Candidates::new();
        // Stale candidates from an earlier screen must not survive.
        rows.screen(&integer_query(), |_| true, i64::MIN, &mut out);
        assert_ne!(out.slots().count(), 0);
        let live = |_| {
            asked.set(asked.get() + 1);
            true
        };
        rows.screen(&integer_query(), live, seed, &mut out);
        assert_eq!(out.slots().count(), 0);
        assert_eq!(asked.get(), 0, "every block lies below the seed");
    }

    #[test]
    fn seed_and_running_floor_combine_without_hiding_the_best_live_row() {
        let window = 2 * fixed_screen_error_bound(2);
        let q = integer_query();
        let low = |n: usize| vec![0; n];
        // The seed binds: the best row's window reaches below the seed, so
        // the seed decides, and a dead row above everything changes
        // nothing.
        let seed = FIXED_ONE_SQ / 2;
        let best = seed + window / 4;
        let mut scores = vec![seed - 1, seed, FIXED_ONE_SQ];
        scores.extend(low(14));
        scores.extend([best, seed + 5]);
        let rows = rows_scoring(&scores);
        let mut out = Candidates::new();
        rows.screen(&q, |slot| slot != 2, seed, &mut out);
        assert_eq!(out.slots().collect::<Vec<_>>(), [1, 17, 18]);
        // The running floor binds: the best live row comes late and lifts
        // the floor past an early row that had cleared the seed; the dead
        // row above everything is never counted.
        let seed = FIXED_ONE_SQ / 4;
        let best = FIXED_ONE_SQ / 2;
        let mut scores = vec![seed + 10, FIXED_ONE_SQ];
        scores.extend(low(15));
        scores.extend([best, best - window, best - window - 1, seed]);
        let rows = rows_scoring(&scores);
        rows.screen(&q, |slot| slot != 1, seed, &mut out);
        assert_eq!(out.slots().collect::<Vec<_>>(), [17, 18]);
        // The f64 re-score of the candidates picks the best live row.
        let top = out
            .slots()
            .max_by(|&a, &b| {
                let score = |s| rows.exact().slot_dot(s, &q, 0.0);
                score(a).total_cmp(&score(b))
            })
            .expect("candidates");
        assert_eq!(top, 17);
    }

    #[test]
    fn seed_for_keeps_every_row_whose_score_reaches_the_threshold() {
        let mut seed = 0x5EED_F00D;
        let dim = 64;
        let rows: Vec<Vec<f64>> = (0..64).map(|_| unit(dim, &mut seed)).collect();
        let store = screened(&rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let mut rounded_below = 0;
        for q in (0..32).map(|_| unit(dim, &mut seed)) {
            let ints = fixed_scores(&store, &q);
            for (slot, &int) in ints.iter().enumerate() {
                let c = store.exact().slot_dot(slot, &q, 0.0).clamp(-1.0, 1.0);
                // Keyed to the row's own score: the tightest threshold it
                // must still clear.
                assert!(i64::from(int) >= store.seed_for(c), "slot {slot}");
                if i64::from(int) < (FIXED_ONE_SQ as f64 * c).floor() as i64 {
                    rounded_below += 1;
                }
            }
        }
        assert!(rounded_below > 0, "no row rounded below its own score");
        assert_eq!(store.seed_for(-1.0), i64::MIN);
        assert_eq!(store.seed_for(f64::NEG_INFINITY), i64::MIN);
        assert!(store.seed_for(0.7) > 0);
    }

    #[test]
    fn screened_rows_match_the_full_exact_scan() {
        let mut seed = 0xF1A7;
        for dim in [2, 17, 64] {
            let mut rows = ScreenedRows::new();
            let stored: Vec<Vec<f64>> = (0..37).map(|_| unit(dim, &mut seed)).collect();
            for r in &stored {
                rows.push(r);
            }
            // Recycle a slot: both copies must follow the overwrite.
            rows.set(5, &stored[30]);
            let live: Vec<bool> = (0..stored.len()).map(|s| s % 7 != 3).collect();
            for q in stored.iter().take(12) {
                let mut full: Option<(usize, f64)> = None;
                let dots = rows.exact().block_dots(q, 0.0).flatten();
                for (slot, (d, &alive)) in dots.zip(&live).enumerate() {
                    let sim = d.clamp(-1.0, 1.0);
                    if alive && full.is_none_or(|(_, b)| sim > b) {
                        full = Some((slot, sim));
                    }
                }
                let screened = rows.nearest(q, |s| live[s], &mut Candidates::new());
                assert_eq!(
                    screened.map(|(s, x)| (s, x.to_bits())),
                    full.map(|(s, x)| (s, x.to_bits())),
                    "dim {dim}"
                );
            }
            assert_eq!(
                rows.nearest(&stored[0], |_| false, &mut Candidates::new()),
                None
            );
        }
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn block_dots_rejects_mismatched_query() {
        let mut rows = LaneRows::new();
        rows.push(&[1.0, 0.0]);
        let _ = rows.block_dots(&[1.0], 0.0).count();
    }

    #[test]
    #[should_panic(expected = "row dimension mismatch")]
    fn push_rejects_mismatched_row() {
        let mut rows = LaneRows::new();
        rows.push(&[1.0, 0.0]);
        rows.push(&[1.0]);
    }
}
