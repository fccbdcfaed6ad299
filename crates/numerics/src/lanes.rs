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
//! [`ScreenedRows`] keeps two more, fixed-point copies of the same rows,
//! sixteen rows per block: at scale `S = 32767`, each component `x` as
//! the `i16` `round(x * S)`, saturated to `±S`, and at scale `S₈ = 127`
//! as an `i8`. It finds the best-scoring row in three steps, and the
//! first two read only integers. [`ScreenedRows::screen`] scores every
//! block against the query in 8 bits, in one kernel call at the CPU's
//! widest detected vector width (AVX-512BW or AVX2, see [`screen_kernel`];
//! a CPU without AVX2 skips this pass), and keeps each block's top lane.
//! It then visits the blocks, the one of the largest
//! 8-bit top first, and re-scores in 16 bits (SSE2 `pmaddwd` on x86-64)
//! only those whose 8-bit top could still reach the running floor,
//! keeping as candidates the rows whose 16-bit score is within twice
//! [`fixed_screen_error_bound`] of the largest. The caller then re-scores
//! the candidates in f64 with [`LaneRows::slot_dot`]. Integer dot
//! products are exact, so each bound covers only quantization and the
//! f64 fold's own rounding: no 16-bit score is further than
//! [`fixed_screen_error_bound`] from its f64 score scaled by `S²`, nor
//! any 8-bit score further than [`byte_screen_error_bound`] from it
//! scaled by `S₈²`. So the 8-bit pass never passes over a block holding a
//! row the 16-bit screen would keep, the row an all-f64 scan would pick
//! is always among the candidates, and the answer is bit for bit the full
//! scan's. The 16-bit screen stays the authority: the 8-bit bound (6.4%
//! of the scale at 64 components, against 0.024%) is too loose to pick
//! candidates with, but tight enough to rule out nearly every block once
//! the floor is high. The 16-bit copy reads a quarter of the f64 scan's
//! bytes, and the 8-bit one an eighth.
//!
//! The screen has two consumers. The cache's flat index asks
//! [`ScreenedRows::nearest`] for the best row, re-scored in slot order,
//! seeded with its hit floor. The fleet's affinity leader table only
//! cares about a leader that reaches its join threshold, and re-scores
//! the candidates in its own admission order. Both pass a *seed*: a floor
//! ([`ScreenedRows::seed_for`]) below which no row can reach that score.
//! Rows under it are never candidates, and when every row falls under it,
//! the 8-bit pass rules out nearly every block and nothing is re-scored
//! at all. The 16-bit kernel also runs the other way round, in
//! [`QueryBlocks`]: many stored queries, sixteen to a block, scored
//! against one row, each against a seed of its own.
//!
//! The guarantee needs rows and queries of Euclidean norm at most
//! `1 + 2^-30`, which every normalized (or zero) vector meets.

use std::cell::Cell;
use std::sync::OnceLock;

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

/// The 8-bit pass's scale `S₈`: rows and queries are stored as `i8`,
/// saturated to `±S₈`.
const BYTE_ONE: i16 = i8::MAX as i16;

/// `S₈²`, the 8-bit score of a unit row against itself.
const BYTE_ONE_SQ: i64 = BYTE_ONE as i64 * BYTE_ONE as i64;

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

/// `x` at fixed-point scale `SCALE` (at most `2^15 − 1`): `x * SCALE`
/// rounded to the nearest integer (ties to even), saturated to `±SCALE`.
fn quantize<const SCALE: i16>(x: f64) -> i16 {
    // For |y| <= SCALE, y + 1.5 * 2^52 lies in [2^52, 2^53), where the f64
    // spacing is 1, so the add rounds y to an integer held in the low
    // bits of the sum's mantissa (offset by 2^51, above the low 16).
    const ROUNDER: f64 = 6_755_399_441_055_744.0;
    let s = f64::from(SCALE);
    ((x * s).clamp(-s, s) + ROUNDER).to_bits() as i16
}

/// `values` at fixed-point scale `SCALE`, in component pairs; an odd last
/// component is padded with a zero.
fn quantized_pairs<const SCALE: i16>(values: &[f64]) -> impl Iterator<Item = [i16; 2]> + '_ {
    let (pairs, odd) = values.as_chunks::<2>();
    let pairs = pairs
        .iter()
        .map(|&[a, b]| [quantize::<SCALE>(a), quantize::<SCALE>(b)]);
    pairs.chain(odd.iter().map(|&a| [quantize::<SCALE>(a), 0]))
}

/// The bound, in fixed-point units (`S = 32767`, so a score of `S²`
/// means 1.0), on how far the 16-bit screen's integer score of a row can
/// fall from `S²` times its f64 score ([`LaneRows::block_dots`] from
/// `0.0`), when row and query are f64 vectors of length `n = dim` and
/// Euclidean norm at most `1 + δ`, `δ = 2^-30`: `⌈S √n + n / 4⌉ + 1`.
/// Normalizing in f64 errs by about `(n / 2 + 2) 2^-53`, so every unit
/// vector of length up to [`MAX_SCREEN_DIM`] qualifies, and so does the
/// zero vector.
///
/// The derivation holds for any scale `S` from 1 to 32767, with rows and
/// query both stored at `S`; [`byte_screen_error_bound`] is the same
/// bound at `S₈ = 127`. Write `v = 2^-53` (f64 unit roundoff), `Q(x)` for
/// the stored integer and `I = Σ Q(q_i) Q(r_i)` for the screen's score:
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
    screen_error_bound(FIXED_ONE, dim)
}

/// [`fixed_screen_error_bound`] for the 8-bit pass, in its units
/// (`S₈ = 127`, so a score of `S₈²` means 1.0): `⌈S₈ √n + n / 4⌉ + 1`,
/// by the same derivation with `S = S₈`. That is 1,033 at 64 components,
/// 6.4% of the scale. The no-overflow argument gives
/// `|I| <= (S₈ (1 + δ) + ε √n)² < 2^19` for `n <= 2^20`.
///
/// # Panics
///
/// Panics if `dim` exceeds [`MAX_SCREEN_DIM`].
pub fn byte_screen_error_bound(dim: usize) -> i64 {
    screen_error_bound(BYTE_ONE, dim)
}

/// `⌈S √n + n / 4⌉ + 1` at scale `S = scale`, `n = dim`.
fn screen_error_bound(scale: i16, dim: usize) -> i64 {
    assert!(
        dim <= MAX_SCREEN_DIM,
        "row length {dim} exceeds the screen's proven range ({MAX_SCREEN_DIM})"
    );
    let n = dim as f64;
    (f64::from(scale) * n.sqrt() + n / 4.0).ceil() as i64 + 1
}

/// A fixed-point copy behind [`ScreenedRows`], at one scale: sixteen
/// slots per block, components interleaved in pairs. Within a block, pair
/// `p` of lane `l` holds `[Q(r[2p]), Q(r[2p + 1])]` at `p * 32 + 2 * l`,
/// and an odd row length is padded with a zero component. The 16-bit
/// screen stores `i16` values, so one 16-byte load feeds `pmaddwd` four
/// lanes' pair; the 8-bit pass stores `i8` values, so one 32-byte load
/// holds all sixteen lanes' pair, which `vpmovsxbw` widens for
/// `vpmaddwd`.
#[derive(Debug, Clone, Default)]
struct FixedRows<T> {
    /// Blocks of `pairs * 2 * SCREEN_LANES` values; unset lanes are zero.
    data: Vec<T>,
    /// Component pairs per row, `dim.div_ceil(2)`.
    pairs: usize,
}

impl<T: Copy + Default> FixedRows<T> {
    /// Values per block.
    fn stride(&self) -> usize {
        self.pairs * 2 * SCREEN_LANES
    }

    /// Block `b`'s values.
    fn block(&self, b: usize) -> &[T] {
        let stride = self.stride();
        &self.data[b * stride..][..stride]
    }

    /// Writes the `pairs` fixed-point component pairs `values` into slot
    /// `slot`, growing the store by whole blocks.
    fn write(&mut self, slot: usize, pairs: usize, values: impl Iterator<Item = [T; 2]>) {
        self.pairs = pairs;
        let stride = self.stride();
        let end = (slot / SCREEN_LANES + 1) * stride;
        if self.data.len() < end {
            self.data.resize(end, T::default());
        }
        // Pair `p` of lane `l` is the `p * SCREEN_LANES + l`-th pair.
        let (block, _) = self.data[end - stride..end].as_chunks_mut::<{ 2 * SCREEN_LANES }>();
        let lane = 2 * (slot % SCREEN_LANES);
        for (lanes, [lo, hi]) in block.iter_mut().zip(values) {
            (lanes[lane], lanes[lane + 1]) = (lo, hi);
        }
    }
}

impl FixedRows<i16> {
    /// Writes `row` at scale `S` into slot `slot`, growing the store by
    /// whole blocks. The owner checks the slot and the row length.
    fn set(&mut self, slot: usize, row: &[f64]) {
        self.write(
            slot,
            row.len().div_ceil(2),
            quantized_pairs::<FIXED_ONE>(row),
        );
    }
}

impl FixedRows<i8> {
    /// Writes `row` at scale `S₈` into slot `slot`, as the 16-bit copy's
    /// `set` does at `S`.
    fn set(&mut self, slot: usize, row: &[f64]) {
        // `quantize` saturates to `±S₈`, so every value fits in an `i8`.
        let values = quantized_pairs::<BYTE_ONE>(row).map(|[lo, hi]| [lo as i8, hi as i8]);
        self.write(slot, row.len().div_ceil(2), values);
    }
}

/// Writes `q` at fixed-point scale `SCALE` to `out`, each component pair
/// packed into one `i32`, the first in the low half: the operand
/// `set1_epi32` broadcasts to every `pmaddwd` pair. At scale `S₈` the
/// halves are the words `vpmovsxbw` makes of the 8-bit copy's pairs.
fn query_into<const SCALE: i16>(q: &[f64], out: &mut Vec<i32>) {
    out.clear();
    out.extend(
        quantized_pairs::<SCALE>(q)
            .map(|[lo, hi]| (u32::from(lo as u16) | (u32::from(hi as u16) << 16)) as i32),
    );
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

/// [`block_scores`] as a scalar fold over either copy: the same wrapping
/// sums, lane for lane. The 16-bit kernel on targets without SSE2, and the
/// reference of every kernel in tests.
///
/// # Panics
///
/// Panics if `block` does not hold exactly `2 * SCREEN_LANES` values per
/// query pair.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn block_scores_scalar<T: Copy + Into<i32>>(block: &[T], q: &[i32]) -> [i32; SCREEN_LANES] {
    assert_eq!(block.len(), q.len() * 2 * SCREEN_LANES, "screen block size");
    let mut acc = [0i32; SCREEN_LANES];
    for (&pair, values) in q.iter().zip(block.as_chunks::<{ 2 * SCREEN_LANES }>().0) {
        let (q0, q1) = (i32::from(pair as i16), i32::from((pair >> 16) as i16));
        for (a, r) in acc.iter_mut().zip(values.as_chunks::<2>().0) {
            let dot = (r[0].into() * q0).wrapping_add(r[1].into() * q1);
            *a = a.wrapping_add(dot);
        }
    }
    acc
}

#[cfg(not(target_arch = "x86_64"))]
fn block_scores(block: &[i16], q: &[i32]) -> [i32; SCREEN_LANES] {
    block_scores_scalar(block, q)
}

/// A kernel for the 8-bit pass: writes each block's *top*, the largest of
/// its sixteen lanes' integer scores (padding lanes included) against
/// the packed query pairs, each summed in wrapping `i32` arithmetic as
/// the scalar fold sums it. Integer sums are exact, so every kernel
/// writes the same tops. [`ScreenedRows::screen`] runs the widest one the
/// CPU supports ([`ByteKernel::detect`]). A CPU with neither (an x86-64
/// CPU without AVX2, or another architecture) skips the 8-bit pass and
/// screens every block in 16 bits: a narrower 8-bit kernel costs about as
/// much as the 16-bit screen it would spare (an SSE2 one measured 2.5
/// times the cost of screening every block in 16 bits).
///
/// A value is only ever made by [`ByteKernel::available`], after the
/// kernel's CPU features were detected at run time; the `unsafe` kernel
/// calls in [`ByteKernel::block_tops`] rely on that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ByteKernel {
    /// AVX-512BW: per component pair, one 32-byte load of all sixteen
    /// lanes, sign-extended to words (`vpmovsxbw`), and one `vpmaddwd`
    /// ([`avx512_tops`]).
    #[cfg(target_arch = "x86_64")]
    Avx512Bw,
    /// AVX2: the same on 256 bits, two registers per block
    /// ([`avx2_tops`]).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl ByteKernel {
    /// Every kernel this CPU supports, widest first, detected at run time.
    fn available() -> Vec<Self> {
        #[cfg(target_arch = "x86_64")]
        let kernels = [
            (
                ByteKernel::Avx512Bw,
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw"),
            ),
            (ByteKernel::Avx2, is_x86_feature_detected!("avx2")),
        ];
        #[cfg(not(target_arch = "x86_64"))]
        let kernels: [(Self, bool); 0] = [];
        kernels
            .into_iter()
            .filter_map(|(kernel, detected)| detected.then_some(kernel))
            .collect()
    }

    /// The widest kernel this CPU supports, if any, detected once per
    /// process.
    fn detect() -> Option<Self> {
        static DETECTED: OnceLock<Option<ByteKernel>> = OnceLock::new();
        *DETECTED.get_or_init(|| Self::available().first().copied())
    }

    /// The kernel's name, as [`screen_kernel`] reports it.
    fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            ByteKernel::Avx512Bw => "avx512bw",
            #[cfg(target_arch = "x86_64")]
            ByteKernel::Avx2 => "avx2",
        }
    }

    /// Writes the top of block `b` of `data` against the packed query
    /// pairs `q` to `tops[b]`, for every block.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not hold `tops.len()` blocks of
    /// `2 * SCREEN_LANES` values per query pair.
    fn block_tops(self, data: &[i8], q: &[i32], tops: &mut [i32]) {
        let stride = q.len() * 2 * SCREEN_LANES;
        assert_eq!(data.len(), tops.len() * stride, "8-bit block size");
        if tops.is_empty() {
            return;
        }
        match self {
            #[cfg(target_arch = "x86_64")]
            ByteKernel::Avx512Bw => in_flight(
                data,
                stride,
                tops,
                // SAFETY: `self` came from `ByteKernel::available`, which
                // detected AVX-512F and AVX-512BW on this CPU at run time.
                |blocks| unsafe { avx512_tops(blocks, q) },
                // SAFETY: as for the group of blocks.
                |block| unsafe { avx512_tops(block, q) },
            ),
            #[cfg(target_arch = "x86_64")]
            ByteKernel::Avx2 => in_flight(
                data,
                stride,
                tops,
                // SAFETY: `self` came from `ByteKernel::available`, which
                // detected AVX2 on this CPU at run time.
                |blocks| unsafe { avx2_tops(blocks, q) },
                // SAFETY: as for the group of blocks.
                |block| unsafe { avx2_tops(block, q) },
            ),
        }
    }
}

/// Blocks each wide kernel scores at once.
#[cfg(target_arch = "x86_64")]
const IN_FLIGHT: usize = 4;

/// Runs a wide kernel over every block of `data`, `stride` values each,
/// writing block `b`'s top to `tops[b]`: `group` scores [`IN_FLIGHT`]
/// blocks at a time, and `single` the rest one by one.
#[cfg(target_arch = "x86_64")]
fn in_flight(
    data: &[i8],
    stride: usize,
    tops: &mut [i32],
    group: impl Fn(&[i8]) -> [i32; IN_FLIGHT],
    single: impl Fn(&[i8]) -> [i32; 1],
) {
    let (groups, rest) = tops.as_chunks_mut::<IN_FLIGHT>();
    let (whole, tail) = data.split_at(groups.len() * IN_FLIGHT * stride);
    for (out, blocks) in groups
        .iter_mut()
        .zip(whole.chunks_exact(IN_FLIGHT * stride))
    {
        *out = group(blocks);
    }
    for (out, block) in rest.iter_mut().zip(tail.chunks_exact(stride)) {
        [*out] = single(block);
    }
}

/// The tops of the `N` consecutive blocks in `blocks` with AVX-512BW: per
/// component pair, all sixteen lanes as one 32-byte load, sign-extended
/// to words (`vpmovsxbw`) and multiplied by the query pair with
/// `vpmaddwd`, which leaves each lane's pair sum in its own `i32`.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512BW.
///
/// # Panics
///
/// Panics if `blocks` does not hold `N` blocks of `32 * q.len()` bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn avx512_tops<const N: usize>(blocks: &[i8], q: &[i32]) -> [i32; N] {
    use std::arch::x86_64::{
        _mm256_loadu_si256, _mm512_add_epi32, _mm512_cvtepi8_epi16, _mm512_madd_epi16,
        _mm512_reduce_max_epi32, _mm512_set1_epi32, _mm512_setzero_si512,
    };
    let stride = q.len() * 2 * SCREEN_LANES;
    assert_eq!(blocks.len(), N * stride, "8-bit block size");
    let mut acc = [_mm512_setzero_si512(); N];
    for (p, &pair) in q.iter().enumerate() {
        let pair = _mm512_set1_epi32(pair);
        for (k, a) in acc.iter_mut().enumerate() {
            // SAFETY: pair `p` of block `k` is the 32 bytes at
            // `k * stride + 32 p`, inside `blocks` (asserted above) since
            // `p < q.len()`; `loadu` needs no alignment.
            let r = unsafe { _mm256_loadu_si256(blocks.as_ptr().add(k * stride + 32 * p).cast()) };
            *a = _mm512_add_epi32(*a, _mm512_madd_epi16(_mm512_cvtepi8_epi16(r), pair));
        }
    }
    acc.map(|a| _mm512_reduce_max_epi32(a))
}

/// The tops of the `N` consecutive blocks in `blocks` with AVX2: as
/// [`avx512_tops`] on 256 bits, lanes 0–7 and 8–15 of each pair as two
/// 16-byte loads.
///
/// # Safety
///
/// The CPU must support AVX2.
///
/// # Panics
///
/// Panics if `blocks` does not hold `N` blocks of `32 * q.len()` bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_tops<const N: usize>(blocks: &[i8], q: &[i32]) -> [i32; N] {
    use std::arch::x86_64::{
        _mm256_add_epi32, _mm256_castsi256_si128, _mm256_cvtepi8_epi16, _mm256_extracti128_si256,
        _mm256_madd_epi16, _mm256_max_epi32, _mm256_set1_epi32, _mm256_setzero_si256,
        _mm_cvtsi128_si32, _mm_loadu_si128, _mm_max_epi32, _mm_shuffle_epi32,
    };
    let stride = q.len() * 2 * SCREEN_LANES;
    assert_eq!(blocks.len(), N * stride, "8-bit block size");
    let mut acc = [[_mm256_setzero_si256(); 2]; N];
    for (p, &pair) in q.iter().enumerate() {
        let pair = _mm256_set1_epi32(pair);
        for (k, halves) in acc.iter_mut().enumerate() {
            for (h, a) in halves.iter_mut().enumerate() {
                // SAFETY: lanes `8h` to `8h + 7` of pair `p` of block `k`
                // are the 16 bytes at `k * stride + 32 p + 16 h`, inside
                // `blocks` (asserted above); `loadu` needs no alignment.
                let at = k * stride + 32 * p + 16 * h;
                let r = unsafe { _mm_loadu_si128(blocks.as_ptr().add(at).cast()) };
                *a = _mm256_add_epi32(*a, _mm256_madd_epi16(_mm256_cvtepi8_epi16(r), pair));
            }
        }
    }
    acc.map(|[lo, hi]| {
        let m = _mm256_max_epi32(lo, hi);
        let m = _mm_max_epi32(_mm256_castsi256_si128(m), _mm256_extracti128_si256(m, 1));
        let m = _mm_max_epi32(m, _mm_shuffle_epi32(m, 0b01_00_11_10));
        let m = _mm_max_epi32(m, _mm_shuffle_epi32(m, 0b10_11_00_01));
        _mm_cvtsi128_si32(m)
    })
}

/// The 8-bit pass's kernel on this CPU, by name: `"avx512bw"` or
/// `"avx2"`, picked once per process from the CPU's detected features,
/// or `"none"` when the CPU has neither and every block goes to the
/// 16-bit screen. That screen is SSE2 on every x86-64 CPU and the scalar
/// fold elsewhere.
pub fn screen_kernel() -> &'static str {
    ByteKernel::detect().map_or("none", ByteKernel::name)
}

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
        query_into::<FIXED_ONE>(q, &mut self.pairs);
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
    rows: FixedRows<i16>,
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
        block_scores(self.rows.block(b), &q.pairs)
    }
}

/// The rows a [`ScreenedRows::screen`] passed, with the buffers the
/// screen reuses: a caller that keeps one `Candidates` across calls
/// screens without allocating once the buffers have grown.
#[derive(Debug, Clone, Default)]
pub struct Candidates {
    /// The query at scale `S`, as [`query_into`] packs it.
    query: Vec<i32>,
    /// The query at scale `S₈`, packed the same way, for the 8-bit pass.
    byte_query: Vec<i32>,
    /// Each block's 8-bit top, from the last screen's 8-bit pass.
    tops: Vec<i32>,
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

/// The least 8-bit top a block needs to be re-scored in 16 bits against
/// the running floor `floor`, for 16-bit and 8-bit error bounds `bound`
/// and `byte_bound` (`i32::MIN` re-scores every block).
/// [`ScreenedRows::screen`]'s 8-bit test skips a block of top `t` iff `f`
/// lies in `(−S², S²]` and `S² (max(t, −S₈²) + B₈) + S₈² B < S₈² f`, that
/// is iff `S² max(t, −S₈²) < R := S₈² (f − B) − S² B₈`, which for an
/// integer `t` is `max(t, −S₈²) < ⌈R / S²⌉`.
fn least_byte_top(floor: i64, bound: i64, byte_bound: i64) -> i32 {
    if floor <= -FIXED_ONE_SQ || floor > FIXED_ONE_SQ {
        return i32::MIN;
    }
    // `⌈R / S²⌉ = −⌊−R / S²⌋`; every term stays below `2^50`.
    let least =
        -(BYTE_ONE_SQ * (bound - floor) + FIXED_ONE_SQ * byte_bound).div_euclid(FIXED_ONE_SQ);
    if least > -BYTE_ONE_SQ {
        i32::try_from(least).expect("at most S₈²")
    } else {
        i32::MIN
    }
}

/// What the [`ScreenedRows::screen`] calls on one thread have done, as
/// counts: screens run, blocks screened (each scored in 8 bits first
/// when the CPU has a kernel for it), and the blocks among those that the
/// 16-bit screen re-scored. Read with [`screen_tally`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenTally {
    /// Screens run.
    pub screens: u64,
    /// Blocks screened.
    pub blocks: u64,
    /// Blocks re-scored in 16 bits.
    pub rescreened: u64,
}

thread_local! {
    static TALLY: Cell<ScreenTally> = const {
        Cell::new(ScreenTally { screens: 0, blocks: 0, rescreened: 0 })
    };
}

/// The calling thread's [`ScreenTally`] since the thread started; the
/// difference of two readings counts the screens between them.
pub fn screen_tally() -> ScreenTally {
    TALLY.with(Cell::get)
}

/// The same rows stored three times, as exact f64 [`LaneRows`] and as
/// 16-bit and 8-bit fixed-point screen copies, kept in step:
/// [`ScreenedRows::push`] and [`ScreenedRows::set`] write all three. Rows
/// and queries are meant to have Euclidean norm at most `1 + 2^-30` (unit
/// or zero vectors, such as normalized embeddings). At 64 components a
/// row takes 512 bytes in f64, 128 in 16 bits and 64 in 8 bits.
///
/// Two exact probes store their rows here and share
/// [`ScreenedRows::screen`]: the cache's flat index, through
/// [`ScreenedRows::nearest`] (re-scored in slot order, seeded with the
/// hit floor when it has one), and the fleet's affinity leader table,
/// which seeds the screen with its join threshold
/// ([`ScreenedRows::seed_for`]) and re-scores the candidates in its own
/// admission order.
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
/// let best = rows.nearest(&[0.0, 1.0], |slot| slot != 2, i64::MIN, &mut Candidates::new());
/// assert_eq!(best, Some((1, 0.8)));
/// // Seeded at 0.9, no live row qualifies.
/// let seed = rows.seed_for(0.9);
/// assert_eq!(rows.nearest(&[0.0, 1.0], |slot| slot != 2, seed, &mut Candidates::new()), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScreenedRows {
    exact: LaneRows,
    screen: FixedRows<i16>,
    bytes: FixedRows<i8>,
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

    /// Appends `row` to all three copies and returns its slot.
    ///
    /// # Panics
    ///
    /// As [`LaneRows::push`].
    pub fn push(&mut self, row: &[f64]) -> usize {
        let slot = self.exact.push(row);
        self.screen.set(slot, row);
        self.bytes.set(slot, row);
        slot
    }

    /// Overwrites slot `slot` in all three copies.
    ///
    /// # Panics
    ///
    /// As [`LaneRows::set`].
    pub fn set(&mut self, slot: usize, row: &[f64]) {
        self.exact.set(slot, row);
        self.screen.set(slot, row);
        self.bytes.set(slot, row);
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
    /// 16-bit integer score reaches `max(seed, min(m, S²) − 2B)`, where
    /// `m` is the largest 16-bit score of a live row, `S = 32767` and `B`
    /// is [`fixed_screen_error_bound`]. `live(slot)` says whether a slot
    /// is live; it is asked only about slots of blocks that are scored
    /// lane by lane. Pass `i64::MIN` as `seed` for no seed.
    ///
    /// What the candidates guarantee: write `I` for a row's 16-bit
    /// integer score, `Î` for it clamped to `[−S², S²]`, and `c` for an
    /// f64 score of the row, clamped to `[-1, 1]`, with `|Î − S² c| <= B`,
    /// and likewise `|Î₈ − S₈² c| <= B₈` for its 8-bit score `I₈` clamped
    /// to `[−S₈², S₈²]`, `S₈ = 127` and `B₈` the
    /// [`byte_screen_error_bound`]. The clamped f64 dot from
    /// [`LaneRows::slot_dot`] is such a score when the rows and `q` have
    /// Euclidean norm at most `1 + 2^-30` (see
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
    /// that clears the final floor cleared it when seen. A block none of
    /// whose lanes reaches the running floor is skipped without asking
    /// `live`: none of its lanes could clear the final floor, and none
    /// could raise it, since a lane below the floor lifts
    /// `min(m, S²) − 2B` to less than itself. Two tests find such blocks.
    ///
    /// 1. **The 8-bit pass.** One kernel call first scores every block in
    ///    8 bits and keeps its top `t`, the largest of its lanes (dead and
    ///    padding lanes included). While the running floor `f` lies in
    ///    `(−S², S²]`, block `b` is skipped without a 16-bit look iff
    ///    `S² (max(t, −S₈²) + B₈) + S₈² B < S₈² f`. Every lane of it has
    ///    `I₈ <= t`, so `S₈² c <= Î₈ + B₈ <= max(t, −S₈²) + B₈`, and then
    ///    `S₈² Î <= S₈² (S² c + B) <= S² (max(t, −S₈²) + B₈) + S₈² B`,
    ///    which is below `S₈² f`: `Î < f <= S²`, so `I < f` too. A CPU
    ///    without a wide 8-bit kernel ([`screen_kernel`] is `"none"`)
    ///    skips this test.
    /// 2. **The 16-bit top.** A block that passes is scored in 16 bits,
    ///    and skipped if its largest lane is below `f`.
    ///
    /// The block of the largest 8-bit top is visited first, and the rest
    /// in order: the final floor, and so the candidates, do not depend on
    /// the order, and an early high floor rules out more blocks. Each
    /// screen adds to the calling thread's [`screen_tally`].
    ///
    /// # Panics
    ///
    /// Panics if rows are stored and `q`'s length differs from theirs,
    /// or if their length exceeds [`MAX_SCREEN_DIM`].
    pub fn screen(&self, q: &[f64], live: impl Fn(usize) -> bool, seed: i64, out: &mut Candidates) {
        self.screen_with(ByteKernel::detect(), q, live, seed, out);
    }

    /// [`ScreenedRows::screen`] with the 8-bit pass run by `kernel`, or
    /// skipped with `None`: every block then goes to the 16-bit screen.
    fn screen_with(
        &self,
        kernel: Option<ByteKernel>,
        q: &[f64],
        live: impl Fn(usize) -> bool,
        seed: i64,
        out: &mut Candidates,
    ) {
        assert!(
            self.exact.is_empty() || q.len() == self.dim(),
            "query dimension mismatch: {} vs {}",
            q.len(),
            self.dim()
        );
        let bound = fixed_screen_error_bound(self.dim());
        let byte_bound = byte_screen_error_bound(self.dim());
        // Rows whose clamped integer score reaches `min(m, S²) − 2B`, for
        // the running maximum `m`. A floor at or below −S² admits every
        // row, whatever its unclamped score.
        let floor_of = |m: i64| {
            let floor = m.min(FIXED_ONE_SQ) - 2 * bound;
            if floor > -FIXED_ONE_SQ {
                floor.max(seed)
            } else {
                seed
            }
        };
        query_into::<FIXED_ONE>(q, &mut out.query);
        out.tops.clear();
        out.tops.resize(self.len().div_ceil(SCREEN_LANES), i32::MAX);
        if let Some(kernel) = kernel {
            query_into::<BYTE_ONE>(q, &mut out.byte_query);
            kernel.block_tops(&self.bytes.data, &out.byte_query, &mut out.tops);
        }
        out.hits.clear();
        let mut m = i64::MIN;
        let mut floor = seed;
        let mut least = least_byte_top(floor, bound, byte_bound);
        let mut rescreened = 0;
        // The block of the largest 8-bit top goes first: it most likely
        // holds the best row, and the floor it sets rules out more of the
        // rest. When even that top is under the seed's floor, so is every
        // block's, and the floor only rises: nothing is re-scored.
        let max_top = out.tops.iter().copied().max().unwrap_or(i32::MIN);
        let lead = out.tops.iter().position(|&t| t == max_top).unwrap_or(0);
        let visits = if max_top < least { 0 } else { out.tops.len() };
        let order = std::iter::once(lead).chain((0..out.tops.len()).filter(|&b| b != lead));
        for b in order.take(visits) {
            if out.tops[b] < least {
                continue;
            }
            rescreened += 1;
            let scores = block_scores(self.screen.block(b), &out.query);
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
                    least = least_byte_top(floor, bound, byte_bound);
                }
                if s >= floor {
                    out.hits.push((slot, s));
                }
            }
        }
        out.hits.retain(|&(_, s)| s >= floor);
        if lead > 0 {
            out.hits.sort_unstable_by_key(|&(slot, _)| slot);
        }
        TALLY.with(|tally| {
            let t = tally.get();
            tally.set(ScreenTally {
                screens: t.screens + 1,
                blocks: t.blocks + out.tops.len() as u64,
                rescreened: t.rescreened + rescreened,
            });
        });
    }

    /// The live slot with the highest f64 score against `q`, and that
    /// score, clamped to `[-1, 1]`: the first strict maximum in slot
    /// order, whenever its score reaches the one `seed` was made for
    /// ([`ScreenedRows::seed_for`]; pass `i64::MIN` for no seed). When no
    /// live slot reaches it, the answer is `None` or a slot scoring below
    /// it. `live(slot)` says whether a slot is live; dead slots are never
    /// scored into the answer. `None` when no slot is live.
    ///
    /// Runs [`ScreenedRows::screen`], then re-scores the candidates in
    /// slot order with [`LaneRows::slot_dot`] from `0.0`. The answer is
    /// bit-identical to clamping every live lane of
    /// `exact().block_dots(q, 0.0)` and keeping the first strict maximum,
    /// provided every row is finite and every live row's 16-bit and 8-bit
    /// integer scores, clamped to `[−S², S²]` and `[−S₈², S₈²]`, are within
    /// [`fixed_screen_error_bound`] and [`byte_screen_error_bound`] of
    /// `S²` and `S₈²` times its clamped f64 score (`S = 32767`,
    /// `S₈ = 127`). That holds when the rows and `q` have Euclidean norm
    /// at most `1 + 2^-30`, and for rows whose integer and f64 scores all
    /// clamp to the same end of the range. The screen runs in
    /// `candidates`' buffers: a caller that keeps one `Candidates` across
    /// probes allocates nothing once they have grown.
    ///
    /// # Panics
    ///
    /// As [`ScreenedRows::screen`].
    pub fn nearest(
        &self,
        q: &[f64],
        live: impl Fn(usize) -> bool,
        seed: i64,
        candidates: &mut Candidates,
    ) -> Option<(usize, f64)> {
        self.screen(q, live, seed, candidates);
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
        query_into::<FIXED_ONE>(q, &mut out);
        out
    }

    /// The 16-bit scores of every block of `rows` against the packed
    /// query `qi`, block by block, padding lanes included.
    fn block_scores_of(rows: &ScreenedRows, qi: &[i32]) -> Vec<i32> {
        (0..rows.len().div_ceil(SCREEN_LANES))
            .flat_map(|b| block_scores(rows.screen.block(b), qi))
            .collect()
    }

    /// `q` at the 8-bit scale, packed as the 8-bit pass reads it.
    fn byte_packed(q: &[f64]) -> Vec<i32> {
        let mut out = Vec::new();
        query_into::<BYTE_ONE>(q, &mut out);
        out
    }

    /// The 8-bit scores of every block of `rows` against `q`, by the
    /// scalar fold, block by block, padding lanes included.
    fn byte_scores_of(rows: &ScreenedRows, q: &[f64]) -> Vec<i32> {
        let qi = byte_packed(q);
        (0..rows.len().div_ceil(SCREEN_LANES))
            .flat_map(|b| block_scores_scalar(rows.bytes.block(b), &qi))
            .collect()
    }

    /// Each 8-bit block's top against `q`, by the scalar fold.
    fn reference_tops(rows: &ScreenedRows, q: &[f64]) -> Vec<i32> {
        byte_scores_of(rows, q)
            .chunks(SCREEN_LANES)
            .map(|lanes| lanes.iter().copied().max().expect("sixteen lanes"))
            .collect()
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

    /// Largest `|integer score − S² · f64 score| / bound` over every pair
    /// of `rows` (each also used as a query): at the 16-bit scale against
    /// [`fixed_screen_error_bound`], or with `byte` at the 8-bit one
    /// against [`byte_screen_error_bound`].
    fn worst_ratio(rows: &[Vec<f64>], byte: bool) -> f64 {
        let dim = rows[0].len();
        let store = screened(&rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let (scale_sq, bound) = if byte {
            (BYTE_ONE_SQ, byte_screen_error_bound(dim))
        } else {
            (FIXED_ONE_SQ, fixed_screen_error_bound(dim))
        };
        let mut worst: f64 = 0.0;
        for q in rows {
            let wide = store.exact.block_dots(q, 0.0).flatten();
            let fixed = if byte {
                byte_scores_of(&store, q)
            } else {
                block_scores_of(&store, &packed(q))
            };
            for (d, s) in wide.zip(fixed).take(rows.len()) {
                let error = (f64::from(s) - d * scale_sq as f64).abs();
                worst = worst.max(error / bound as f64);
            }
        }
        worst
    }

    /// The error-bound test at either scale: random unit rows and the
    /// zero row must stay inside the bound and come within 100x of it,
    /// and so must rows built to round in lockstep.
    fn check_error_bound(byte: bool) {
        let mut seed = 0x5EED;
        for dim in [1, 3, 64, 512] {
            let mut rows: Vec<Vec<f64>> = (0..128).map(|_| unit(dim, &mut seed)).collect();
            rows.push(vec![0.0; dim]);
            let worst = worst_ratio(&rows, byte);
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
            let worst = worst_ratio(&[alternating, flat], byte);
            assert!(worst <= 1.0, "dim {dim}: error {worst} x the bound");
        }
    }

    #[test]
    fn fixed_screen_error_bound_holds_and_is_not_loose() {
        check_error_bound(false);
    }

    #[test]
    fn byte_screen_error_bound_holds_and_is_not_loose() {
        check_error_bound(true);
        assert_eq!(byte_screen_error_bound(64), 1_033);
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
            let screened = block_scores_of(&rows, &packed(&q));
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
        assert_eq!(quantize::<FIXED_ONE>(-2.0), -FIXED_ONE);
        assert_eq!(quantize::<BYTE_ONE>(-2.0), -BYTE_ONE);
        assert_eq!(quantize::<FIXED_ONE>(2.0), FIXED_ONE);
        assert_eq!(quantize::<BYTE_ONE>(2.0), BYTE_ONE);
        // Both components of query and row saturate: the pair sum is
        // 2 S², just inside i32, and the row must still win.
        let mut rows = ScreenedRows::new();
        rows.push(&[-2.0, -2.0]);
        rows.push(&[0.0, 0.0]);
        assert_eq!(
            rows.nearest(&[-2.0, -2.0], |_| true, i64::MIN, &mut Candidates::new()),
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
        block_scores_of(rows, &qi).into_iter().take(n).collect()
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
            pair.nearest(&q, |_| true, i64::MIN, &mut Candidates::new()),
            Some((1, high))
        );
        let swapped = screened(&[&up, &r]);
        assert_eq!(
            swapped.nearest(&q, |_| true, i64::MIN, &mut Candidates::new()),
            Some((0, high))
        );
        let twins = screened(&[&r, &r]);
        assert_eq!(
            twins.nearest(&q, |_| true, i64::MIN, &mut Candidates::new()),
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
            screened(&[&base, &near]).nearest(&q, |_| true, i64::MIN, &mut Candidates::new()),
            Some((0, best))
        );
        assert_eq!(
            screened(&[&near, &base]).nearest(&q, |_| true, i64::MIN, &mut Candidates::new()),
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
        assert_eq!(
            store.nearest(&q, |s| live[s], i64::MIN, &mut Candidates::new()),
            want
        );
        // With block 1 live too, it still cannot win: same answer.
        let live: Vec<bool> = (0..rows.len()).map(|s| s != 0).collect();
        assert_eq!(
            store.nearest(&q, |s| live[s], i64::MIN, &mut Candidates::new()),
            want
        );
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
            store.nearest(&q, |_| true, i64::MIN, &mut Candidates::new()),
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
            rows.nearest(&[c, c], |_| true, i64::MIN, &mut Candidates::new()),
            Some((0, 1.0))
        );
        // The same at the bottom, where the floor falls below −S².
        let mut rows = ScreenedRows::new();
        rows.push(&[-1.0, -1.0]);
        rows.push(&[-0.75, -0.75]);
        assert_eq!(
            rows.nearest(&[c, c], |_| true, i64::MIN, &mut Candidates::new()),
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
            rows.nearest(&[1.0, 0.0], |_| true, i64::MIN, &mut Candidates::new()),
            Some((0, 1.0))
        );
        // The same at the bottom: -2.0 and -1.5 both clamp to -1.0.
        let mut rows = ScreenedRows::new();
        rows.push(&[-2.0, 0.0]);
        rows.push(&[-1.5, 0.0]);
        assert_eq!(
            rows.nearest(&[1.0, 0.0], |_| true, i64::MIN, &mut Candidates::new()),
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
                let screened = rows.nearest(q, |s| live[s], i64::MIN, &mut Candidates::new());
                assert_eq!(
                    screened.map(|(s, x)| (s, x.to_bits())),
                    full.map(|(s, x)| (s, x.to_bits())),
                    "dim {dim}"
                );
            }
            assert_eq!(
                rows.nearest(&stored[0], |_| false, i64::MIN, &mut Candidates::new()),
                None
            );
        }
    }

    #[test]
    fn byte_kernels_match_the_scalar_fold() {
        let kernels = ByteKernel::available();
        assert_eq!(
            screen_kernel(),
            kernels.first().map_or("none", |k| k.name())
        );
        let s = f64::from(BYTE_ONE);
        let mut seed = 0xB17E;
        // Rows and queries of the given integers (`k / S₈` quantizes back
        // to `k`).
        type Pattern = fn(usize, usize, &mut u64) -> i16;
        let patterns: [Pattern; 5] = [
            |_, _, seed| (next(seed) % 255) as i16 - BYTE_ONE,
            |_, _, _| BYTE_ONE,
            |_, _, _| -BYTE_ONE,
            |slot, d, _| {
                if (slot + d) % 2 == 0 {
                    BYTE_ONE
                } else {
                    -BYTE_ONE
                }
            },
            |slot, d, seed| {
                if (slot * 7 + d) % 3 == 0 {
                    0
                } else {
                    (next(seed) % 255) as i16 - BYTE_ONE
                }
            },
        ];
        // Odd and even row lengths, and row counts that leave
        // partial last blocks and groups of in-flight blocks with a tail.
        for dim in [1, 2, 3, 5, 63, 64, 129] {
            for count in [1, 16, 37, 64, 70, 150] {
                for (p, pattern) in patterns.iter().enumerate() {
                    let ints = |slot: usize, seed: &mut u64| -> Vec<f64> {
                        (0..dim)
                            .map(|d| f64::from(pattern(slot, d, seed)) / s)
                            .collect()
                    };
                    let mut rows = ScreenedRows::new();
                    for slot in 0..count {
                        rows.push(&ints(slot, &mut seed));
                    }
                    for query in 0..3 {
                        let q = ints(1_000 + query, &mut seed);
                        let want = reference_tops(&rows, &q);
                        assert_eq!(want.len(), count.div_ceil(SCREEN_LANES));
                        for &kernel in &kernels {
                            let mut tops = vec![0; want.len()];
                            kernel.block_tops(&rows.bytes.data, &byte_packed(&q), &mut tops);
                            assert_eq!(
                                tops,
                                want,
                                "{}: dim {dim}, {count} rows, pattern {p}",
                                kernel.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn least_byte_top_is_the_skip_rule_solved_for_the_top() {
        let (sq, byte_sq) = (FIXED_ONE_SQ, BYTE_ONE_SQ);
        let mut seed = 0xF100;
        for dim in [1, 3, 64, 512] {
            let (bound, byte_bound) = (fixed_screen_error_bound(dim), byte_screen_error_bound(dim));
            let skips = |top: i64, floor: i64| {
                floor > -sq
                    && floor <= sq
                    && sq * (top.max(-byte_sq) + byte_bound) + byte_sq * bound < byte_sq * floor
            };
            let edges = [i64::MIN, -sq - 1, -sq, -sq + 1, 0, sq - 1, sq, sq + 1];
            for k in 0..4_000 {
                let floor = match k % 3 {
                    0 => edges[k % edges.len()],
                    _ => (next(&mut seed) % (4 * sq as u64)) as i64 - 2 * sq,
                };
                let least = least_byte_top(floor, bound, byte_bound);
                let random = (next(&mut seed) % (4 * byte_sq as u64)) as i64 - 2 * byte_sq;
                let near = i64::from(least).clamp(-3 * byte_sq, 3 * byte_sq);
                for top in [random, near - 1, near, near + 1, -byte_sq - 1, -byte_sq] {
                    assert_eq!(
                        top < i64::from(least),
                        skips(top, floor),
                        "dim {dim}, top {top}, floor {floor}"
                    );
                }
            }
        }
    }

    /// `q` plus `spread` times a random unit direction, normalized: its
    /// cosine to `q` falls as `spread` grows.
    fn near(q: &[f64], spread: f64, seed: &mut u64) -> Vec<f64> {
        let noise = unit(q.len(), seed);
        let mut v: Vec<f64> = q.iter().zip(&noise).map(|(x, n)| x + spread * n).collect();
        crate::vector::normalize(&mut v);
        v
    }

    /// What a screen with no 8-bit pass and no skipped block leaves: the
    /// final floor, and every live row whose 16-bit score reaches it, in
    /// slot order.
    fn unskipped_candidates(
        rows: &ScreenedRows,
        q: &[f64],
        live: &[bool],
        seed: i64,
    ) -> (i64, Vec<usize>) {
        let window = 2 * fixed_screen_error_bound(rows.dim());
        let scores = fixed_scores(rows, q);
        let m = (0..rows.len())
            .filter(|&slot| live[slot])
            .map(|slot| i64::from(scores[slot]))
            .max();
        let floor = match m.map(|m| m.min(FIXED_ONE_SQ) - window) {
            Some(floor) if floor > -FIXED_ONE_SQ => floor.max(seed),
            _ => seed,
        };
        let slots = (0..rows.len())
            .filter(|&slot| live[slot] && i64::from(scores[slot]) >= floor)
            .collect();
        (floor, slots)
    }

    #[test]
    fn the_byte_pass_skips_no_block_the_16_bit_screen_would_keep() {
        let mut seed = 0x5C1F;
        let dim = 64;
        let (bound, byte_bound) = (fixed_screen_error_bound(dim), byte_screen_error_bound(dim));
        let (mut blocks, mut rescreened) = (0, 0);
        for trial in 0..48 {
            let q = unit(dim, &mut seed);
            let count = 1 + (next(&mut seed) % 300) as usize;
            // Rows from near-copies of the query to unrelated directions.
            let spread = [0.02, 0.3, 1.0, 8.0][trial % 4];
            let rows: Vec<Vec<f64>> = (0..count).map(|_| near(&q, spread, &mut seed)).collect();
            let store = screened(&rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
            let live: Vec<bool> = (0..count)
                .map(|_| !next(&mut seed).is_multiple_of(5))
                .collect();
            let scores = fixed_scores(&store, &q);
            let tops = reference_tops(&store, &q);
            for threshold in [None, Some(-0.5), Some(0.3), Some(0.8), Some(0.97)] {
                let seed_score = threshold.map_or(i64::MIN, |t| store.seed_for(t));
                let (floor, want) = unskipped_candidates(&store, &q, &live, seed_score);
                // Every kernel this CPU runs, and no 8-bit pass at all.
                let kernels = ByteKernel::available().into_iter().map(Some);
                for kernel in kernels.chain([None]) {
                    let before = screen_tally();
                    let mut out = Candidates::new();
                    store.screen_with(kernel, &q, |slot| live[slot], seed_score, &mut out);
                    let after = screen_tally();
                    if kernel.is_some() {
                        blocks += after.blocks - before.blocks;
                        rescreened += after.rescreened - before.rescreened;
                    } else {
                        assert_eq!(after.rescreened - before.rescreened, tops.len() as u64);
                    }
                    let name = kernel.map_or("none", |k| k.name());
                    let got: Vec<usize> = out.slots().collect();
                    assert_eq!(got, want, "trial {trial}, kernel {name}");
                }
                // The bound behind every skip: at the final floor (the
                // running one only rises to it), no block the 8-bit test
                // rules out holds a live lane whose clamped 16-bit score
                // reaches the floor.
                let least = least_byte_top(floor, bound, byte_bound);
                for (b, _) in tops.iter().enumerate().filter(|&(_, &t)| t < least) {
                    for slot in (b * SCREEN_LANES..count).take(SCREEN_LANES) {
                        let clamped = i64::from(scores[slot]).clamp(-FIXED_ONE_SQ, FIXED_ONE_SQ);
                        assert!(
                            !live[slot] || clamped < floor,
                            "trial {trial}: block {b} skipped past slot {slot}"
                        );
                    }
                }
            }
        }
        // The skips are exercised: near-copies of the query rule out
        // nothing, unrelated rows nearly everything.
        assert!(
            ByteKernel::available().is_empty() || blocks - rescreened > blocks / 5,
            "{rescreened} of {blocks} re-screened"
        );
    }

    #[test]
    fn near_tie_sets_match_the_full_f64_scan_seeded_and_unseeded() {
        let mut seed = 0x071E_55E7;
        let dim = 64;
        let q = unit(dim, &mut seed);
        // 1,600 rows within 0.05 cosine of each other, all near the query.
        let base = near(&q, 0.3, &mut seed);
        let mut rows: Vec<Vec<f64>> = (0..1_600).map(|_| near(&base, 0.1, &mut seed)).collect();
        // The best live row, duplicated in three blocks: the first wins.
        let best_row = near(&q, 0.25, &mut seed);
        for slot in [35, 700, 1_599] {
            rows[slot] = best_row.clone();
        }
        // Dead lanes carrying high stale scores: copies of the query, in
        // the blocks of live rows and in a block of their own.
        let dead: Vec<usize> = [0, 17, 36, 702].into_iter().chain(400..416).collect();
        for &slot in &dead {
            rows[slot] = q.clone();
        }
        let live: Vec<bool> = (0..rows.len()).map(|slot| !dead.contains(&slot)).collect();
        let store = screened(&rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let dots: Vec<f64> = (0..rows.len())
            .filter(|&slot| live[slot])
            .map(|slot| store.exact().slot_dot(slot, &q, 0.0))
            .collect();
        let spread = dots.iter().fold(f64::MIN, |a, &b| a.max(b))
            - dots.iter().fold(f64::MAX, |a, &b| a.min(b));
        assert!(spread < 0.05, "rows spread over {spread} of cosine");
        let want = full_scan(&store, &q, &live);
        assert_eq!(want.map(|(slot, _)| slot), Some(35));
        let best = want.expect("live rows").1;
        let mut candidates = Candidates::new();
        let live_slot = |slot: usize| live[slot];
        assert_eq!(
            store.nearest(&q, live_slot, i64::MIN, &mut candidates),
            want
        );
        for t in [
            -1.0,
            best - 0.04,
            best - 1e-9,
            best,
            best.next_up(),
            best + 0.01,
        ] {
            let got = store.nearest(&q, live_slot, store.seed_for(t), &mut candidates);
            if best >= t {
                assert_eq!(got, want, "seeded at {t}");
            } else {
                assert!(got.is_none_or(|(_, sim)| sim < t), "seeded at {t}: {got:?}");
            }
        }
        // With every lane live, the first copy of the query wins.
        let all = full_scan(&store, &q, &vec![true; rows.len()]);
        assert_eq!(all.map(|(slot, _)| slot), Some(0));
        assert_eq!(store.nearest(&q, |_| true, i64::MIN, &mut candidates), all);
        let seed = store.seed_for(0.99);
        assert_eq!(store.nearest(&q, |_| true, seed, &mut candidates), all);
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
