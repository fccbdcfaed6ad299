//! Lane-blocked row storage, the exact batched dot-product kernel
//! behind every flat f64 similarity scan, and the f32 screen that lets
//! the exact nearest-row search read half the bytes.
//!
//! A flat scan scores one query against many stored rows. Stored
//! row-major, each dot product is one serial chain of dependent adds, so
//! the scan runs at the latency of one add per component per row.
//! [`BlockedRows`] interleaves `L` rows per block instead: slot `s` lives
//! in block `s / L`, lane `s % L`, and component `d` of it sits at
//! `block * dim * L + d * L + lane`. [`BlockedRows::block_dots`] then
//! scores a whole block with `L` independent accumulators, which the
//! compiler turns into vector multiplies and adds. [`LaneRows`] is the f64
//! layout ([`LANES`] = 8 lanes), [`LaneRows32`] the f32 one ([`LANES32`] =
//! 16 lanes: the same register width, twice the rows).
//!
//! The f64 results are exact, not approximate: each lane still computes
//! `init + q[0] * r[0] + q[1] * r[1] + ...` left to right, with a separate
//! multiply and add, so every score is the same f64 a serial fold from
//! `init` produces.
//!
//! [`ScreenedRows`] keeps both layouts of the same rows and finds the
//! best-scoring row in two steps. It screens every row in f32, which reads
//! half the bytes of the f64 scan, and keeps the f32 maximum. It then
//! re-scores in f64, with [`BlockedRows::slot_dot`] and in slot order,
//! only the rows whose f32 score is within twice [`screen_error_bound`]
//! of that maximum. No f32 score is further than the bound from its f64
//! score, so the row an all-f64 scan would pick is always among those
//! re-scored, and the answer is bit for bit the full scan's.

use std::ops::{Add, Mul};

/// Rows per f64 block, and accumulators per kernel call.
pub const LANES: usize = 8;

/// Rows per f32 block: the register width of [`LANES`] f64 lanes.
pub const LANES32: usize = 16;

/// A component type [`BlockedRows`] can store and score.
pub trait Lane: Copy + Default + Add<Output = Self> + Mul<Output = Self> {
    /// `x` rounded to the nearest value of this type.
    fn narrow(x: f64) -> Self;
}

impl Lane for f64 {
    fn narrow(x: f64) -> Self {
        x
    }
}

impl Lane for f32 {
    fn narrow(x: f64) -> Self {
        x as f32
    }
}

/// Equal-length f64 rows, eight lanes per block: the exact kernel.
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
pub type LaneRows = BlockedRows<f64, LANES>;

/// Equal-length f32 rows, sixteen lanes per block: the screening kernel.
pub type LaneRows32 = BlockedRows<f32, LANES32>;

/// Equal-length rows of `T` in lane-blocked layout (`L` rows per block),
/// addressed by slot. Rows are pushed and set as f64 and stored rounded to
/// `T`.
///
/// The row length is learned from the first pushed row. Slots are never
/// removed; owners that retire rows overwrite them in place with
/// [`BlockedRows::set`] and skip dead slots themselves.
#[derive(Debug, Clone, Default)]
pub struct BlockedRows<T, const L: usize> {
    /// `L`-slot blocks of `dim * L` values each, component-major within a
    /// block. Lanes past the last slot are zero padding.
    data: Vec<T>,
    /// Row length; 0 until the first push.
    dim: usize,
    /// Slots in use.
    len: usize,
}

impl<T: Lane, const L: usize> BlockedRows<T, L> {
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

    /// Appends `row` as slot [`BlockedRows::len`] and returns that slot.
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
        if slot.is_multiple_of(L) {
            self.data
                .resize(self.data.len() + self.dim * L, T::default());
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
        for (col, &x) in self.columns_mut(slot / L).iter_mut().zip(row) {
            col[slot % L] = T::narrow(x);
        }
    }

    /// A copy of the row at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn row(&self, slot: usize) -> Vec<T> {
        assert!(slot < self.len, "slot {slot} out of range");
        self.columns(slot / L)
            .iter()
            .map(|col| col[slot % L])
            .collect()
    }

    /// Dot product of `q` with the row at `slot` alone: a serial fold from
    /// `init`, bit-identical to that slot's lane of
    /// [`BlockedRows::block_dots`]. Scoring a handful of rows this way
    /// skips the rest of their blocks.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or `q`'s length differs from the
    /// stored rows'.
    pub fn slot_dot(&self, slot: usize, q: &[T], init: T) -> T {
        assert!(slot < self.len, "slot {slot} out of range");
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        let lane = slot % L;
        q.iter()
            .zip(self.columns(slot / L))
            .fold(init, |acc, (&x, col)| acc + x * col[lane])
    }

    /// Block `b` as its `dim` component columns, one value per lane.
    fn columns(&self, b: usize) -> &[[T; L]] {
        let stride = self.dim * L;
        self.data[b * stride..][..stride].as_chunks().0
    }

    /// [`BlockedRows::columns`], writable.
    fn columns_mut(&mut self, b: usize) -> &mut [[T; L]] {
        let stride = self.dim * L;
        self.data[b * stride..][..stride].as_chunks_mut().0
    }

    /// Dot products of `q` with every row, one `[T; L]` per block: lane
    /// `l` of the `b`-th item scores slot `b * L + l`. Each score is
    /// bit-identical to `q.iter().zip(row).fold(init, |a, (x, y)| a + x * y)`.
    /// Lanes past the last slot score the zero padding and are the
    /// caller's to ignore (zipping with a `chunks(L)` view of
    /// slot-parallel data does this).
    ///
    /// # Panics
    ///
    /// Panics if rows are stored and `q`'s length differs from theirs.
    pub fn block_dots<'a>(&'a self, q: &'a [T], init: T) -> impl Iterator<Item = [T; L]> + 'a {
        assert!(
            self.len == 0 || q.len() == self.dim,
            "query dimension mismatch: {} vs {}",
            q.len(),
            self.dim
        );
        // `max(1)` only matters while empty, when `data` is too.
        self.data
            .chunks_exact(self.dim.max(1) * L)
            .map(move |block| {
                let (cols, _) = block.as_chunks::<L>();
                let mut acc = [init; L];
                for (&x, col) in q.iter().zip(cols) {
                    for (a, &y) in acc.iter_mut().zip(col) {
                        *a = *a + x * y;
                    }
                }
                acc
            })
    }
}

/// A bound on how far a [`LaneRows32`] score can fall from the
/// [`LaneRows`] score of the same row and query, when both are unit (or
/// zero) vectors of length `dim` held in f64: `(dim + 4) * f32::EPSILON`.
///
/// Write `n = dim`, `u = f32::EPSILON / 2` (f32 unit roundoff) and
/// `v = 2^-53` (f64's), and let `q`, `r` be the f64 query and row, with
/// `‖q‖, ‖r‖ <= 1 + 2^-30` (f64 normalization errs by about
/// `(n / 2 + 2) v`) and
/// `S = Σ|q_i r_i| <= ‖q‖ ‖r‖` (Cauchy–Schwarz). Both kernels fold left
/// to right with a separate rounding per multiply and per add, so the
/// standard recursive dot-product bound (Higham, *Accuracy and
/// Stability of Numerical Algorithms*, §3.1) applies, with
/// `γ_n(w) = n w / (1 − n w)`:
///
/// 1. Narrowing rounds each component to f32 with relative error at
///    most `u`, so the exact dot of the narrowed vectors is within
///    `(2u + u²) S` of the exact dot of `q` and `r`, and its absolute
///    terms sum to at most `(1 + u)² S`.
/// 2. The f32 fold is within `γ_n(u) (1 + u)² S` of that narrowed exact
///    dot.
/// 3. The f64 fold is within `γ_n(v) S` of the exact dot.
///
/// So `|f32 − f64| <= (γ_n(u) (1 + u)² + 2u + u² + γ_n(v)) S`. For
/// `n u <= 1/4` (`dim` up to 2^22) `γ_n(u) <= (4/3) n u`, and the sum is
/// below `(4/3) n u + 3u`, while the bound returned is `2 n u + 8u`. The
/// slack also covers `S`'s excess over 1 and f32 underflow, which moves a
/// component or product by at most 2^-150. Zero rows score exactly 0.0
/// in both kernels.
///
/// The worst case grows like `n u`; typical errors grow like `√n u`, so
/// the screen in [`ScreenedRows::nearest`] almost always re-scores only
/// the winner.
pub fn screen_error_bound(dim: usize) -> f64 {
    (dim + 4) as f64 * f64::from(f32::EPSILON)
}

/// The same rows stored twice, in [`LaneRows`] (exact) and [`LaneRows32`]
/// (screen) layout, kept in step: [`ScreenedRows::push`] and
/// [`ScreenedRows::set`] write both copies.
///
/// # Example
///
/// ```
/// use modm_numerics::lanes::ScreenedRows;
///
/// let mut rows = ScreenedRows::new();
/// rows.push(&[1.0, 0.0]);
/// rows.push(&[0.6, 0.8]);
/// rows.push(&[0.0, 1.0]);
/// // Slot 2 is dead; slot 1 is the best live row.
/// let best = rows.nearest(&[0.0, 1.0], [true, true, false]);
/// assert_eq!(best, Some((1, 0.8)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScreenedRows {
    exact: LaneRows,
    screen: LaneRows32,
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

    /// The f64 copy, for full exact scans ([`BlockedRows::block_dots`]).
    pub fn exact(&self) -> &LaneRows {
        &self.exact
    }

    /// Appends `row` to both copies and returns its slot.
    ///
    /// # Panics
    ///
    /// As [`BlockedRows::push`].
    pub fn push(&mut self, row: &[f64]) -> usize {
        self.screen.push(row);
        self.exact.push(row)
    }

    /// Overwrites slot `slot` in both copies.
    ///
    /// # Panics
    ///
    /// As [`BlockedRows::set`].
    pub fn set(&mut self, slot: usize, row: &[f64]) {
        self.screen.set(slot, row);
        self.exact.set(slot, row);
    }

    /// The live slot with the highest f64 score against `q`, and that
    /// score, clamped to `[-1, 1]`: the first strict maximum in slot
    /// order. `live` yields one flag per slot, in slot order; dead slots
    /// are never scored into the answer. `None` when no slot is live.
    ///
    /// The answer is bit-identical to clamping every live lane of
    /// `exact().block_dots(q, 0.0)` and keeping the first strict maximum,
    /// provided every row is finite and no row's f32 score is further than
    /// [`screen_error_bound`] from its f64 score. That holds for unit or
    /// zero rows and queries, and for any rows whose products and sums
    /// are exact in f32.
    ///
    /// Why: write `s` for a row's f32 score and `d` for its f64 one, and
    /// `ŝ`, `c` for them clamped to `[-1, 1]`. Clamping never widens a
    /// gap, so `|ŝ − c| <= B`. Let `m` be the largest `s` among live
    /// rows, from row `k`, and `j` the full scan's answer, so
    /// `c_j >= c_k`. Then `ŝ_j >= c_j − B >= c_k − B >= ŝ_k − 2B`, and
    /// `ŝ_k` is `m` clamped. Every row with `ŝ >= clamp(m) − 2B` is
    /// re-scored, `j` among them, and any other re-scored row either
    /// scores below `c_j` or ties it from a later slot. Clamping `m`
    /// matters: rows whose f64 dot rounds above 1.0 all clamp to 1.0 and
    /// tie, and a later one may lead the f32 screen by more than `2B`.
    ///
    /// # Panics
    ///
    /// Panics if rows are stored and `q`'s length differs from theirs.
    pub fn nearest(&self, q: &[f64], live: impl IntoIterator<Item = bool>) -> Option<(usize, f64)> {
        let q32: Vec<f32> = q.iter().map(|&x| x as f32).collect();
        let window = 2.0 * screen_error_bound(self.dim());
        // Rows whose clamped f32 score reaches `clamp(m) − window`, for
        // the running maximum `m`. A floor at or below −1 admits every
        // row, whatever its unclamped score.
        let floor_of = |m: f32| {
            let floor = f64::from(m).clamp(-1.0, 1.0) - window;
            if floor > -1.0 {
                floor
            } else {
                f64::NEG_INFINITY
            }
        };
        let mut m = f32::NEG_INFINITY;
        let mut floor = f64::NEG_INFINITY;
        // The running floor only rises, so every row that clears the
        // final one cleared it when seen.
        let mut candidates: Vec<(usize, f32)> = Vec::new();
        let mut live = live.into_iter().take(self.exact.len());
        let mut slot = 0;
        for scores in self.screen.block_dots(&q32, 0.0) {
            for (s, alive) in scores.into_iter().zip(live.by_ref()) {
                if alive {
                    if s > m {
                        m = s;
                        floor = floor_of(m);
                    }
                    if f64::from(s) >= floor {
                        candidates.push((slot, s));
                    }
                }
                slot += 1;
            }
        }
        let mut best: Option<(usize, f64)> = None;
        for (slot, s) in candidates {
            if f64::from(s) < floor {
                continue;
            }
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

    /// Largest `|f32 score − f64 score| / screen_error_bound(dim)` over
    /// every pair of `rows` (each also used as a query).
    fn worst_ratio(rows: &[Vec<f64>]) -> f64 {
        let dim = rows[0].len();
        let (mut exact, mut screen) = (LaneRows::new(), LaneRows32::new());
        for r in rows {
            exact.push(r);
            screen.push(r);
        }
        let mut worst: f64 = 0.0;
        for q in rows {
            let q32: Vec<f32> = q.iter().map(|&x| x as f32).collect();
            let wide = exact.block_dots(q, 0.0).flatten();
            let narrow = screen.block_dots(&q32, 0.0).flatten();
            for (d, s) in wide.zip(narrow).take(rows.len()) {
                worst = worst.max((f64::from(s) - d).abs() / screen_error_bound(dim));
            }
        }
        worst
    }

    #[test]
    fn screen_error_bound_holds_and_is_not_loose() {
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
        // product has the same magnitude and partial sums either grow in
        // lockstep (a row against itself) or cancel (against its flip).
        for dim in [3, 63, 64, 511, 512] {
            let c = 1.0 / (dim as f64).sqrt();
            let alternating: Vec<f64> = (0..dim).map(|d| if d % 2 == 0 { c } else { -c }).collect();
            let flat = vec![c; dim];
            let worst = worst_ratio(&[alternating, flat]);
            assert!(worst <= 1.0, "dim {dim}: error {worst} x the bound");
        }
    }

    #[test]
    fn screened_rows_keep_slot_order_among_clamped_ties() {
        // Rows past unit norm: f64 dots of 1.5 and 2.0 both clamp to 1.0
        // and tie, so slot 0 must win although slot 1 leads the f32 screen
        // by far more than twice the bound.
        let mut rows = ScreenedRows::new();
        rows.push(&[1.5, 0.0]);
        rows.push(&[2.0, 0.0]);
        assert_eq!(rows.nearest(&[1.0, 0.0], [true, true]), Some((0, 1.0)));
        // The same at the bottom: -2.0 and -1.5 both clamp to -1.0.
        let mut rows = ScreenedRows::new();
        rows.push(&[-2.0, 0.0]);
        rows.push(&[-1.5, 0.0]);
        assert_eq!(rows.nearest(&[1.0, 0.0], [true, true]), Some((0, -1.0)));
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
                let screened = rows.nearest(q, live.iter().copied());
                assert_eq!(
                    screened.map(|(s, x)| (s, x.to_bits())),
                    full.map(|(s, x)| (s, x.to_bits())),
                    "dim {dim}"
                );
            }
            assert_eq!(rows.nearest(&stored[0], vec![false; stored.len()]), None);
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
