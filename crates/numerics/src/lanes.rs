//! Lane-blocked row storage and the exact batched dot-product kernel
//! behind every flat f64 similarity scan.
//!
//! A flat scan scores one query against many stored rows. Stored
//! row-major, each dot product is one serial chain of dependent adds, so
//! the scan runs at the latency of one f64 add per component per row.
//! [`LaneRows`] interleaves [`LANES`] rows per block instead: slot `s`
//! lives in block `s / LANES`, lane `s % LANES`, and component `d` of it
//! sits at `block * dim * LANES + d * LANES + lane`. [`LaneRows::block_dots`]
//! then scores a whole block with `LANES` independent accumulators, which
//! the compiler turns into vector multiplies and adds.
//!
//! The results are exact, not approximate: each lane still computes
//! `init + q[0] * r[0] + q[1] * r[1] + ...` left to right, with a separate
//! multiply and add, so every score is the same f64 a serial fold from
//! `init` produces.

/// Rows per block, and accumulators per kernel call.
pub const LANES: usize = 8;

/// Equal-length f64 rows in lane-blocked layout, addressed by slot.
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
    /// `LANES`-slot blocks of `dim * LANES` values each, component-major
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
        let stride = self.dim * LANES;
        let (cols, _) = self.data[slot / LANES * stride..][..stride].as_chunks::<LANES>();
        cols.iter().map(|col| col[slot % LANES]).collect()
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
        let stride = self.dim * LANES;
        let (cols, _) = self.data[slot / LANES * stride..][..stride].as_chunks::<LANES>();
        let lane = slot % LANES;
        q.iter()
            .zip(cols)
            .fold(init, |acc, (&x, col)| acc + x * col[lane])
    }

    /// Block `b` as its `dim` component columns, one value per lane.
    fn columns_mut(&mut self, b: usize) -> &mut [[f64; LANES]] {
        let stride = self.dim * LANES;
        self.data[b * stride..][..stride].as_chunks_mut().0
    }

    /// Dot products of `q` with every row, one `[f64; LANES]` per block:
    /// lane `l` of the `b`-th item scores slot `b * LANES + l`. Each score
    /// is bit-identical to `q.iter().zip(row).fold(init, |a, (x, y)| a + x * y)`.
    /// Lanes past the last slot score the zero padding and are the
    /// caller's to ignore (zipping with a `chunks(LANES)` view of
    /// slot-parallel data does this).
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
