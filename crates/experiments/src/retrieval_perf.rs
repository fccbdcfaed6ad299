//! §5.2 "Performance of Cache Retrieval": retrieval latency and embedding
//! storage vs cache size.
//!
//! The paper reports 0.05 s to scan 100k cached embeddings on a GPU and
//! 0.29 GB of embedding storage. We report the wall-clock of our CPU-side
//! exact flat index and the approximate inverted index at the same scales,
//! plus the storage accounting.

use std::time::Instant;

use modm_embedding::{EmbeddingIndex, InvertedIndex, SemanticSpace, TextEncoder};

use crate::common::banner;

/// Runs the retrieval-performance measurement.
pub fn run() {
    banner("§5.2: cache retrieval latency and storage");
    let space = SemanticSpace::default();
    let text = TextEncoder::new(space.clone());
    let queries: Vec<_> = (0..200)
        .map(|i| text.encode(&format!("query prompt number {i} gilded harbor dawn")))
        .collect();

    println!(
        "{:>9} {:>14} {:>14} {:>12}",
        "entries", "flat (us/qry)", "inv (us/qry)", "storage"
    );
    for &n in &[1_000usize, 10_000, 100_000] {
        let mut flat = EmbeddingIndex::new();
        let mut inverted = InvertedIndex::for_capacity(space.dim(), n);
        for i in 0..n {
            let e = text.encode(&format!("cached prompt {} variant {}", i % 2_000, i));
            flat.insert(i as u64, e.clone());
            inverted.insert(i as u64, e);
        }
        let t0 = Instant::now();
        for q in &queries {
            std::hint::black_box(flat.nearest(q));
        }
        let flat_us = t0.elapsed().as_micros() as f64 / queries.len() as f64;
        let t1 = Instant::now();
        for q in &queries {
            std::hint::black_box(inverted.nearest(q));
        }
        let inverted_us = t1.elapsed().as_micros() as f64 / queries.len() as f64;
        println!(
            "{:>9} {:>14.1} {:>14.1} {:>9.2} MB",
            n,
            flat_us,
            inverted_us,
            flat.storage_bytes() as f64 / 1e6
        );
    }
    println!("\n(paper: 0.05 s per batched GPU lookup at 100k; 0.29 GB embeddings —");
    println!(" retrieval is negligible next to a >10 s denoising pass either way)");
}
