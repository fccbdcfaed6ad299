//! Cache retrieval latency vs cache size (paper §5.2: 0.05 s at 100k on
//! GPU; here the CPU flat scan and the approximate inverted index).

use modm_bench::Bench;
use modm_embedding::{EmbeddingIndex, InvertedIndex, SemanticSpace, TextEncoder};

fn main() {
    let space = SemanticSpace::default();
    let text = TextEncoder::new(space.clone());
    let query = text.encode("gilded castle soaring mountains dawn oil painting");

    let mut bench = Bench::new("retrieval");
    for &n in &[1_000usize, 10_000, 100_000] {
        let mut flat = EmbeddingIndex::new();
        let mut inverted = InvertedIndex::for_capacity(space.dim(), n);
        for i in 0..n {
            let e = text.encode(&format!("cached prompt {} variant {}", i % 2_000, i));
            flat.insert(i as u64, &e);
            inverted.insert(i as u64, &e);
        }
        bench.measure(format!("flat/{n}"), || {
            std::hint::black_box(flat.nearest(&query))
        });
        bench.measure(format!("inverted/{n}"), || {
            std::hint::black_box(inverted.nearest(&query))
        });
    }
}
