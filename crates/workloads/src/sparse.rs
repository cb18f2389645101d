//! Sparse-solver workloads: cg and irr (non-uniform), sparse and equake
//! (uniform).
//!
//! All four are CSR-style matrix-vector kernels; they differ in the layout
//! of the gathered vector. `cg` gathers into power-of-two-aligned graph
//! partitions and `irr` into 256-byte-padded mesh nodes — both concentrate
//! L2 sets. `sparse` and `equake` gather into densely packed vectors with
//! odd row lengths — uniform.

use crate::util::{Lcg, TraceSink};

const KB: u64 = 1024;

/// Shared CSR sweep: for each row, stream `nnz_per_row` (value, col) pairs
/// and gather `x[col]` via `gather`, then store `y[row]`.
fn csr_sweep(
    t: &mut TraceSink,
    seed: u64,
    rows: u64,
    nnz_per_row: u64,
    work_per_nz: u32,
    mut gather: impl FnMut(&mut Lcg, u64) -> u64,
) {
    let mut rng = Lcg::new(seed);
    let vals_base = 0x6_0000_0000u64;
    let y_base = 0x7_0000_0000u64 + 8 * KB + 40;
    // The iterative solver re-reads the same matrix every iteration.
    let matrix_nz = rows * nnz_per_row;
    let mut nz_pos = 0u64;
    'outer: loop {
        for row in 0..rows {
            for _ in 0..nnz_per_row {
                // Stream the matrix entry (value + column index).
                t.load(vals_base + (nz_pos % matrix_nz) * 12);
                nz_pos += 1;
                // Gather from x.
                let x_addr = gather(&mut rng, row);
                t.load(x_addr);
                t.fp_work(work_per_nz);
                if t.done() {
                    break 'outer;
                }
            }
            t.store(y_base + row * 8);
            t.branch(rng.chance(1, 16));
        }
    }
}

/// NAS cg: conjugate gradient on a renumbered random graph. Gathers split
/// into a hot head — the high-degree vertices, a 64 KB region whose blocks
/// cover only half the L2 sets (the non-uniform histogram) — and a cold
/// tail of ~5000 scattered heap blocks touched at random.
///
/// The tail slightly exceeds the L2, so cg's misses are capacity-ish and
/// randomly placed: no *single* rehash can remove them. Only the skewed
/// caches, with their extra placement freedom, win — exactly the paper's
/// observation that "with cg and mst, only the skewed associative schemes
/// are able to obtain speedups" (§5.3).
pub fn cg(t: &mut TraceSink) {
    let hot_base = 0x8000_0000u64; // 64 KB of hot vertices, block-aligned
    let hot_blocks = 1024u64;
    // The cold vertices live on ~7000 *scattered* blocks of a large heap
    // (the graph generator's random placement): every set-index function
    // sees the same Poisson imbalance, so only the extra placement
    // freedom of a skewed cache removes the overflow conflicts.
    let tail_base = 0x8800_0000u64;
    let mut placement = Lcg::new(0xC61);
    let tail_blocks: Vec<u64> = (0..3_500)
        .map(|_| tail_base + placement.below(32 * 1024) * 64)
        .collect();
    csr_sweep(t, 0xC6, 1 << 11, 8, 24, move |rng, _row| {
        if rng.chance(3, 5) {
            // High-degree head, skewed toward the very front.
            hot_base + rng.skewed(hot_blocks) * 64 + rng.below(8) * 8
        } else {
            tail_blocks[rng.below(tail_blocks.len() as u64) as usize] + rng.below(8) * 8
        }
    })
}

/// An iterative PDE solver on an irregular mesh (the paper's `irr`). Mesh
/// nodes are 256-byte padded structures; the solver gathers the 64-byte
/// header of each neighbour, so only every fourth L2 set is ever touched
/// by the gather stream.
pub fn irr(t: &mut TraceSink) {
    let nodes = 8_192u64; // 2 MB of 256-B nodes
    let node_base = 0x8000_0000u64;
    csr_sweep(t, 0x17, 1 << 14, 9, 320, move |rng, row| {
        // High-degree mesh vertices dominate the gathers; the rest are a
        // local window around the row's own node.
        let neigh = if rng.chance(2, 3) {
            rng.skewed(nodes)
        } else {
            (row + rng.below(128)) % nodes
        };
        node_base + neigh * 256 + rng.below(8) * 8
    })
}

/// SparseBench sparse: conjugate-gradient iteration over a banded matrix
/// with densely packed x — uniform sets. Its near-capacity cyclic reuse is
/// what the skewed pseudo-LRU mishandles (a Fig. 10 pathological app).
pub fn sparse(t: &mut TraceSink) {
    let x_base = 0xA000_0000u64 + 24; // packed, odd offset
    let n = 48_000u64; // 384 KB vector: just inside the L2
    csr_sweep(t, 0x5A, n / 8, 7, 9, move |rng, row| {
        // Banded: columns near the diagonal.
        let col = (row * 8 + rng.below(640)) % n;
        x_base + col * 8
    })
}

/// SPEC equake: sparse matrix-vector products from an unstructured FEM
/// mesh; the renumbered mesh gives a roughly uniform gather distribution.
pub fn equake(t: &mut TraceSink) {
    let x_base = 0xB000_0000u64 + 8;
    let n = 380_000u64; // ~3 MB packed vector of 3-vectors
    csr_sweep(t, 0xEA, 1 << 15, 5, 12, move |rng, _row| {
        x_base + rng.below(n) * 8
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::materialize;
    use primecache_trace::TraceStats;

    #[test]
    fn generators_reach_target() {
        for (name, f) in [
            ("cg", cg as fn(&mut TraceSink)),
            ("irr", irr),
            ("sparse", sparse),
            ("equake", equake),
        ] {
            let stats: TraceStats = materialize(f, 5_000).iter().collect();
            assert!(stats.memory_refs() >= 5_000, "{name}");
            assert!(stats.memory_refs() < 5_100, "{name} overshoots");
        }
    }

    #[test]
    fn irr_touches_only_padded_headers() {
        let blocks: std::collections::HashSet<u64> = materialize(irr, 20_000)
            .iter()
            .filter_map(|e| e.addr())
            .filter(|&a| (0x8000_0000..0x6_0000_0000u64).contains(&a))
            .map(|a| a / 64)
            .collect();
        // Node headers live on 256-B boundaries: every block is ≡ 0 mod 4.
        assert!(blocks.iter().all(|b| b % 4 == 0));
        assert!(blocks.len() > 1_000);
    }

    #[test]
    fn cg_gathers_cluster_in_the_hot_head() {
        // 3/5 of gathers target the 64 KB high-degree head.
        let gathers: Vec<u64> = materialize(cg, 20_000)
            .iter()
            .filter_map(|e| e.addr())
            .filter(|&a| (0x8000_0000..0x6_0000_0000u64).contains(&a))
            .collect();
        let in_hot = gathers
            .iter()
            .filter(|&&a| a < 0x8000_0000 + 64 * KB)
            .count();
        assert!(in_hot * 2 > gathers.len(), "{in_hot}/{}", gathers.len());
    }

    #[test]
    fn determinism() {
        assert_eq!(materialize(cg, 3_000), materialize(cg, 3_000));
        assert_eq!(materialize(sparse, 3_000), materialize(sparse, 3_000));
    }
}
