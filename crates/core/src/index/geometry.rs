//! Physical index geometry shared by all hash functions.

/// Physical geometry of the indexed structure: a power-of-two number of
/// sets, from which every hash function derives its bit fields (Fig. 1).
///
/// A block address `a` splits into the low `index_bits()` bits `x` and the
/// tag `T = a >> index_bits()`; the first `index_bits()` bits of the tag are
/// `t1`, the next chunk `t2`, and so on — exactly the `x_i`/`t_ij`
/// decomposition of the paper's §3.1.
///
/// # Examples
///
/// ```
/// use primecache_core::index::Geometry;
///
/// let g = Geometry::new(2048);
/// assert_eq!(g.index_bits(), 11);
/// assert_eq!(g.x(0b1_0000_0000_101), 0b101);
/// assert_eq!(g.tag(0b1_0000_0000_101), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    n_set_phys: u64,
}

impl Geometry {
    /// Creates a geometry with `n_set_phys` physical sets.
    ///
    /// # Panics
    ///
    /// Panics if `n_set_phys` is not a power of two or is smaller than 2.
    #[must_use]
    pub fn new(n_set_phys: u64) -> Self {
        assert!(
            n_set_phys.is_power_of_two() && n_set_phys >= 2,
            "physical set count must be a power of two >= 2, got {n_set_phys}"
        );
        Self { n_set_phys }
    }

    /// The physical (power-of-two) set count.
    #[must_use]
    pub fn n_set_phys(&self) -> u64 {
        self.n_set_phys
    }

    /// Number of index bits: `log2(n_set_phys)`.
    #[must_use]
    pub fn index_bits(&self) -> u32 {
        self.n_set_phys.trailing_zeros()
    }

    /// Mask selecting the low `index_bits()` bits.
    #[must_use]
    pub fn index_mask(&self) -> u64 {
        self.n_set_phys - 1
    }

    /// The index field `x` of a block address (Fig. 1).
    #[must_use]
    pub fn x(&self, block_addr: u64) -> u64 {
        block_addr & self.index_mask()
    }

    /// The full tag `T` of a block address: everything above the index bits.
    #[must_use]
    pub fn tag(&self, block_addr: u64) -> u64 {
        block_addr >> self.index_bits()
    }

    /// The `j`-th tag chunk `t_j` (1-based), each `index_bits()` wide:
    /// `t_1` is the low chunk of the tag, `t_2` the next, … (§3.1,
    /// polynomial method).
    ///
    /// # Panics
    ///
    /// Panics if `j == 0` (`t_0` is the index field `x`, not a tag chunk).
    #[must_use]
    pub fn tag_chunk(&self, block_addr: u64, j: u32) -> u64 {
        assert!(j >= 1, "tag chunks are 1-based");
        let shift = self.index_bits() * j;
        if shift >= 64 {
            0
        } else {
            (block_addr >> shift) & self.index_mask()
        }
    }

    /// Number of tag chunks needed to cover a `bits`-wide block address.
    #[must_use]
    pub fn chunks_for(&self, bits: u32) -> u32 {
        let ib = self.index_bits();
        if bits <= ib {
            0
        } else {
            (bits - ib).div_ceil(ib)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_fields_partition_the_address() {
        let g = Geometry::new(2048);
        let a = 0xDEAD_BEEF_1234u64;
        let rebuilt = (g.tag(a) << g.index_bits()) | g.x(a);
        assert_eq!(rebuilt, a);
    }

    #[test]
    fn tag_chunks_reassemble_tag() {
        let g = Geometry::new(2048);
        let a = 0xFFFF_FFFF_FFFFu64;
        let mut tag = 0u64;
        for j in (1..=g.chunks_for(48)).rev() {
            tag = (tag << g.index_bits()) | g.tag_chunk(a, j);
        }
        assert_eq!(tag, g.tag(a));
    }

    #[test]
    fn chunk_counts_match_paper_example() {
        // 32-bit machine, 64-B lines => 26-bit block address; 2048 sets
        // => x (11 bits) + t1 (11 bits) + t2 (4 bits): 2 chunks.
        let g = Geometry::new(2048);
        assert_eq!(g.chunks_for(26), 2);
        // 64-bit machine, 64-B lines => 58-bit block address.
        assert_eq!(g.chunks_for(58), 5);
    }

    #[test]
    fn high_chunks_are_zero() {
        let g = Geometry::new(2048);
        assert_eq!(g.tag_chunk(u64::MAX, 5), 0x1FF); // only 9 bits remain above bit 55
        assert_eq!(g.tag_chunk(u64::MAX, 6), 0); // shift >= 64 clips to zero
        assert_eq!(g.tag_chunk(0xFFF, 3), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Geometry::new(2039);
    }

    #[test]
    #[should_panic(expected = "tag chunks are 1-based")]
    fn chunk_zero_rejected() {
        let _ = Geometry::new(64).tag_chunk(0, 0);
    }
}
