//! Open-addressing hash set of fixed-length integer vectors — cell
//! coordinates and alignment shifts — stored flat in one arena.
//!
//! The refine kernel looks up every cell of one summary, under every
//! evaluated alignment, among the cells of the other, and the alignment
//! search tracks which shifts it has evaluated. Both are sets of short
//! `i32` vectors built once per summary pair; keeping them flat and
//! indexing them by `u32` means a lookup or an insert never allocates.
//!
//! The hash is linear — `hash(x + s) = hash(x) + hash(s)` in wrapping
//! arithmetic — so a lookup of a translated coordinate `x + s` adds two
//! precomputed hashes and compares on the fly, without building `x + s`.

const EMPTY: u32 = u32::MAX;
/// FxHash's multiplier; odd, so multiplying by it permutes `u64`.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Linear hash of a vector: `Σ key[d] · SEED^(d+1)` over `u64` with
/// wrapping arithmetic. Coordinates are sign-extended, so the sum is a
/// ring map from ℤ and the translation identity above holds exactly
/// whenever `x + s` fits in `i32`.
pub(crate) fn hash(key: &[i32]) -> u64 {
    let mut weight = SEED;
    let mut h = 0u64;
    for &c in key {
        h = h.wrapping_add((c as i64 as u64).wrapping_mul(weight));
        weight = weight.wrapping_mul(SEED);
    }
    h
}

/// Set of `dim`-length vectors; entry `k` (in insertion order) lives at
/// `coords[k·dim..(k+1)·dim]`. Linear probing over a power-of-two slot
/// array that is kept at most half full.
pub(crate) struct CoordTable {
    dim: usize,
    len: usize,
    coords: Vec<i32>,
    slots: Vec<u32>,
}

impl CoordTable {
    /// Empty table sized for `n` entries of length `dim`.
    pub(crate) fn with_capacity(dim: usize, n: usize) -> Self {
        CoordTable {
            dim,
            len: 0,
            coords: Vec::with_capacity(n * dim),
            slots: vec![EMPTY; (2 * n).next_power_of_two().max(16)],
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Entry `k`.
    pub(crate) fn get(&self, k: u32) -> &[i32] {
        let at = k as usize * self.dim;
        &self.coords[at..at + self.dim]
    }

    /// Index of the entry equal to `base + shift` (element-wise), given
    /// `hash(base)` and `hash(shift)`. A `base` of another length is
    /// never present.
    #[inline]
    pub(crate) fn find_shifted(
        &self,
        base: &[i32],
        base_hash: u64,
        shift: &[i32],
        shift_hash: u64,
    ) -> Option<u32> {
        debug_assert_eq!(base.len(), shift.len());
        if base.len() != self.dim {
            return None;
        }
        let found = |entry: &[i32]| {
            entry
                .iter()
                .zip(base.iter().zip(shift))
                .all(|(e, (b, s))| *e == b + s)
        };
        self.probe(base_hash.wrapping_add(shift_hash), found).ok()
    }

    /// Add `key` and return its index, or `None` if it was present.
    pub(crate) fn insert(&mut self, key: &[i32]) -> Option<u32> {
        debug_assert_eq!(key.len(), self.dim);
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let slot = self.probe(hash(key), |entry| entry == key).err()?;
        let k = self.len as u32;
        self.slots[slot] = k;
        self.coords.extend_from_slice(key);
        self.len += 1;
        Some(k)
    }

    /// `Ok(index)` of the entry `found` accepts along `h`'s probe
    /// sequence, or `Err(slot)` of the first vacancy.
    #[inline]
    fn probe(&self, h: u64, found: impl Fn(&[i32]) -> bool) -> Result<u32, usize> {
        // A linear hash is poorly spread; mix it, then take the slot from
        // the high bits, which depend on every input bit.
        let mixed = (h ^ (h >> 29)).wrapping_mul(SEED);
        let mask = self.slots.len() - 1;
        let mut i = (mixed >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[i] {
                EMPTY => return Err(i),
                k if found(self.get(k)) => return Ok(k),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        self.slots = vec![EMPTY; self.slots.len() * 2];
        for k in 0..self.len as u32 {
            let key = self.get(k);
            if let Err(slot) = self.probe(hash(key), |entry| entry == key) {
                self.slots[slot] = k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_linear() {
        let (x, s) = ([3, -7, 120, 0], [-5, 2, -121, 9]);
        let sum: Vec<i32> = x.iter().zip(&s).map(|(a, b)| a + b).collect();
        assert_eq!(hash(&sum), hash(&x).wrapping_add(hash(&s)));
    }

    #[test]
    fn insert_find_and_grow() {
        let mut t = CoordTable::with_capacity(3, 2);
        let keys: Vec<[i32; 3]> = (-40..40).map(|i| [i, -i, i * i]).collect();
        for (k, key) in keys.iter().enumerate() {
            assert_eq!(t.insert(key), Some(k as u32));
        }
        assert_eq!(t.len(), keys.len());
        let zero = [0; 3];
        for (k, key) in keys.iter().enumerate() {
            assert_eq!(t.insert(key), None, "duplicate rejected");
            assert_eq!(t.get(k as u32), key);
            let found = t.find_shifted(key, hash(key), &zero, hash(&zero));
            assert_eq!(found, Some(k as u32));
        }
        // [1, -1, 1] + [-1, 1, 0] = [0, 0, 1] is absent; [2, -2, 4] is
        // entry 42 reached from [1, -1, 1] by [1, -1, 3].
        let base = [1, -1, 1];
        let miss = [-1, 1, 0];
        let hit = [1, -1, 3];
        assert_eq!(t.find_shifted(&base, hash(&base), &miss, hash(&miss)), None);
        assert_eq!(
            t.find_shifted(&base, hash(&base), &hit, hash(&hit)),
            Some(42)
        );
        assert_eq!(
            t.find_shifted(&[0, 0], hash(&[0, 0]), &[0, 0], 0),
            None,
            "other lengths never match"
        );
    }
}
