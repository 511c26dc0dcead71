//! Copy-on-write symbolic memory.
//!
//! Guest memory maps byte addresses to 8-bit expressions. Pages are shared
//! between forked states via `Arc` and cloned lazily on write, which keeps
//! state forking cheap — the property that makes S2E-style per-branch
//! forking viable in the paper.

use std::sync::Arc;

use chef_solver::{ExprId, ExprPool, FxHashMap};

const PAGE_BITS: u64 = 10;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

#[derive(Clone)]
struct Page {
    bytes: [ExprId; PAGE_SIZE],
}

/// Byte-addressable symbolic memory with copy-on-write pages.
///
/// Unmapped bytes read as the zero-byte expression. Cloning a `SymMem` is
/// O(pages) pointer copies; mutation copies only the touched page.
#[derive(Clone)]
pub struct SymMem {
    pages: FxHashMap<u64, Arc<Page>>,
    zero_byte: ExprId,
}

impl SymMem {
    /// Creates empty memory; `pool` is used to intern the zero byte.
    pub fn new(pool: &mut ExprPool) -> Self {
        SymMem {
            pages: FxHashMap::default(),
            zero_byte: pool.constant(8, 0),
        }
    }

    /// Reads the 8-bit expression at `addr`.
    pub fn read_u8(&self, addr: u64) -> ExprId {
        match self.pages.get(&(addr >> PAGE_BITS)) {
            Some(p) => p.bytes[(addr & (PAGE_SIZE as u64 - 1)) as usize],
            None => self.zero_byte,
        }
    }

    /// Writes an 8-bit expression at `addr`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `value` does not have width 8.
    pub fn write_u8(&mut self, pool: &ExprPool, addr: u64, value: ExprId) {
        debug_assert_eq!(pool.width(value), 8, "memory cells are bytes");
        let zero = self.zero_byte;
        let page = self.pages.entry(addr >> PAGE_BITS).or_insert_with(|| {
            Arc::new(Page {
                bytes: [zero; PAGE_SIZE],
            })
        });
        Arc::make_mut(page).bytes[(addr & (PAGE_SIZE as u64 - 1)) as usize] = value;
    }

    /// Reads a little-endian 64-bit expression (concatenation of 8 bytes;
    /// folds to a constant when all bytes are concrete).
    pub fn read_u64(&self, pool: &mut ExprPool, addr: u64) -> ExprId {
        let mut acc = self.read_u8(addr);
        for i in 1..8 {
            let b = self.read_u8(addr.wrapping_add(i));
            acc = pool.concat(b, acc);
        }
        acc
    }

    /// Writes a 64-bit expression as 8 little-endian bytes.
    pub fn write_u64(&mut self, pool: &mut ExprPool, addr: u64, value: ExprId) {
        debug_assert_eq!(pool.width(value), 64);
        for i in 0..8 {
            let lo = (i * 8) as u8;
            let byte = pool.extract(lo + 7, lo, value);
            self.write_u8(pool, addr.wrapping_add(i), byte);
        }
    }

    /// Writes concrete bytes (used for data segments and inputs).
    pub fn write_bytes(&mut self, pool: &mut ExprPool, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let e = pool.constant(8, b as u64);
            self.write_u8(pool, addr.wrapping_add(i as u64), e);
        }
    }

    /// Number of materialized pages (diagnostics).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Bytes per page — the fixed page payload size snapshots serialize.
    pub const PAGE_BYTES: usize = PAGE_SIZE;

    /// Materialized pages as `(page_index, bytes)`, ascending by index —
    /// the deterministic form [`crate::Snapshot`] serializes.
    pub fn snapshot_pages(&self) -> Vec<(u64, Vec<ExprId>)> {
        let mut out: Vec<(u64, Vec<ExprId>)> = self
            .pages
            .iter()
            .map(|(k, p)| (*k, p.bytes.to_vec()))
            .collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// Rebuilds memory from serialized pages. Returns `None` if any page
    /// does not hold exactly [`SymMem::PAGE_BYTES`] entries.
    pub fn from_pages(pool: &mut ExprPool, pages: &[(u64, Vec<ExprId>)]) -> Option<Self> {
        let mut mem = SymMem::new(pool);
        for (k, bytes) in pages {
            let cells: [ExprId; PAGE_SIZE] = bytes.as_slice().try_into().ok()?;
            mem.pages.insert(*k, Arc::new(Page { bytes: cells }));
        }
        Some(mem)
    }
}

impl std::fmt::Debug for SymMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymMem")
            .field("pages", &self.pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_zero() {
        let mut pool = ExprPool::new();
        let m = SymMem::new(&mut pool);
        let z = m.read_u8(0x1234);
        assert_eq!(pool.as_const(z), Some(0));
    }

    #[test]
    fn u64_roundtrip_folds_to_constant() {
        let mut pool = ExprPool::new();
        let mut m = SymMem::new(&mut pool);
        let v = pool.constant(64, 0xdead_beef_cafe_f00d);
        m.write_u64(&mut pool, 64, v);
        let r = m.read_u64(&mut pool, 64);
        assert_eq!(pool.as_const(r), Some(0xdead_beef_cafe_f00d));
    }

    #[test]
    fn cow_isolation_between_clones() {
        let mut pool = ExprPool::new();
        let mut a = SymMem::new(&mut pool);
        a.write_bytes(&mut pool, 0, b"hello");
        let mut b = a.clone();
        let x = pool.constant(8, b'X' as u64);
        b.write_u8(&pool, 0, x);
        assert_eq!(pool.as_const(a.read_u8(0)), Some(b'h' as u64));
        assert_eq!(pool.as_const(b.read_u8(0)), Some(b'X' as u64));
    }

    #[test]
    fn symbolic_bytes_stay_symbolic() {
        let mut pool = ExprPool::new();
        let mut m = SymMem::new(&mut pool);
        let v = pool.fresh_var("b", 8);
        m.write_u8(&pool, 10, v);
        assert_eq!(m.read_u8(10), v);
        let wide = m.read_u64(&mut pool, 10);
        assert!(pool.as_const(wide).is_none());
    }

    #[test]
    fn cross_page_u64() {
        let mut pool = ExprPool::new();
        let mut m = SymMem::new(&mut pool);
        let addr = PAGE_SIZE as u64 - 3;
        let v = pool.constant(64, 0x1122_3344_5566_7788);
        m.write_u64(&mut pool, addr, v);
        let r = m.read_u64(&mut pool, addr);
        assert_eq!(pool.as_const(r), Some(0x1122_3344_5566_7788));
    }
}
