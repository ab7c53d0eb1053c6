//! Simulated physical memory: the flat address space both the kernel and
//! CARAT processes operate in (paper §2.2: "CARAT processes and the kernel
//! run within a single physical address space using physical addresses").

use carat_runtime::MemAccess;

/// Flat byte-addressable physical memory.
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    bytes: Vec<u8>,
}

impl PhysicalMemory {
    /// Allocate `size` bytes of zeroed physical memory.
    pub fn new(size: u64) -> PhysicalMemory {
        PhysicalMemory {
            bytes: vec![0; size as usize],
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    #[inline]
    fn check(&self, addr: u64, len: u64) {
        assert!(
            addr.checked_add(len).is_some_and(|e| e <= self.size()),
            "physical access [{addr:#x}, +{len}) outside memory of {:#x} bytes",
            self.size()
        );
    }

    /// Read `len` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics when the range leaves physical memory — in a real machine
    /// this would be a bus error; in the simulation it is always a
    /// substrate bug because guards/page tables run first.
    #[inline]
    pub fn read_bytes(&self, addr: u64, len: u64) -> &[u8] {
        self.check(addr, len);
        &self.bytes[addr as usize..(addr + len) as usize]
    }

    /// Borrow `len` bytes at `addr` for writing in place (a device
    /// filling its DMA target without a staging buffer).
    ///
    /// # Panics
    ///
    /// As [`PhysicalMemory::read_bytes`].
    pub(crate) fn bytes_mut(&mut self, addr: u64, len: u64) -> &mut [u8] {
        self.check(addr, len);
        &mut self.bytes[addr as usize..(addr + len) as usize]
    }

    /// Write bytes at `addr`.
    #[inline]
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        self.check(addr, data.len() as u64);
        self.bytes[addr as usize..addr as usize + data.len()].copy_from_slice(data);
    }

    /// Read a little-endian integer of `size` ∈ {1,2,4,8} bytes,
    /// zero-extended.
    #[inline]
    pub fn read_uint(&self, addr: u64, size: u64) -> u64 {
        let b = self.read_bytes(addr, size);
        // Whole-word fast path: the VM's pointer and f64 traffic.
        if let Ok(w) = <[u8; 8]>::try_from(b) {
            return u64::from_le_bytes(w);
        }
        let mut v = 0u64;
        for (i, &x) in b.iter().enumerate() {
            v |= (x as u64) << (8 * i);
        }
        v
    }

    /// Write the low `size` bytes of `val` little-endian.
    #[inline]
    pub fn write_uint(&mut self, addr: u64, val: u64, size: u64) {
        let bytes = val.to_le_bytes();
        self.write_bytes(addr, &bytes[..size as usize]);
    }

    /// Read an `f64`.
    #[inline]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_uint(addr, 8))
    }

    /// Write an `f64`.
    #[inline]
    pub fn write_f64(&mut self, addr: u64, v: f64) {
        self.write_uint(addr, v.to_bits(), 8);
    }

    /// Zero the range.
    pub fn zero(&mut self, addr: u64, len: u64) {
        self.check(addr, len);
        self.bytes[addr as usize..(addr + len) as usize].fill(0);
    }
}

impl MemAccess for PhysicalMemory {
    fn read_u64(&self, addr: u64) -> u64 {
        self.read_uint(addr, 8)
    }

    fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_uint(addr, val, 8);
    }

    fn copy(&mut self, src: u64, dst: u64, len: u64) {
        self.check(src, len);
        self.check(dst, len);
        self.bytes
            .copy_within(src as usize..(src + len) as usize, dst as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_uints() {
        let mut m = PhysicalMemory::new(4096);
        m.write_uint(16, 0xdead_beef_cafe_f00d, 8);
        assert_eq!(m.read_uint(16, 8), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_uint(16, 4), 0xcafe_f00d);
        assert_eq!(m.read_uint(16, 1), 0x0d);
        m.write_uint(100, 0xff, 1);
        assert_eq!(m.read_uint(100, 1), 0xff);
    }

    #[test]
    fn roundtrip_f64() {
        let mut m = PhysicalMemory::new(64);
        m.write_f64(8, -3.25);
        assert_eq!(m.read_f64(8), -3.25);
    }

    #[test]
    fn copy_moves_data() {
        let mut m = PhysicalMemory::new(4096);
        m.write_bytes(0, b"hello world");
        m.copy(0, 1000, 11);
        assert_eq!(m.read_bytes(1000, 11), b"hello world");
    }

    #[test]
    #[should_panic(expected = "outside memory")]
    fn out_of_range_panics() {
        let m = PhysicalMemory::new(64);
        m.read_uint(60, 8);
    }

    #[test]
    fn zero_clears() {
        let mut m = PhysicalMemory::new(64);
        m.write_uint(0, u64::MAX, 8);
        m.zero(0, 8);
        assert_eq!(m.read_uint(0, 8), 0);
    }
}
