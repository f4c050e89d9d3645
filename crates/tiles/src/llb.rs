//! An LRU model of the last-level buffer (LLB) of the Section 6.4 memory
//! hierarchy: tiles are fetched from DRAM on miss, kept resident until
//! capacity forces an eviction, and every byte moved is counted.

use std::collections::{BTreeMap, HashMap};

/// Identifies one resident tile: the operand's index plus the tile's linear
/// index in that operand's grid ([`crate::TileGrid::linear_key`]) — a key
/// that is copied, not allocated, on every access.
pub type TileKey = (usize, u64);

/// A byte-accurate LRU cache standing in for the last-level buffer.
///
/// It is driven by the *actual* tile access sequence of a tiled
/// execution, so the DRAM traffic, the
/// occupancy high-water mark and the capacity-spill count it reports are
/// measurements of the schedule, not expectations over random placement.
#[derive(Debug)]
pub struct LlbModel {
    capacity: u64,
    resident: HashMap<TileKey, (u64, u64)>, // key -> (bytes, last-use stamp)
    by_stamp: BTreeMap<u64, TileKey>,
    resident_bytes: u64,
    clock: u64,
    dram_bytes: u64,
    peak_bytes: u64,
    evictions: u64,
}

impl LlbModel {
    /// An empty buffer of `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> LlbModel {
        LlbModel {
            capacity: capacity_bytes,
            resident: HashMap::new(),
            by_stamp: BTreeMap::new(),
            resident_bytes: 0,
            clock: 0,
            dram_bytes: 0,
            peak_bytes: 0,
            evictions: 0,
        }
    }

    /// Touches the tile `key` of `bytes` bytes, returning `true` on a hit.
    /// On a miss the tile streams from DRAM and becomes resident, evicting
    /// least-recently-used tiles until it fits; a tile at least as large as
    /// the whole buffer streams through without displacing anything.
    pub fn access(&mut self, key: TileKey, bytes: u64) -> bool {
        self.clock += 1;
        if let Some((_, stamp)) = self.resident.get_mut(&key) {
            let old = std::mem::replace(stamp, self.clock);
            self.by_stamp.remove(&old);
            self.by_stamp.insert(self.clock, key);
            return true;
        }
        self.dram_bytes += bytes;
        if bytes >= self.capacity {
            return false; // Streams through; never resident.
        }
        while self.resident_bytes + bytes > self.capacity {
            let (&oldest, _) = self.by_stamp.iter().next().expect("resident tiles exist");
            let victim = self.by_stamp.remove(&oldest).expect("stamp present");
            let (vbytes, _) = self.resident.remove(&victim).expect("victim resident");
            self.resident_bytes -= vbytes;
            self.evictions += 1;
        }
        self.resident.insert(key, (bytes, self.clock));
        self.by_stamp.insert(self.clock, key);
        self.resident_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.resident_bytes);
        false
    }

    /// Counts `bytes` written straight through to DRAM (output tiles).
    pub fn write_through(&mut self, bytes: u64) {
        self.dram_bytes += bytes;
    }

    /// Total bytes moved to or from DRAM so far.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_bytes
    }

    /// High-water mark of resident bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Number of capacity evictions (spill events).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tile `k` of operand `B` (index 0) or `C` (index 1).
    fn key(name: &str, k: u64) -> TileKey {
        (usize::from(name == "C"), k)
    }

    #[test]
    fn hits_do_not_move_bytes() {
        let mut llb = LlbModel::new(100);
        assert!(!llb.access(key("B", 0), 40));
        assert!(llb.access(key("B", 0), 40));
        assert_eq!(llb.dram_bytes(), 40);
        assert_eq!(llb.peak_bytes(), 40);
        assert_eq!(llb.evictions(), 0);
    }

    #[test]
    fn lru_evicts_the_coldest_tile() {
        let mut llb = LlbModel::new(100);
        llb.access(key("B", 0), 40);
        llb.access(key("B", 1), 40);
        llb.access(key("B", 0), 40); // B0 is now warmer than B1.
        llb.access(key("C", 0), 40); // Evicts B1.
        assert_eq!(llb.evictions(), 1);
        assert!(llb.access(key("B", 0), 40), "B0 must still be resident");
        assert!(!llb.access(key("B", 1), 40), "B1 was evicted");
        assert_eq!(llb.peak_bytes(), 80);
    }

    #[test]
    fn oversized_tiles_stream_through() {
        let mut llb = LlbModel::new(100);
        llb.access(key("B", 0), 40);
        assert!(!llb.access(key("C", 0), 200));
        assert!(!llb.access(key("C", 0), 200), "oversized tiles are never resident");
        assert_eq!(llb.dram_bytes(), 40 + 400);
        assert_eq!(llb.resident_bytes(), 40);
        llb.write_through(25);
        assert_eq!(llb.dram_bytes(), 465);
    }
}
