//! The trajectory cache (§3.2, Figure 2).
//!
//! "It first looks up the trajectory cache with srcIP and link IDs. If
//! there is a cache hit, it immediately converts the link IDs into a path.
//! If not, the module maps link IDs to a series of switches by referring to
//! a physical topology, and builds an end-to-end path. It then updates the
//! trajectory cache with (srcIP, link IDs, path)."

use pathdump_topology::{Ip, Path};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Cache key: source IP plus the sampled trajectory state.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Source IP (identifies the source ToR).
    pub src_ip: Ip,
    /// VL2 DSCP sample, if any.
    pub dscp_sample: Option<u8>,
    /// VLAN tags in push order.
    pub tags: Vec<u16>,
}

/// Bounded FIFO cache from (srcIP, link IDs) to reconstructed paths.
#[derive(Clone, Debug)]
pub struct TrajectoryCache {
    map: HashMap<CacheKey, Path>,
    order: VecDeque<CacheKey>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl TrajectoryCache {
    /// Creates a cache bounded to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        TrajectoryCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up a key, counting hit/miss.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<Path> {
        self.probe(key).cloned()
    }

    /// Borrowed lookup: like [`lookup`](Self::lookup) but hands the path
    /// back by reference — the agent's allocation-free ingest path clones
    /// only when it actually exports a record.
    pub fn probe(&mut self, key: &CacheKey) -> Option<&Path> {
        match self.map.get(key) {
            Some(p) => {
                self.hits += 1;
                Some(p)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a mapping, evicting the oldest entry when full.
    pub fn insert(&mut self, key: CacheKey, path: Path) {
        match self.map.entry(key.clone()) {
            Entry::Occupied(mut e) => {
                e.insert(path);
            }
            Entry::Vacant(e) => {
                e.insert(path);
                self.order.push_back(key);
                if self.order.len() > self.capacity {
                    if let Some(old) = self.order.pop_front() {
                        self.map.remove(&old);
                    }
                }
            }
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns true if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Approximate resident bytes (for the §5.3 storage accounting).
    pub fn approx_bytes(&self) -> usize {
        self.map
            .iter()
            .map(|(k, v)| {
                std::mem::size_of::<CacheKey>()
                    + k.tags.len() * 2
                    + std::mem::size_of::<Path>()
                    + v.0.len() * 2
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_topology::SwitchId;

    fn key(ip: u32, tags: &[u16]) -> CacheKey {
        CacheKey {
            src_ip: Ip(ip),
            dscp_sample: None,
            tags: tags.to_vec(),
        }
    }

    fn path(ids: &[u16]) -> Path {
        Path::new(ids.iter().map(|&i| SwitchId(i)).collect())
    }

    #[test]
    fn hit_miss_counting() {
        let mut c = TrajectoryCache::new(4);
        assert_eq!(c.lookup(&key(1, &[5])), None);
        c.insert(key(1, &[5]), path(&[1, 2, 3]));
        assert_eq!(c.lookup(&key(1, &[5])), Some(path(&[1, 2, 3])));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn distinct_keys_distinct_entries() {
        let mut c = TrajectoryCache::new(4);
        c.insert(key(1, &[5]), path(&[1]));
        c.insert(key(2, &[5]), path(&[2]));
        c.insert(key(1, &[6]), path(&[3]));
        assert_eq!(c.len(), 3);
        assert_eq!(c.lookup(&key(2, &[5])), Some(path(&[2])));
    }

    #[test]
    fn eviction_fifo() {
        let mut c = TrajectoryCache::new(2);
        c.insert(key(1, &[]), path(&[1]));
        c.insert(key(2, &[]), path(&[2]));
        c.insert(key(3, &[]), path(&[3]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(&key(1, &[])), None, "oldest entry evicted");
        assert!(c.lookup(&key(3, &[])).is_some());
    }

    #[test]
    fn dscp_distinguishes_keys() {
        let mut c = TrajectoryCache::new(4);
        let mut k1 = key(1, &[7]);
        k1.dscp_sample = Some(0);
        let mut k2 = key(1, &[7]);
        k2.dscp_sample = Some(1);
        c.insert(k1.clone(), path(&[1]));
        assert_eq!(c.lookup(&k2), None);
        assert_eq!(c.lookup(&k1), Some(path(&[1])));
    }
}
