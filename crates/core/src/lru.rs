//! The least-recently-used map behind both the artifact cache
//! ([`crate::service::ArtifactCache`]) and a server's workload-identity
//! table. It orders recency and nothing else: the owner decides when it
//! is over a bound and calls [`Lru::pop_oldest`] until it is not.

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;

/// A map that remembers which entry was used least recently. `tick`
/// orders recency; it is bumped under the owner's lock, so it needs no
/// atomicity of its own.
#[derive(Debug)]
pub struct Lru<K, V> {
    map: HashMap<K, (V, u64)>,
    tick: u64,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru {
            map: HashMap::new(),
            tick: 0,
        }
    }
}

#[allow(clippy::len_without_is_empty)] // no owner asks
impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// Entries held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Looks `key` up and, if `accept` takes the value, marks it the
    /// most recently used. A value `accept` turns down is reported as
    /// absent and keeps the recency it had.
    pub fn get_if<Q>(&mut self, key: &Q, accept: impl FnOnce(&V) -> bool) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.tick += 1;
        let (value, last_used) = self.map.get_mut(key)?;
        if !accept(value) {
            return None;
        }
        *last_used = self.tick;
        Some(value)
    }

    /// Inserts `key` as the most recently used unless it is already
    /// held (`false`: nothing changed). Evicts nothing: see
    /// [`pop_oldest`](Self::pop_oldest).
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.tick += 1;
        let Entry::Vacant(slot) = self.map.entry(key) else {
            return false;
        };
        slot.insert((value, self.tick));
        true
    }

    /// Removes and returns the least recently used value.
    pub fn pop_oldest(&mut self) -> Option<V> {
        let oldest = self
            .map
            .iter()
            .min_by_key(|(_, (_, last_used))| *last_used)
            .map(|(key, _)| key.clone())?;
        self.map.remove(&oldest).map(|(value, _)| value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_order_of_last_use_and_a_declined_lookup_is_not_a_use() {
        let mut lru: Lru<String, u32> = Lru::default();
        assert!(lru.pop_oldest().is_none());
        for (key, value) in [("a", 1), ("b", 2), ("c", 3)] {
            assert!(lru.insert(key.to_string(), value));
        }
        assert_eq!(lru.get_if("a", |_| true), Some(&1)); // refreshed: b is now oldest
        assert_eq!(lru.get_if("b", |_| false), None); // declined: still oldest
        assert_eq!(lru.get_if("d", |_| true), None);
        assert!(
            !lru.insert("c".to_string(), 4),
            "a held key keeps its value"
        );
        assert_eq!(lru.len(), 3);
        assert_eq!(
            [lru.pop_oldest(), lru.pop_oldest(), lru.pop_oldest()],
            [Some(2), Some(3), Some(1)]
        );
        assert_eq!(lru.len(), 0);
    }
}
