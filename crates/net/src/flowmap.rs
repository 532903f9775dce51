//! [`FlowMap`]: a dense, [`FlowId`]-indexed table of per-flow state.
//!
//! Flow ids are dense per experiment (`0..n`), so a per-flow table is a
//! slot vector indexed by `id.0` rather than an ordered map: lookups are
//! one bounds check and one `Option` test instead of a tree descent. The
//! slots are walked in index order, so iteration visits flows in
//! ascending id order — the same order a `BTreeMap<FlowId, _>` yields —
//! and every sweep over the table stays deterministic.
//!
//! The density assumption is a memory bound, not a correctness one: the
//! table holds `max id + 1` slots, so a sparse id space (say, one flow at
//! `FlowId(1 << 30)`) would allocate a slot for every id below it.

use crate::flow::FlowId;
use std::iter::Enumerate;
use std::ops::Index;

/// A map from [`FlowId`] to `T`, stored as a slot vector indexed by the id.
///
/// The API mirrors the subset of `BTreeMap<FlowId, T>` the simulator uses;
/// iteration yields keys by value, in ascending id order.
#[derive(Debug, Clone)]
pub struct FlowMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> FlowMap<T> {
    /// An empty map (allocates nothing until the first insert).
    pub const fn new() -> FlowMap<T> {
        FlowMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of flows present.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no flow is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry of `id`, if present.
    #[inline]
    pub fn get(&self, id: &FlowId) -> Option<&T> {
        self.slots.get(id.0 as usize)?.as_ref()
    }

    /// The entry of `id`, mutably, if present.
    #[inline]
    pub fn get_mut(&mut self, id: &FlowId) -> Option<&mut T> {
        self.slots.get_mut(id.0 as usize)?.as_mut()
    }

    /// Whether `id` is present.
    #[inline]
    pub fn contains_key(&self, id: &FlowId) -> bool {
        self.get(id).is_some()
    }

    /// Insert `value` under `id`, returning the value it replaced. Grows
    /// the slot vector up to `id` when needed.
    pub fn insert(&mut self, id: FlowId, value: T) -> Option<T> {
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The entry of `id`, mutably, inserting `make()` first when absent.
    pub fn get_or_insert_with(&mut self, id: FlowId, make: impl FnOnce() -> T) -> &mut T {
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let slot = &mut self.slots[idx];
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(make)
    }

    /// Remove and return the entry of `id`, leaving its slot empty (the
    /// slot vector never shrinks; ids are reused in place).
    pub fn remove(&mut self, id: &FlowId) -> Option<T> {
        let old = self.slots.get_mut(id.0 as usize)?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Present ids, ascending.
    pub fn keys(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Entries in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Entries in ascending id order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }

    /// `(id, entry)` pairs in ascending id order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            slots: self.slots.iter().enumerate(),
        }
    }

    /// `(id, entry)` pairs in ascending id order, mutably.
    pub fn iter_mut(&mut self) -> IterMut<'_, T> {
        IterMut {
            slots: self.slots.iter_mut().enumerate(),
        }
    }
}

impl<T> Default for FlowMap<T> {
    fn default() -> FlowMap<T> {
        FlowMap::new()
    }
}

impl<T> Index<&FlowId> for FlowMap<T> {
    type Output = T;

    /// The entry of `id`; like `BTreeMap`'s index, a missing key is a
    /// caller bug.
    fn index(&self, id: &FlowId) -> &T {
        self.get(id)
            .expect("invariant: FlowMap indexed with an id that was never inserted")
    }
}

/// Iterator over `(FlowId, &T)` in ascending id order.
pub struct Iter<'a, T> {
    slots: Enumerate<std::slice::Iter<'a, Option<T>>>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (FlowId, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        self.slots
            .find_map(|(i, slot)| slot.as_ref().map(|v| (FlowId(i as u32), v)))
    }
}

/// Iterator over `(FlowId, &mut T)` in ascending id order.
pub struct IterMut<'a, T> {
    slots: Enumerate<std::slice::IterMut<'a, Option<T>>>,
}

impl<'a, T> Iterator for IterMut<'a, T> {
    type Item = (FlowId, &'a mut T);

    fn next(&mut self) -> Option<Self::Item> {
        self.slots
            .find_map(|(i, slot)| slot.as_mut().map(|v| (FlowId(i as u32), v)))
    }
}

impl<'a, T> IntoIterator for &'a FlowMap<T> {
    type Item = (FlowId, &'a T);
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_allocates_nothing_and_finds_nothing() {
        let m: FlowMap<u64> = FlowMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.slots.capacity(), 0);
        assert!(m.get(&FlowId(0)).is_none());
        assert!(!m.contains_key(&FlowId(7)));
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn insert_get_replace_and_len() {
        let mut m = FlowMap::new();
        assert_eq!(m.insert(FlowId(3), "c"), None);
        assert_eq!(m.insert(FlowId(0), "a"), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&FlowId(3)), Some(&"c"));
        assert_eq!(m[&FlowId(0)], "a");
        // Ids between the present ones are holes, not entries.
        assert!(m.get(&FlowId(1)).is_none());
        assert!(m.get(&FlowId(99)).is_none());
        // Replacing keeps the length and returns the old value.
        assert_eq!(m.insert(FlowId(3), "C"), Some("c"));
        assert_eq!(m.len(), 2);
        *m.get_mut(&FlowId(0)).expect("present") = "A";
        assert_eq!(m.values().copied().collect::<Vec<_>>(), ["A", "C"]);
    }

    #[test]
    fn iteration_is_ascending_regardless_of_insert_order() {
        let mut m = FlowMap::new();
        for id in [5u32, 1, 9, 0, 4] {
            m.insert(FlowId(id), id * 10);
        }
        let keys: Vec<FlowId> = m.keys().collect();
        assert_eq!(keys, [0, 1, 4, 5, 9].map(FlowId));
        let pairs: Vec<(FlowId, u32)> = (&m).into_iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(pairs[2], (FlowId(4), 40));
        for (id, v) in m.iter_mut() {
            *v += id.0;
        }
        assert_eq!(m.values().copied().collect::<Vec<_>>(), [0, 11, 44, 55, 99]);
        for v in m.values_mut() {
            *v = 0;
        }
        assert!(m.iter_mut().all(|(_, v)| *v == 0));
    }

    #[test]
    fn removal_leaves_a_hole_that_reinsertion_fills() {
        let mut m = FlowMap::new();
        for id in 0..4u32 {
            m.insert(FlowId(id), id);
        }
        assert_eq!(m.remove(&FlowId(2)), Some(2));
        assert_eq!(m.remove(&FlowId(2)), None, "double remove is a no-op");
        assert_eq!(
            m.remove(&FlowId(40)),
            None,
            "out-of-range remove is a no-op"
        );
        assert_eq!(m.len(), 3);
        assert!(!m.contains_key(&FlowId(2)));
        assert_eq!(m.keys().collect::<Vec<_>>(), [0, 1, 3].map(FlowId));
        assert_eq!(m.insert(FlowId(2), 20), None);
        assert_eq!(m.len(), 4);
        assert_eq!(m.keys().collect::<Vec<_>>(), [0, 1, 2, 3].map(FlowId));
        assert_eq!(m[&FlowId(2)], 20);
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut m = FlowMap::new();
        *m.get_or_insert_with(FlowId(3), || 1) += 10;
        *m.get_or_insert_with(FlowId(3), || 100) += 10;
        assert_eq!(m.len(), 1);
        assert_eq!(m[&FlowId(3)], 21);
        assert_eq!(*m.get_or_insert_with(FlowId(0), || 7), 7);
        assert_eq!(m.keys().collect::<Vec<_>>(), [0, 3].map(FlowId));
    }

    #[test]
    #[should_panic(expected = "never inserted")]
    fn indexing_a_missing_id_panics() {
        let m: FlowMap<u8> = FlowMap::new();
        let _ = m[&FlowId(0)];
    }
}
