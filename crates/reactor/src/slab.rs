//! Minimal slot map: stable `usize` keys for poller registration.
//!
//! Keys are reused after removal (freed slots go to a free list), so
//! owners that might see stale events for a recycled key should pair
//! the slab with a generation check of their own — the query server
//! deregisters sockets from the poller before freeing the slot, which
//! makes stale keys impossible there.

/// Vec-backed slot map with O(1) insert/remove/lookup.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    pub fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Store `value`, returning its key.
    pub fn insert(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(key) => {
                self.slots[key] = Some(value);
                key
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }

    /// Remove and return the value under `key`, freeing the slot.
    pub fn remove(&mut self, key: usize) -> Option<T> {
        let value = self.slots.get_mut(key)?.take();
        if value.is_some() {
            self.free.push(key);
        }
        value
    }

    pub fn get_mut(&mut self, key: usize) -> Option<&mut T> {
        self.slots.get_mut(key)?.as_mut()
    }

    /// Occupied keys, in slot order. Snapshot — safe to mutate the
    /// slab while walking the returned list.
    pub fn keys(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_and_key_reuse() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_ne!(a, b);
        assert_eq!(slab.keys().len(), 2);
        assert_eq!(slab.get_mut(a).map(|v| *v), Some("a"));
        *slab.get_mut(b).unwrap() = "B";
        assert_eq!(slab.remove(b), Some("B"));
        assert_eq!(slab.remove(b), None, "double remove is None");
        assert_eq!(slab.get_mut(b), None);

        let c = slab.insert("c");
        assert_eq!(c, b, "freed slot is reused");
        assert_eq!(slab.keys(), vec![a, c].into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn out_of_range_keys_are_none() {
        let mut slab: Slab<u8> = Slab::new();
        assert_eq!(slab.get_mut(3), None);
        assert!(slab.keys().is_empty());
    }
}
