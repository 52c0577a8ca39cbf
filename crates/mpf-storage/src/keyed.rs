//! Sorted keyed orders of a relation's rows, and the memo that keeps them
//! on stored relations.
//!
//! The sparse kernels key every operand by linearizing its rows under an
//! axis order and sorting the result. For a stored base relation that
//! work depends only on the key column and the axis order, so it is the
//! same on every query: a relation that carries a memo (what
//! `RelationStore::insert` gives it) builds each order once and hands out
//! the shared [`KeyedOrder`] afterwards. Measures are never part of an
//! order — callers gather them through [`KeyedOrder::gather`] — so a
//! measure update leaves the memo valid; a key mutation drops it.

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

/// A relation's rows linearized under one axis order and sorted:
/// strictly ascending `u64` keys, plus the row each key came from when
/// the rows do not already ascend in that order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedOrder {
    keys: Vec<u64>,
    perm: Option<Vec<u32>>,
}

impl KeyedOrder {
    /// Sort per-row keys ascending (a check only when they already
    /// ascend). `None` on a repeated key — two rows with the same argument
    /// tuple, so the rows are not functional — or more than `u32::MAX`
    /// rows.
    pub fn from_keys(keys: Vec<u64>) -> Option<KeyedOrder> {
        if keys.windows(2).all(|w| w[0] < w[1]) {
            return Some(KeyedOrder { keys, perm: None });
        }
        u32::try_from(keys.len()).ok()?;
        let mut pairs: Vec<(u64, u32)> = keys.into_iter().zip(0u32..).collect();
        pairs.sort_unstable_by_key(|p| p.0);
        if pairs.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        let (keys, perm) = pairs.into_iter().unzip();
        Some(KeyedOrder {
            keys,
            perm: Some(perm),
        })
    }

    /// The identity order `0..len` (a grid in its own odometer order).
    pub(crate) fn identity(len: usize) -> KeyedOrder {
        KeyedOrder {
            keys: (0..len as u64).collect(),
            perm: None,
        }
    }

    /// The sorted keys.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The sorted keys, by value.
    pub fn into_keys(self) -> Vec<u64> {
        self.keys
    }

    /// Row index of each key; `None` when row `i` holds key `i`.
    pub fn perm(&self) -> Option<&[u32]> {
        self.perm.as_deref()
    }

    /// A per-row column (the measures) in key order: borrowed when the
    /// rows already ascend, gathered through the permutation otherwise.
    pub fn gather<'a>(&self, column: &'a [f64]) -> Cow<'a, [f64]> {
        match &self.perm {
            None => Cow::Borrowed(column),
            Some(p) => Cow::Owned(p.iter().map(|&i| column[i as usize]).collect()),
        }
    }

    /// Heap bytes held, at vector capacity.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self
                .perm
                .as_ref()
                .map_or(0, |p| p.capacity() * std::mem::size_of::<u32>())
    }
}

/// Where [`crate::FunctionalRelation::keyed_order`] got its order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyedSource {
    /// Served from the relation's memo.
    Memo,
    /// Built and stored in the relation's memo.
    Built,
    /// Built for this call only: the relation has no memo, the requested
    /// domains are not its own, or the keys are a grid's implicit `0..len`.
    Fresh,
}

/// Per-relation memo of inferred domains and keyed orders. Shared by
/// `Arc` between clones of a relation (copy-on-write snapshots keep it);
/// the mutex covers only lookup and insert, never a build.
#[derive(Default)]
pub(crate) struct KeyedMemo(Mutex<MemoState>);

#[derive(Default)]
struct MemoState {
    domains: Option<Vec<u64>>,
    /// Orders by their axis order (schema positions, slowest first).
    orders: Vec<(Box<[usize]>, Arc<KeyedOrder>)>,
}

impl std::fmt::Debug for KeyedMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        f.debug_struct("KeyedMemo")
            .field("domains", &st.domains)
            .field("orders", &st.orders.len())
            .finish()
    }
}

impl KeyedMemo {
    fn lock(&self) -> std::sync::MutexGuard<'_, MemoState> {
        // The state is only ever replaced whole, so a poisoned lock still
        // guards a consistent memo.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn domains(&self) -> Option<Vec<u64>> {
        self.lock().domains.clone()
    }

    pub(crate) fn set_domains(&self, domains: &[u64]) {
        self.lock().domains = Some(domains.to_vec());
    }

    pub(crate) fn order(&self, axes: &[usize]) -> Option<Arc<KeyedOrder>> {
        let st = self.lock();
        st.orders
            .iter()
            .find(|(a, _)| **a == *axes)
            .map(|(_, o)| Arc::clone(o))
    }

    /// Store a freshly built order; when another thread stored the same
    /// axis order first, keep (and return) that one — both are equal.
    pub(crate) fn insert(&self, axes: &[usize], order: KeyedOrder) -> Arc<KeyedOrder> {
        let mut st = self.lock();
        if let Some((_, o)) = st.orders.iter().find(|(a, _)| **a == *axes) {
            return Arc::clone(o);
        }
        let order = Arc::new(order);
        st.orders.push((axes.into(), Arc::clone(&order)));
        order
    }

    /// Slots allocated for orders (charged by [`KeyedMemo::heap_bytes`]
    /// whether filled or not).
    #[cfg(test)]
    pub(crate) fn orders_capacity(&self) -> usize {
        self.lock().orders.capacity()
    }

    /// Heap bytes held by the memo, at capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        let st = self.lock();
        st.domains
            .as_ref()
            .map_or(0, |d| d.capacity() * std::mem::size_of::<u64>())
            + st.orders.capacity() * std::mem::size_of::<(Box<[usize]>, Arc<KeyedOrder>)>()
            + st
                .orders
                .iter()
                .map(|(a, o)| {
                    std::mem::size_of_val::<[usize]>(a)
                        + std::mem::size_of::<KeyedOrder>()
                        + o.heap_bytes()
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_keys_sorts_and_rejects_repeats() {
        let asc = KeyedOrder::from_keys(vec![1, 4, 9]).unwrap();
        assert_eq!((asc.keys(), asc.perm()), (&[1u64, 4, 9][..], None));
        let sorted = KeyedOrder::from_keys(vec![9, 1, 4]).unwrap();
        assert_eq!(sorted.keys(), &[1, 4, 9]);
        assert_eq!(sorted.perm(), Some(&[1u32, 2, 0][..]));
        assert_eq!(&*sorted.gather(&[90.0, 10.0, 40.0]), &[10.0, 40.0, 90.0]);
        assert!(KeyedOrder::from_keys(vec![3, 1, 3]).is_none());
        assert!(KeyedOrder::from_keys(vec![1, 1]).is_none());
    }

    #[test]
    fn racing_inserts_keep_the_first_order() {
        let memo = KeyedMemo::default();
        let first = memo.insert(&[1, 0], KeyedOrder::identity(3));
        let second = memo.insert(&[1, 0], KeyedOrder::identity(3));
        assert!(Arc::ptr_eq(&first, &second));
        assert!(memo.order(&[0, 1]).is_none());
        assert!(Arc::ptr_eq(&memo.order(&[1, 0]).unwrap(), &first));
    }
}
