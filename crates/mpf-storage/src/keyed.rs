//! Sorted keyed orders of a relation's rows, their trie levels, and the
//! memo that keeps them on stored relations.
//!
//! The sparse kernels key every operand by linearizing its rows under an
//! axis order and sorting the result. For a stored base relation that
//! work depends only on the key column and the axis order, so it is the
//! same on every query: a relation that carries a memo (what
//! `RelationStore::insert` gives it) builds each order once and hands out
//! the shared [`KeyedOrder`] afterwards. Measures are never part of an
//! order — callers gather them through [`KeyedOrder::gather`] — so a
//! measure update leaves the memo valid; a key mutation drops it.
//!
//! An order is also the listing a trie indexes: its keys grouped by
//! their leading digits ([`KeyedOrder::runs`]) and split into one digit
//! column per axis ([`KeyedOrder::digits`]). Both levels depend only on
//! the sorted keys and the axis domains, so they are built on first read,
//! only for the prefix lengths and axes a kernel asks for, and a memoized
//! order keeps them for every later query.

use std::borrow::Cow;
use std::sync::{Arc, Mutex, OnceLock};

/// A relation's rows linearized under one axis order and sorted:
/// strictly ascending `u64` keys, plus the row each key came from when
/// the rows do not already ascend in that order, and the trie levels
/// read so far.
#[derive(Debug, Clone)]
pub struct KeyedOrder {
    keys: Vec<u64>,
    perm: Option<Vec<u32>>,
    /// The axis domains the keys are linearized over, slowest first.
    doms: Box<[u64]>,
    /// Digit column of each axis, filled on first read.
    digits: Box<[OnceLock<Vec<u32>>]>,
    /// Runs of each prefix length `0..=axes`, filled on first read.
    runs: Box<[OnceLock<Runs>]>,
}

/// The keys of a [`KeyedOrder`] grouped by their first `p` digits: run
/// `r` is the keys `starts[r]..starts[r + 1]`, whose leading `p` digits
/// linearize to `prefixes[r]` (ascending, one run per distinct prefix).
#[derive(Debug, Clone, Default)]
pub struct Runs {
    prefixes: Vec<u64>,
    starts: Vec<u32>,
}

impl Runs {
    /// Each run's prefix, ascending.
    pub fn prefixes(&self) -> &[u64] {
        &self.prefixes
    }

    /// Each run's first key index, then the key count: `len() + 1`
    /// entries.
    pub fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// The key indices of run `r`.
    #[inline]
    pub fn range(&self, r: usize) -> (usize, usize) {
        (self.starts[r] as usize, self.starts[r + 1] as usize)
    }

    /// The number of runs.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// Whether there are no runs (the order has no keys).
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    fn heap_bytes(&self) -> usize {
        self.prefixes.capacity() * std::mem::size_of::<u64>()
            + self.starts.capacity() * std::mem::size_of::<u32>()
    }
}

/// `key / div` over ascending keys, recomputed only when a key leaves the
/// current quotient's range: one division per run of equal quotient, none
/// inside a run.
struct Quotient {
    div: u64,
    q: u64,
    bound: u64,
}

impl Quotient {
    fn new(div: u64) -> Quotient {
        // `bound == 0`: the first key computes its quotient.
        Quotient {
            div,
            q: 0,
            bound: 0,
        }
    }

    #[inline]
    fn of(&mut self, key: u64) -> u64 {
        if key >= self.bound {
            self.q = key / self.div;
            self.bound = (self.q + 1) * self.div;
        }
        self.q
    }
}

impl KeyedOrder {
    /// Sort per-row keys, linearized over the axis domains `doms`,
    /// ascending (a check only when they already ascend). `None` on a
    /// repeated key — two rows with the same argument tuple, so the rows
    /// are not functional — or more than `u32::MAX` rows.
    pub fn from_keys(keys: Vec<u64>, doms: &[u64]) -> Option<KeyedOrder> {
        u32::try_from(keys.len()).ok()?;
        if keys.windows(2).all(|w| w[0] < w[1]) {
            return Some(KeyedOrder::new(keys, None, doms));
        }
        let mut pairs: Vec<(u64, u32)> = keys.into_iter().zip(0u32..).collect();
        pairs.sort_unstable_by_key(|p| p.0);
        if pairs.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        let (keys, perm) = pairs.into_iter().unzip();
        Some(KeyedOrder::new(keys, Some(perm), doms))
    }

    /// Keys already strictly ascending (a grid or coordinate column in its
    /// own order; asserted in debug builds only), at most `u32::MAX` of
    /// them.
    pub(crate) fn ascending(keys: Vec<u64>, doms: &[u64]) -> KeyedOrder {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(u32::try_from(keys.len()).is_ok(), "rows index as u32");
        KeyedOrder::new(keys, None, doms)
    }

    fn new(keys: Vec<u64>, perm: Option<Vec<u32>>, doms: &[u64]) -> KeyedOrder {
        KeyedOrder {
            keys,
            perm,
            doms: doms.into(),
            digits: doms.iter().map(|_| OnceLock::new()).collect(),
            runs: (0..=doms.len()).map(|_| OnceLock::new()).collect(),
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

    /// The grid cells under a prefix of length `p`: the product of the
    /// domains of the axes after it.
    fn suffix_cells(&self, p: usize) -> u64 {
        self.doms[p..].iter().product()
    }

    /// The keys grouped by their first `p` digits (`p <= doms().len()`).
    /// Built on first read from the keys alone: one division per run
    /// finds its prefix and its end, and a scan of compares finds the
    /// next run's start.
    pub fn runs(&self, p: usize) -> &Runs {
        self.runs[p].get_or_init(|| {
            let (keys, cells) = (&self.keys[..], self.suffix_cells(p));
            let mut runs = Runs::default();
            let mut i = 0;
            while i < keys.len() {
                let prefix = keys[i] / cells;
                let end = (prefix + 1) * cells;
                runs.prefixes.push(prefix);
                runs.starts.push(i as u32);
                i += 1 + keys[i + 1..].iter().take_while(|&&k| k < end).count();
            }
            runs.starts.push(keys.len() as u32);
            runs.prefixes.shrink_to_fit();
            runs.starts.shrink_to_fit();
            runs
        })
    }

    /// Axis `k`'s digit of every key, in key order, built on first read
    /// from the keys alone (one division per run of equal digits, none
    /// inside a run) and kept.
    pub fn digits(&self, k: usize) -> &[u32] {
        self.digits[k].get_or_init(|| self.digit_iter(k).collect())
    }

    /// Axis `k`'s digit of every key, in key order, computed from the keys
    /// alone as `key / lo - key / hi * dom` (`lo` the cells under axis
    /// `k`, `hi = lo * dom`): each quotient is recomputed only when the
    /// keys leave its range, so no division happens inside a run of equal
    /// digits.
    fn digit_iter(&self, k: usize) -> impl Iterator<Item = u32> + '_ {
        let (dom, lo) = (self.doms[k], self.suffix_cells(k + 1));
        let (mut hi_q, mut lo_q) = (Quotient::new(lo * dom), Quotient::new(lo));
        self.keys.iter().map(move |&key| {
            let q = if lo == 1 { key } else { lo_q.of(key) };
            (q - hi_q.of(key) * dom) as u32
        })
    }

    /// Each key's `Σ digit·weight` over `(axis, weight)` pairs: its part
    /// of a coordinate on another grid. With `keep` (an order that
    /// outlives the call, such as a memoized one) the digit columns are
    /// kept for later calls; otherwise a digit column not kept already is
    /// summed as it is computed and never stored.
    pub fn weighted_digits(&self, weights: &[(usize, u64)], keep: bool) -> Vec<u64> {
        let mut out = vec![0u64; self.keys.len()];
        for &(k, w) in weights {
            if keep || self.digits[k].get().is_some() {
                for (g, &d) in out.iter_mut().zip(self.digits(k)) {
                    *g += u64::from(d) * w;
                }
            } else {
                for (g, d) in out.iter_mut().zip(self.digit_iter(k)) {
                    *g += u64::from(d) * w;
                }
            }
        }
        out
    }

    /// A per-row column (the measures) in key order: borrowed when the
    /// rows already ascend, gathered through the permutation otherwise.
    pub fn gather<'a>(&self, column: &'a [f64]) -> Cow<'a, [f64]> {
        match &self.perm {
            None => Cow::Borrowed(column),
            Some(p) => Cow::Owned(p.iter().map(|&i| column[i as usize]).collect()),
        }
    }

    /// Heap bytes held, at vector capacity: keys, permutation, domains,
    /// the level slots and every level built so far.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self
                .perm
                .as_ref()
                .map_or(0, |p| p.capacity() * std::mem::size_of::<u32>())
            + std::mem::size_of_val::<[u64]>(&self.doms)
            + std::mem::size_of_val::<[OnceLock<Vec<u32>>]>(&self.digits)
            + std::mem::size_of_val::<[OnceLock<Runs>]>(&self.runs)
            + self
                .digits
                .iter()
                .filter_map(OnceLock::get)
                .map(|d| d.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
            + self
                .runs
                .iter()
                .filter_map(OnceLock::get)
                .map(Runs::heap_bytes)
                .sum::<usize>()
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
    /// domains are not its own, or the keys are a grid's implicit `0..len`
    /// or a coordinate column's own coordinates.
    Fresh,
}

/// Per-relation memo of inferred domains and keyed orders. Shared by
/// `Arc` between clones of a relation (copy-on-write snapshots keep it);
/// the mutex covers only lookup and insert, never a build (an order's
/// levels fill through their own `OnceLock`s, outside it).
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
            + st.orders
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
        let asc = KeyedOrder::from_keys(vec![1, 4, 9], &[10]).unwrap();
        assert_eq!((asc.keys(), asc.perm()), (&[1u64, 4, 9][..], None));
        let sorted = KeyedOrder::from_keys(vec![9, 1, 4], &[10]).unwrap();
        assert_eq!(sorted.keys(), &[1, 4, 9]);
        assert_eq!(sorted.perm(), Some(&[1u32, 2, 0][..]));
        assert_eq!(&*sorted.gather(&[90.0, 10.0, 40.0]), &[10.0, 40.0, 90.0]);
        assert!(KeyedOrder::from_keys(vec![3, 1, 3], &[10]).is_none());
        assert!(KeyedOrder::from_keys(vec![1, 1], &[10]).is_none());
    }

    /// Every digit, weighted digit sum, run start and prefix equal the
    /// `/`·`%` decomposition of the keys, on random sorted keys over grids
    /// mixing domains 1, 2, 2^16 + 1 and 2^31, at every level; a weighted
    /// sum without `keep` stores no digit column.
    #[test]
    fn levels_equal_the_division_decomposition() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let grids: [&[u64]; 6] = [
            &[1],
            &[2, 1, 2],
            &[(1 << 16) + 1, 2],
            &[1 << 31, (1 << 16) + 1, 2, 1],
            &[1, 1 << 31, 1],
            &[2, 2, 2, 2, 2, 2],
        ];
        for doms in grids {
            let cells: u64 = doms.iter().product();
            for n in [0usize, 1, 7, 300] {
                // Small grids take every cell; wide ones random keys in
                // adjacent pairs, so runs longer than one key appear.
                let mut keys: Vec<u64> = if cells <= n as u64 {
                    (0..cells).collect()
                } else {
                    (0..n)
                        .flat_map(|_| {
                            let k = next() % cells;
                            [k, (k + 1).min(cells - 1)]
                        })
                        .collect()
                };
                keys.sort_unstable();
                keys.dedup();
                let order = KeyedOrder::from_keys(keys.clone(), doms).unwrap();
                let mut strides = vec![1u64; doms.len()];
                for k in (0..doms.len().saturating_sub(1)).rev() {
                    strides[k] = strides[k + 1] * doms[k + 1];
                }
                // Every axis weighted (by its index + 1), streamed from a
                // fresh copy of the order, then kept.
                let weights: Vec<(usize, u64)> =
                    (0..doms.len()).map(|k| (k, k as u64 + 1)).collect();
                let want: Vec<u64> = keys
                    .iter()
                    .map(|&key| {
                        doms.iter()
                            .zip(&strides)
                            .zip(&weights)
                            .map(|((&d, &s), &(_, w))| key / s % d * w)
                            .sum()
                    })
                    .collect();
                let fresh = KeyedOrder::from_keys(keys.clone(), doms).unwrap();
                assert_eq!(fresh.weighted_digits(&weights, false), want, "{doms:?}");
                assert_eq!(
                    fresh.heap_bytes(),
                    KeyedOrder::from_keys(keys.clone(), doms)
                        .unwrap()
                        .heap_bytes()
                );
                assert_eq!(fresh.weighted_digits(&weights, true), want, "{doms:?}");
                for (k, (&d, &s)) in doms.iter().zip(&strides).enumerate() {
                    let want: Vec<u32> = keys.iter().map(|&key| (key / s % d) as u32).collect();
                    assert_eq!(order.digits(k), &want[..], "{doms:?} axis {k}");
                    assert_eq!(
                        fresh.digits[k].get().map(|d| &d[..]),
                        Some(&want[..]),
                        "kept"
                    );
                }
                for p in 0..=doms.len() {
                    let cells_below: u64 = doms[p..].iter().product();
                    let (mut prefixes, mut starts) = (Vec::new(), Vec::new());
                    for (i, &key) in keys.iter().enumerate() {
                        if prefixes.last() != Some(&(key / cells_below)) {
                            prefixes.push(key / cells_below);
                            starts.push(i as u32);
                        }
                    }
                    starts.push(keys.len() as u32);
                    let runs = order.runs(p);
                    assert_eq!(
                        (runs.prefixes(), runs.starts()),
                        (&prefixes[..], &starts[..]),
                        "{doms:?} prefix {p}"
                    );
                }
            }
        }
    }

    /// Levels are charged at capacity once built, and a clone carries
    /// the levels built so far.
    #[test]
    fn levels_are_charged_once_built() {
        let order = KeyedOrder::from_keys(vec![7, 2, 3, 11], &[4, 3]).unwrap();
        let bare = order.heap_bytes();
        assert_eq!(
            bare,
            4 * 8
                + 4 * 4
                + 2 * 8
                + 2 * std::mem::size_of::<OnceLock<Vec<u32>>>()
                + 3 * std::mem::size_of::<OnceLock<Runs>>()
        );
        assert_eq!(order.digits(1), &[2, 0, 1, 2]);
        assert_eq!(order.heap_bytes(), bare + 4 * 4);
        let runs = order.runs(1);
        assert_eq!(
            (runs.prefixes(), runs.starts()),
            (&[0u64, 1, 2, 3][..], &[0u32, 1, 2, 3, 4][..])
        );
        assert_eq!(order.heap_bytes(), bare + 4 * 4 + 4 * 8 + 5 * 4);
        assert_eq!(order.clone().heap_bytes(), order.heap_bytes());
    }

    #[test]
    fn racing_inserts_keep_the_first_order() {
        let memo = KeyedMemo::default();
        let first = memo.insert(&[1, 0], KeyedOrder::ascending(vec![0, 1, 2], &[3, 1]));
        let second = memo.insert(&[1, 0], KeyedOrder::ascending(vec![0, 1, 2], &[3, 1]));
        assert!(Arc::ptr_eq(&first, &second));
        assert!(memo.order(&[0, 1]).is_none());
        assert!(Arc::ptr_eq(&memo.order(&[1, 0]).unwrap(), &first));
    }
}
