//! Per-core service lists: the flows a core polls, round-robin, each with
//! a busy bit at its list position.
//!
//! A core poll scans its list cyclically from the round-robin cursor and
//! serves the first flow with work. Only a few of a core's flows hold
//! packets at any instant, so the bits sit in `u64` words, one bit per
//! position, and the scan jumps from one set bit to the next with
//! `trailing_zeros` instead of stepping over every listed flow.

use ceio_net::FlowId;

/// One core's service list. Position `p` holds a flow id and a busy bit;
/// bits at positions past the list's end are always clear.
#[derive(Debug, Default)]
pub(crate) struct ServiceList {
    ids: Vec<FlowId>,
    busy: Vec<u64>,
}

impl ServiceList {
    /// Number of listed flows.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the list holds no flow.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The listed flows, in position order.
    #[inline]
    pub(crate) fn ids(&self) -> &[FlowId] {
        &self.ids
    }

    /// Append `id` with a clear busy bit and return its position.
    pub(crate) fn push(&mut self, id: FlowId) -> usize {
        let pos = self.ids.len();
        if pos.is_multiple_of(64) {
            self.busy.push(0);
        }
        self.ids.push(id);
        pos
    }

    /// Whether position `pos` is marked busy.
    #[inline]
    pub(crate) fn is_busy(&self, pos: usize) -> bool {
        self.busy[pos / 64] & (1 << (pos % 64)) != 0
    }

    /// Mark position `pos` busy.
    #[inline]
    pub(crate) fn set_busy(&mut self, pos: usize) {
        debug_assert!(
            pos < self.ids.len(),
            "invariant: busy bits stay in the list"
        );
        self.busy[pos / 64] |= 1 << (pos % 64);
    }

    /// Clear position `pos`'s busy bit.
    #[inline]
    pub(crate) fn clear_busy(&mut self, pos: usize) {
        self.busy[pos / 64] &= !(1 << (pos % 64));
    }

    /// The first busy position at or after `start`, wrapping to the list's
    /// front, or `None` when no position is busy.
    #[inline]
    pub(crate) fn next_busy(&self, start: usize) -> Option<usize> {
        next_set(&self.busy, start)
    }

    /// Keep the flows for which `keep(id, new_pos)` returns `true`, in
    /// order and each with its busy bit; `new_pos` is the position the
    /// flow takes if kept.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(FlowId, usize) -> bool) {
        let mut kept = 0;
        for pos in 0..self.ids.len() {
            let id = self.ids[pos];
            if keep(id, kept) {
                let busy = self.is_busy(pos);
                self.ids[kept] = id;
                self.clear_busy(kept);
                if busy {
                    self.set_busy(kept);
                }
                kept += 1;
            }
        }
        self.ids.truncate(kept);
        self.busy.truncate(kept.div_ceil(64));
        if !kept.is_multiple_of(64) {
            self.busy[kept / 64] &= (1 << (kept % 64)) - 1;
        }
    }
}

/// The first set bit of `words` at a position `>= start`, else the first
/// below `start` (cyclic order from `start`), or `None` when no bit is
/// set. `start` must lie inside `words`.
#[inline]
fn next_set(words: &[u64], start: usize) -> Option<usize> {
    let first = start / 64;
    let mut w = first;
    let mut word = words[w] & (!0u64 << (start % 64));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        if w == words.len() {
            break;
        }
        word = words[w];
    }
    // Nothing at or after `start`, so any set bit of the words up to and
    // including `start`'s lies below `start`.
    let w = words[..=first].iter().position(|&word| word != 0)?;
    Some(w * 64 + words[w].trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The list as a plain vector of `(id, busy)` pairs.
    type Model = Vec<(FlowId, bool)>;

    /// What `next_busy` must return: a linear cyclic walk from `start`.
    fn model_next(model: &Model, start: usize) -> Option<usize> {
        let n = model.len();
        (0..n).map(|k| (start + k) % n).find(|&p| model[p].1)
    }

    #[test]
    fn next_set_wraps_across_words() {
        let mut words = vec![0u64; 3];
        assert_eq!(next_set(&words, 70), None);
        words[0] = 1 << 5;
        words[2] = 1 << 1;
        assert_eq!(next_set(&words, 0), Some(5));
        assert_eq!(next_set(&words, 5), Some(5));
        assert_eq!(next_set(&words, 6), Some(129));
        assert_eq!(next_set(&words, 129), Some(129));
        assert_eq!(next_set(&words, 130), Some(5));
        assert_eq!(next_set(&words, 191), Some(5));
    }

    #[test]
    fn retain_moves_bits_with_their_flows() {
        let mut list = ServiceList::default();
        for i in 0..130 {
            assert_eq!(list.push(FlowId(i)), i as usize);
        }
        for pos in [0, 63, 64, 65, 129] {
            list.set_busy(pos);
        }
        let mut moved = Vec::new();
        list.retain(|id, pos| {
            let keep = id.0 % 2 == 1;
            if keep {
                moved.push((id.0, pos));
            }
            keep
        });
        assert_eq!(list.len(), 65);
        assert!(moved.iter().all(|&(id, pos)| list.ids()[pos] == FlowId(id)));
        // Odd ids 63, 65 and 129 keep their bits at their new positions.
        let busy: Vec<usize> = (0..list.len()).filter(|&p| list.is_busy(p)).collect();
        assert_eq!(busy, vec![31, 32, 64]);
        assert_eq!(list.busy.len(), 2);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Push,
        Set(usize),
        Clear(usize),
        /// Keep the positions whose bit in the mask (cycled) is set.
        Retain(u64),
        Next(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => Just(Op::Push),
            4 => (0usize..512).prop_map(Op::Set),
            2 => (0usize..512).prop_map(Op::Clear),
            1 => any::<u64>().prop_map(Op::Retain),
            6 => (0usize..512).prop_map(Op::Next),
        ]
    }

    proptest! {
        /// Random growth past several words, retains, sets and clears:
        /// the cyclic search returns what a linear walk over the list
        /// returns (at sampled starts, and at every start at the end), the
        /// ids and bits match the plain vector, and no bit survives past
        /// the list's end.
        #[test]
        fn next_busy_matches_a_linear_cyclic_scan(
            ops in prop::collection::vec(op_strategy(), 1..400),
        ) {
            let mut list = ServiceList::default();
            let mut model: Model = Vec::new();
            let mut next_id = 0u32;
            for op in &ops {
                match *op {
                    Op::Push => {
                        prop_assert_eq!(list.push(FlowId(next_id)), model.len());
                        model.push((FlowId(next_id), false));
                        next_id += 1;
                    }
                    Op::Set(_) | Op::Clear(_) if model.is_empty() => {}
                    Op::Set(p) => {
                        let p = p % model.len();
                        list.set_busy(p);
                        model[p].1 = true;
                    }
                    Op::Clear(p) => {
                        let p = p % model.len();
                        list.clear_busy(p);
                        model[p].1 = false;
                    }
                    Op::Retain(mask) => {
                        let mut old = 0;
                        let mut positions = Vec::new();
                        list.retain(|id, pos| {
                            let keep = mask & (1 << (old % 64)) != 0;
                            old += 1;
                            if keep {
                                positions.push((id, pos));
                            }
                            keep
                        });
                        let mut i = 0;
                        model.retain(|_| {
                            i += 1;
                            mask & (1 << ((i - 1) % 64)) != 0
                        });
                        let expected: Vec<(FlowId, usize)> =
                            model.iter().enumerate().map(|(p, &(id, _))| (id, p)).collect();
                        prop_assert_eq!(positions, expected);
                    }
                    Op::Next(s) => {
                        if !model.is_empty() {
                            let s = s % model.len();
                            prop_assert_eq!(list.next_busy(s), model_next(&model, s));
                        }
                    }
                }
                prop_assert_eq!(list.len(), model.len());
                prop_assert_eq!(list.busy.len(), model.len().div_ceil(64));
                for (p, &(id, busy)) in model.iter().enumerate() {
                    prop_assert_eq!(list.ids()[p], id);
                    prop_assert_eq!(list.is_busy(p), busy);
                }
                for p in model.len()..list.busy.len() * 64 {
                    prop_assert!(!list.is_busy(p), "bit {} past the end is set", p);
                }
            }
            for s in 0..model.len() {
                prop_assert_eq!(list.next_busy(s), model_next(&model, s));
            }
        }
    }
}
