//! The in-order ledger: how a session answers its records in input order.
//!
//! A batch answers one line per record, in input order, while its records
//! finish in any order. [`Ledger`] is the one structure both session
//! machines keep for that: the solving session (a record is opened as its
//! line is parsed, and answered when its solve completes) and the routed
//! batch of `busytime-router` (opened as its line is dispatched, and
//! answered when a shard's answer comes back).
//!
//! A record is *opened* in input order and gets the next sequence number.
//! It is *answered* by that number, in any order, and *taken* out only with
//! the contiguous answered prefix, so answers leave in input order. The
//! records still waiting can be listed: a routed batch that ends with one
//! answers it as lost from its own line number and bytes.

use std::collections::VecDeque;

/// Records in input order, each with the metadata it was opened with and,
/// once answered, its answer; see the [module docs](self).
pub struct Ledger<M, A> {
    entries: VecDeque<(M, Option<A>)>,
    /// The sequence number of the front entry.
    base: usize,
    /// Entries not answered yet.
    waiting: usize,
}

impl<M, A> Default for Ledger<M, A> {
    fn default() -> Self {
        Ledger {
            entries: VecDeque::new(),
            base: 0,
            waiting: 0,
        }
    }
}

impl<M, A> Ledger<M, A> {
    /// Opens the next record in input order and returns its sequence
    /// number.
    pub fn open(&mut self, meta: M) -> usize {
        self.entries.push_back((meta, None));
        self.waiting += 1;
        self.base + self.entries.len() - 1
    }

    /// The metadata of record `seq`, while it is in the ledger.
    pub fn get(&self, seq: usize) -> Option<&M> {
        let i = seq.checked_sub(self.base)?;
        self.entries.get(i).map(|(meta, _)| meta)
    }

    /// [`Ledger::get`], mutably.
    pub fn get_mut(&mut self, seq: usize) -> Option<&mut M> {
        let i = seq.checked_sub(self.base)?;
        self.entries.get_mut(i).map(|(meta, _)| meta)
    }

    /// Answers record `seq`, in any order. Returns `false`, dropping the
    /// answer, when the record is no longer waiting: answered already, taken
    /// out, or dropped when the ledger was cleared.
    pub fn answer(&mut self, seq: usize, answer: A) -> bool {
        let slot = seq
            .checked_sub(self.base)
            .and_then(|i| self.entries.get_mut(i));
        match slot {
            Some((_, slot @ None)) => {
                *slot = Some(answer);
                self.waiting -= 1;
                true
            }
            _ => false,
        }
    }

    /// Takes the front record out once it is answered. Called until it
    /// returns `None`, it drains the contiguous answered prefix in input
    /// order.
    pub fn take(&mut self) -> Option<(M, A)> {
        if !matches!(self.entries.front(), Some((_, Some(_)))) {
            return None;
        }
        let (meta, answer) = self.entries.pop_front()?;
        self.base += 1;
        Some((meta, answer?))
    }

    /// The records still waiting for their answers, in input order, with
    /// their sequence numbers.
    pub fn waiting(&self) -> impl Iterator<Item = (usize, &M)> {
        let base = self.base;
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, (_, answer))| answer.is_none())
            .map(move |(i, (meta, _))| (base + i, meta))
    }

    /// How many records wait for their answers.
    pub(crate) fn unanswered(&self) -> usize {
        self.waiting
    }

    /// Every record opened so far has been taken out.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every record: none of them is taken out, and later answers to
    /// them are dropped.
    pub(crate) fn clear(&mut self) {
        self.base += self.entries.len();
        self.entries.clear();
        self.waiting = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take_all<M, A>(ledger: &mut Ledger<M, A>) -> Vec<A> {
        std::iter::from_fn(|| ledger.take().map(|(_, answer)| answer)).collect()
    }

    #[test]
    fn takes_only_the_contiguous_answered_prefix() {
        let mut ledger = Ledger::default();
        let seqs: Vec<usize> = (0..3).map(|line| ledger.open(line)).collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert!(ledger.answer(2, "third"));
        assert!(ledger.answer(1, "second"));
        assert!(
            take_all(&mut ledger).is_empty(),
            "nothing leaves before seq 0"
        );
        assert!(ledger.answer(0, "first"));
        assert_eq!(take_all(&mut ledger), ["first", "second", "third"]);
        assert!(ledger.is_empty());
        assert!(!ledger.answer(1, "again"), "a taken record stays taken");
        assert_eq!(ledger.open(3), 3, "sequence numbers keep counting");
    }

    #[test]
    fn waiting_records_are_listed_so_a_hole_can_be_answered() {
        let mut ledger = Ledger::default();
        for meta in [(1, None), (5, Some("b")), (9, None)] {
            ledger.open(meta);
        }
        ledger.answer(0, String::from("first"));
        ledger.answer(2, String::from("third"));
        assert_eq!(take_all(&mut ledger), ["first"]);
        assert_eq!(ledger.unanswered(), 1);
        let holes: Vec<(usize, (usize, Option<&str>))> =
            ledger.waiting().map(|(seq, meta)| (seq, *meta)).collect();
        assert_eq!(holes, [(1, (5, Some("b")))], "a hole keeps its line and id");
        ledger.answer(1, String::from("lost"));
        assert_eq!(take_all(&mut ledger), ["lost", "third"]);
        assert_eq!(ledger.unanswered(), 0);
    }

    #[test]
    fn cleared_records_drop_their_late_answers() {
        let mut ledger = Ledger::default();
        ledger.open(());
        ledger.open(());
        ledger.clear();
        assert!(ledger.is_empty() && ledger.unanswered() == 0);
        assert!(!ledger.answer(1, 7), "a stale answer is dropped");
        assert_eq!(ledger.open(()), 2);
        assert!(ledger.answer(2, 8));
        assert_eq!(take_all(&mut ledger), [8]);
    }
}
