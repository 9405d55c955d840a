//! The undo journal behind every simulator rewind.

/// Undo records over a collection keyed by dense indices (arena slots,
/// file ids). A mark is a position in the journal; rewinding pops the
/// records above it and the owner writes each pre-image back, newest
/// first. A key's pre-image is recorded only on its first touch since the
/// newest mark, so the journal grows with the keys touched, not with the
/// operation count. Off until the first [`UndoJournal::mark`].
#[derive(Debug, Clone)]
pub(crate) struct UndoJournal<V> {
    /// `(key, pre-image)`, oldest first; `None` means the key was absent.
    records: Vec<(usize, Option<V>)>,
    /// Per key, the epoch in which it was last recorded.
    stamps: Vec<u64>,
    /// Bumped by every mark and rewind, so the stamps of earlier segments
    /// go stale and their keys are recorded again on the next touch.
    /// Zero while the journal is off.
    epoch: u64,
}

impl<V> Default for UndoJournal<V> {
    fn default() -> Self {
        UndoJournal {
            records: Vec::new(),
            stamps: Vec::new(),
            epoch: 0,
        }
    }
}

impl<V> UndoJournal<V> {
    /// Records `key`'s pre-image, as computed by `pre`, if this is the
    /// key's first touch since the newest mark. Call before mutating.
    pub(crate) fn touch(&mut self, key: usize, pre: impl FnOnce() -> Option<V>) {
        if self.epoch == 0 {
            return;
        }
        if key >= self.stamps.len() {
            self.stamps.resize(key + 1, 0);
        }
        if self.stamps[key] != self.epoch {
            self.stamps[key] = self.epoch;
            self.records.push((key, pre()));
        }
    }

    /// Opens a new segment, switching the journal on, and returns the
    /// position a later [`UndoJournal::rewind`] returns to.
    pub(crate) fn mark(&mut self) -> usize {
        self.epoch += 1;
        self.records.len()
    }

    /// Pops every record above `mark`, newest first, for the caller to
    /// write back, and opens a new segment at `mark`. Marks above `mark`
    /// become invalid.
    pub(crate) fn rewind(&mut self, mark: usize) -> impl Iterator<Item = (usize, Option<V>)> + '_ {
        self.epoch += 1;
        self.records.drain(mark..).rev()
    }

    /// Drops all history and switches the journal off until the next
    /// mark; every earlier mark becomes invalid.
    pub(crate) fn clear(&mut self) {
        *self = UndoJournal::default();
    }

    /// Number of undo records held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }
}
