//! The simulated file-system namespace: a tree of directories and files.
//!
//! The namespace is purely logical — it tracks paths, kinds and sizes.
//! Physical placement of file bytes onto storage volumes lives in
//! [`crate::cluster`]. Themis's input model mirrors this tree (the paper's
//! `Tree_files`) to instantiate `FileName` operands.

use crate::error::{SimError, SimResult};
use crate::journal::UndoJournal;
use crate::types::{Bytes, FileId};
use std::collections::BTreeMap;

/// Kind of a namespace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A directory.
    Dir,
    /// A regular file.
    File,
}

#[derive(Debug, Clone)]
struct Entry {
    kind: EntryKind,
    /// For files: the stable file id; unused for directories.
    file: Option<FileId>,
    /// For files: logical size in bytes.
    size: Bytes,
    /// Children by name (directories only).
    children: BTreeMap<String, usize>,
    /// Arena index of the parent (root points to itself).
    parent: usize,
    /// Entry name within its parent ("" for the root).
    name: String,
}

/// A rewind point into the namespace undo journal: the journal mark plus
/// the small scalar state (`free` list, counters) that is cheaper to
/// checkpoint wholesale than to journal per slot.
#[derive(Debug, Clone)]
pub(crate) struct NsCheckpoint {
    mark: usize,
    arena_len: usize,
    free: Vec<usize>,
    next_file: u64,
    file_count: usize,
    total_bytes: Bytes,
}

/// A tree-structured namespace with POSIX-flavoured operations.
///
/// All mutating operations validate their preconditions and return
/// [`SimError`] on violation, mirroring the errors a FUSE-mounted DFS would
/// surface to a client.
#[derive(Debug, Clone)]
pub struct Namespace {
    arena: Vec<Option<Entry>>,
    free: Vec<usize>,
    next_file: u64,
    file_count: usize,
    total_bytes: Bytes,
    /// First-touch pre-images of arena slots (see [`crate::journal`]).
    journal: UndoJournal<Entry>,
}

impl Default for Namespace {
    fn default() -> Self {
        Self::new()
    }
}

impl Namespace {
    /// Creates a namespace containing only the root directory `/`.
    pub fn new() -> Self {
        let root = Entry {
            kind: EntryKind::Dir,
            file: None,
            size: 0,
            children: BTreeMap::new(),
            parent: 0,
            name: String::new(),
        };
        Namespace {
            arena: vec![Some(root)],
            free: Vec::new(),
            next_file: 1,
            file_count: 0,
            total_bytes: 0,
            journal: UndoJournal::default(),
        }
    }

    /// Number of undo records held (tests).
    #[cfg(test)]
    pub(crate) fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Drops the undo history and switches journaling off until the next
    /// checkpoint; every earlier checkpoint becomes invalid.
    pub(crate) fn clear_journal(&mut self) {
        self.journal.clear();
    }

    /// Captures the state needed to rewind back to this point, switching
    /// journaling on if it was off.
    pub(crate) fn checkpoint(&mut self) -> NsCheckpoint {
        NsCheckpoint {
            mark: self.journal.mark(),
            arena_len: self.arena.len(),
            free: self.free.clone(),
            next_file: self.next_file,
            file_count: self.file_count,
            total_bytes: self.total_bytes,
        }
    }

    /// Rewinds the namespace to the state captured by `cp`, writing back
    /// journaled slot pre-images newest-first. Checkpoints deeper than
    /// `cp` become invalid (their journal marks no longer exist).
    pub(crate) fn revert_to(&mut self, cp: &NsCheckpoint) {
        for (idx, old) in self.journal.rewind(cp.mark) {
            self.arena[idx] = old;
        }
        self.arena.truncate(cp.arena_len);
        self.free.clone_from(&cp.free);
        self.next_file = cp.next_file;
        self.file_count = cp.file_count;
        self.total_bytes = cp.total_bytes;
    }

    /// Splits a normalized absolute path into components.
    fn components(path: &str) -> Vec<&str> {
        path.split('/').filter(|c| !c.is_empty()).collect()
    }

    fn lookup(&self, path: &str) -> Option<usize> {
        let mut idx = 0usize;
        for comp in Self::components(path) {
            let entry = self.arena[idx].as_ref()?;
            idx = *entry.children.get(comp)?;
        }
        Some(idx)
    }

    fn entry(&self, idx: usize) -> &Entry {
        self.arena[idx].as_ref().expect("dangling namespace index")
    }

    /// Mutable access to an arena slot, journaling its pre-image on the
    /// slot's first touch since the newest checkpoint. Every namespace
    /// mutation goes through here.
    fn slot_mut(&mut self, idx: usize) -> &mut Option<Entry> {
        let arena = &self.arena;
        self.journal.touch(idx, || arena[idx].clone());
        &mut self.arena[idx]
    }

    fn entry_mut(&mut self, idx: usize) -> &mut Entry {
        self.slot_mut(idx)
            .as_mut()
            .expect("dangling namespace index")
    }

    fn alloc(&mut self, e: Entry) -> usize {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.arena.push(None);
            self.arena.len() - 1
        });
        *self.slot_mut(idx) = Some(e);
        idx
    }

    /// Resolves a path's parent directory index and final component.
    fn parent_of<'p>(&self, path: &'p str) -> SimResult<(usize, &'p str)> {
        let comps = Self::components(path);
        let (last, dirs) = comps
            .split_last()
            .ok_or_else(|| SimError::AlreadyExists("/".to_string()))?;
        let mut idx = 0usize;
        for comp in dirs {
            let entry = self.arena[idx]
                .as_ref()
                .ok_or_else(|| SimError::NoSuchPath(path.into()))?;
            if entry.kind != EntryKind::Dir {
                return Err(SimError::NotADirectory(path.into()));
            }
            idx = *entry
                .children
                .get(*comp)
                .ok_or_else(|| SimError::NoSuchPath(path.into()))?;
        }
        if self.entry(idx).kind != EntryKind::Dir {
            return Err(SimError::NotADirectory(path.into()));
        }
        Ok((idx, last))
    }

    /// Creates a directory. The parent must already exist.
    pub fn mkdir(&mut self, path: &str) -> SimResult<()> {
        let (parent, name) = self.parent_of(path)?;
        if self.entry(parent).children.contains_key(name) {
            return Err(SimError::AlreadyExists(path.into()));
        }
        let e = Entry {
            kind: EntryKind::Dir,
            file: None,
            size: 0,
            children: BTreeMap::new(),
            parent,
            name: name.to_string(),
        };
        let idx = self.alloc(e);
        self.entry_mut(parent)
            .children
            .insert(name.to_string(), idx);
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path: &str) -> SimResult<()> {
        let idx = self
            .lookup(path)
            .ok_or_else(|| SimError::NoSuchPath(path.into()))?;
        if idx == 0 {
            return Err(SimError::DirectoryNotEmpty("/".into()));
        }
        let entry = self.entry(idx);
        if entry.kind != EntryKind::Dir {
            return Err(SimError::NotADirectory(path.into()));
        }
        if !entry.children.is_empty() {
            return Err(SimError::DirectoryNotEmpty(path.into()));
        }
        let parent = entry.parent;
        let name = entry.name.clone();
        self.entry_mut(parent).children.remove(&name);
        *self.slot_mut(idx) = None;
        self.free.push(idx);
        Ok(())
    }

    /// Creates a file of the given size, returning its id.
    pub fn create(&mut self, path: &str, size: Bytes) -> SimResult<FileId> {
        let (parent, name) = self.parent_of(path)?;
        if self.entry(parent).children.contains_key(name) {
            return Err(SimError::AlreadyExists(path.into()));
        }
        let id = FileId(self.next_file);
        self.next_file += 1;
        let e = Entry {
            kind: EntryKind::File,
            file: Some(id),
            size,
            children: BTreeMap::new(),
            parent,
            name: name.to_string(),
        };
        let idx = self.alloc(e);
        self.entry_mut(parent)
            .children
            .insert(name.to_string(), idx);
        self.file_count += 1;
        self.total_bytes += size;
        Ok(id)
    }

    /// Deletes a file, returning its id and former size.
    pub fn delete(&mut self, path: &str) -> SimResult<(FileId, Bytes)> {
        let idx = self
            .lookup(path)
            .ok_or_else(|| SimError::NoSuchPath(path.into()))?;
        let entry = self.entry(idx);
        if entry.kind != EntryKind::File {
            return Err(SimError::IsADirectory(path.into()));
        }
        let id = entry.file.expect("file entry without id");
        let size = entry.size;
        let parent = entry.parent;
        let name = entry.name.clone();
        self.entry_mut(parent).children.remove(&name);
        *self.slot_mut(idx) = None;
        self.free.push(idx);
        self.file_count -= 1;
        self.total_bytes -= size;
        Ok((id, size))
    }

    /// Changes a file's size to `new_size`, returning `(id, old_size)`.
    ///
    /// This backs `append` (grow), `overwrite` (replace) and
    /// `truncate-overwrite` (shrink-then-write) operations.
    pub fn resize(&mut self, path: &str, new_size: Bytes) -> SimResult<(FileId, Bytes)> {
        let idx = self
            .lookup(path)
            .ok_or_else(|| SimError::NoSuchPath(path.into()))?;
        let entry = self.entry(idx);
        if entry.kind != EntryKind::File {
            return Err(SimError::IsADirectory(path.into()));
        }
        let old = entry.size;
        let id = entry.file.expect("file entry without id");
        self.entry_mut(idx).size = new_size;
        self.total_bytes = self.total_bytes - old + new_size;
        Ok((id, old))
    }

    /// Looks up a file for reading, returning `(id, size)`.
    pub fn open(&self, path: &str) -> SimResult<(FileId, Bytes)> {
        let idx = self
            .lookup(path)
            .ok_or_else(|| SimError::NoSuchPath(path.into()))?;
        let entry = self.entry(idx);
        if entry.kind != EntryKind::File {
            return Err(SimError::IsADirectory(path.into()));
        }
        Ok((entry.file.expect("file entry without id"), entry.size))
    }

    /// Renames (moves) a file or directory to a new path.
    ///
    /// The destination must not exist and its parent directory must exist.
    /// Returns the file id when a file was moved (renames of files change
    /// their DHT hash location, which matters for GlusterFS linkfiles).
    pub fn rename(&mut self, from: &str, to: &str) -> SimResult<Option<FileId>> {
        let idx = self
            .lookup(from)
            .ok_or_else(|| SimError::NoSuchPath(from.into()))?;
        if idx == 0 {
            return Err(SimError::IsADirectory("/".into()));
        }
        let (new_parent, new_name) = self.parent_of(to)?;
        if self.entry(new_parent).children.contains_key(new_name) {
            return Err(SimError::AlreadyExists(to.into()));
        }
        // Reject moving a directory into its own subtree.
        let mut cursor = new_parent;
        loop {
            if cursor == idx {
                return Err(SimError::NotADirectory(to.into()));
            }
            let p = self.entry(cursor).parent;
            if p == cursor {
                break;
            }
            cursor = p;
        }
        let old_parent = self.entry(idx).parent;
        let old_name = self.entry(idx).name.clone();
        self.entry_mut(old_parent).children.remove(&old_name);
        self.entry_mut(new_parent)
            .children
            .insert(new_name.to_string(), idx);
        let e = self.entry_mut(idx);
        e.parent = new_parent;
        e.name = new_name.to_string();
        Ok(e.file)
    }

    /// Whether the path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.lookup(path).is_some()
    }

    /// Kind of the entry at `path`, if it exists.
    pub fn kind(&self, path: &str) -> Option<EntryKind> {
        self.lookup(path).map(|i| self.entry(i).kind)
    }

    /// Number of files in the namespace.
    pub fn file_count(&self) -> usize {
        self.file_count
    }

    /// Sum of all file sizes.
    pub fn total_bytes(&self) -> Bytes {
        self.total_bytes
    }

    /// Collects every file as `(path, id, size)`, in depth-first order.
    pub fn files(&self) -> Vec<(String, FileId, Bytes)> {
        let mut out = Vec::with_capacity(self.file_count);
        self.walk(0, &mut String::new(), &mut out, &mut Vec::new(), None);
        out
    }

    /// Collects every directory path (excluding the root).
    pub fn directories(&self) -> Vec<String> {
        let mut dirs = Vec::new();
        let mut out = Vec::new();
        self.walk(0, &mut String::new(), &mut out, &mut dirs, None);
        dirs
    }

    /// Like [`Self::files`], skipping the top-level entry named `skip`
    /// without materializing its subtree's paths (the `/sys` preload tree
    /// can hold thousands of files a caller would only filter back out).
    pub fn files_excluding_top(&self, skip: &str) -> Vec<(String, FileId, Bytes)> {
        let mut out = Vec::new();
        self.walk(0, &mut String::new(), &mut out, &mut Vec::new(), Some(skip));
        out
    }

    /// Like [`Self::directories`], skipping the top-level entry named
    /// `skip` and everything beneath it.
    pub fn directories_excluding_top(&self, skip: &str) -> Vec<String> {
        let mut dirs = Vec::new();
        let mut out = Vec::new();
        self.walk(0, &mut String::new(), &mut out, &mut dirs, Some(skip));
        dirs
    }

    fn walk(
        &self,
        idx: usize,
        prefix: &mut String,
        files: &mut Vec<(String, FileId, Bytes)>,
        dirs: &mut Vec<String>,
        skip_top: Option<&str>,
    ) {
        let entry = self.entry(idx);
        for (name, &child_idx) in &entry.children {
            if prefix.is_empty() && skip_top == Some(name.as_str()) {
                continue;
            }
            let child = self.entry(child_idx);
            let len = prefix.len();
            prefix.push('/');
            prefix.push_str(name);
            match child.kind {
                EntryKind::File => files.push((
                    prefix.clone(),
                    child.file.expect("file entry without id"),
                    child.size,
                )),
                EntryKind::Dir => {
                    dirs.push(prefix.clone());
                    self.walk(child_idx, prefix, files, dirs, skip_top);
                }
            }
            prefix.truncate(len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_open_delete_roundtrip() {
        let mut ns = Namespace::new();
        let id = ns.create("/a.dat", 100).unwrap();
        assert_eq!(ns.open("/a.dat").unwrap(), (id, 100));
        assert_eq!(ns.file_count(), 1);
        assert_eq!(ns.total_bytes(), 100);
        let (did, size) = ns.delete("/a.dat").unwrap();
        assert_eq!((did, size), (id, 100));
        assert_eq!(ns.file_count(), 0);
        assert_eq!(ns.total_bytes(), 0);
        assert!(!ns.exists("/a.dat"));
    }

    #[test]
    fn mkdir_nested_and_rmdir() {
        let mut ns = Namespace::new();
        ns.mkdir("/d").unwrap();
        ns.mkdir("/d/e").unwrap();
        assert_eq!(ns.kind("/d/e"), Some(EntryKind::Dir));
        assert_eq!(
            ns.rmdir("/d"),
            Err(SimError::DirectoryNotEmpty("/d".into()))
        );
        ns.rmdir("/d/e").unwrap();
        ns.rmdir("/d").unwrap();
        assert!(!ns.exists("/d"));
    }

    #[test]
    fn mkdir_requires_existing_parent() {
        let mut ns = Namespace::new();
        assert!(matches!(ns.mkdir("/x/y"), Err(SimError::NoSuchPath(_))));
    }

    #[test]
    fn create_duplicate_fails() {
        let mut ns = Namespace::new();
        ns.create("/f", 1).unwrap();
        assert!(matches!(
            ns.create("/f", 2),
            Err(SimError::AlreadyExists(_))
        ));
    }

    #[test]
    fn resize_tracks_total_bytes() {
        let mut ns = Namespace::new();
        ns.create("/f", 50).unwrap();
        ns.resize("/f", 80).unwrap();
        assert_eq!(ns.total_bytes(), 80);
        ns.resize("/f", 10).unwrap();
        assert_eq!(ns.total_bytes(), 10);
    }

    #[test]
    fn rename_moves_file_between_dirs() {
        let mut ns = Namespace::new();
        ns.mkdir("/a").unwrap();
        ns.mkdir("/b").unwrap();
        let id = ns.create("/a/f", 7).unwrap();
        let moved = ns.rename("/a/f", "/b/g").unwrap();
        assert_eq!(moved, Some(id));
        assert!(!ns.exists("/a/f"));
        assert_eq!(ns.open("/b/g").unwrap(), (id, 7));
    }

    #[test]
    fn rename_into_own_subtree_is_rejected() {
        let mut ns = Namespace::new();
        ns.mkdir("/a").unwrap();
        ns.mkdir("/a/b").unwrap();
        assert!(ns.rename("/a", "/a/b/c").is_err());
        assert!(ns.exists("/a/b"));
    }

    #[test]
    fn rename_to_existing_target_fails() {
        let mut ns = Namespace::new();
        ns.create("/f", 1).unwrap();
        ns.create("/g", 1).unwrap();
        assert!(matches!(
            ns.rename("/f", "/g"),
            Err(SimError::AlreadyExists(_))
        ));
    }

    #[test]
    fn delete_directory_via_delete_is_rejected() {
        let mut ns = Namespace::new();
        ns.mkdir("/d").unwrap();
        assert!(matches!(ns.delete("/d"), Err(SimError::IsADirectory(_))));
    }

    #[test]
    fn files_listing_is_complete_and_sorted_by_walk() {
        let mut ns = Namespace::new();
        ns.mkdir("/d").unwrap();
        ns.create("/d/x", 1).unwrap();
        ns.create("/y", 2).unwrap();
        let files = ns.files();
        let paths: Vec<&str> = files.iter().map(|(p, _, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["/d/x", "/y"]);
        assert_eq!(ns.directories(), vec!["/d".to_string()]);
    }

    #[test]
    fn arena_slots_are_reused() {
        let mut ns = Namespace::new();
        ns.create("/a", 1).unwrap();
        let before = ns.arena.len();
        ns.delete("/a").unwrap();
        ns.create("/b", 1).unwrap();
        assert_eq!(ns.arena.len(), before, "freed slot should be reused");
    }

    #[test]
    fn file_ids_are_never_reused() {
        let mut ns = Namespace::new();
        let a = ns.create("/a", 1).unwrap();
        ns.delete("/a").unwrap();
        let b = ns.create("/a", 1).unwrap();
        assert_ne!(a, b);
    }

    type NsSnapshot = (Vec<(String, FileId, Bytes)>, Vec<String>, u64, Bytes);

    fn snapshot_of(ns: &Namespace) -> NsSnapshot {
        (ns.files(), ns.directories(), ns.next_file, ns.total_bytes())
    }

    #[test]
    fn journal_rewinds_mixed_mutations() {
        let mut ns = Namespace::new();
        ns.mkdir("/d").unwrap();
        ns.create("/d/a", 10).unwrap();
        let cp = ns.checkpoint();
        let before = snapshot_of(&ns);

        ns.create("/d/b", 5).unwrap();
        ns.resize("/d/a", 99).unwrap();
        ns.rename("/d/a", "/moved").unwrap();
        ns.mkdir("/e").unwrap();
        ns.create("/e/deep", 3).unwrap();
        ns.delete("/d/b").unwrap();
        ns.delete("/e/deep").unwrap();
        ns.rmdir("/e").unwrap();

        ns.revert_to(&cp);
        assert_eq!(snapshot_of(&ns), before);
        assert_eq!(ns.open("/d/a").unwrap().1, 10);
        assert!(!ns.exists("/moved"));
        assert_eq!(ns.file_count(), 1);
    }

    #[test]
    fn journal_checkpoints_nest_and_replay_identically() {
        let mut ns = Namespace::new();
        let base = ns.checkpoint();
        ns.create("/a", 1).unwrap();
        let mid = ns.checkpoint();
        let mid_state = snapshot_of(&ns);
        ns.create("/b", 2).unwrap();
        ns.rename("/a", "/c").unwrap();

        // Rewind to the middle mark, diverge, rewind to base, and check
        // that re-running the original prefix reproduces the exact state
        // (including reused file ids — determinism over uniqueness).
        ns.revert_to(&mid);
        assert_eq!(snapshot_of(&ns), mid_state);
        ns.create("/other", 9).unwrap();
        ns.revert_to(&base);
        assert_eq!(ns.file_count(), 0);
        ns.create("/a", 1).unwrap();
        assert_eq!(snapshot_of(&ns), mid_state);

        // Three nested marks whose segments all re-touch the same keys
        // (the root directory and `/a`'s slot): each segment keeps its own
        // first-touch pre-image, so restoring the innermost mark and then
        // the outermost lands exactly on each mark's state.
        let outer = ns.checkpoint();
        let outer_state = snapshot_of(&ns);
        ns.resize("/a", 2).unwrap();
        ns.create("/x", 1).unwrap();
        let _middle = ns.checkpoint();
        ns.resize("/a", 3).unwrap();
        ns.rename("/x", "/y").unwrap();
        let inner = ns.checkpoint();
        let inner_state = snapshot_of(&ns);
        ns.resize("/a", 4).unwrap();
        ns.delete("/y").unwrap();
        ns.resize("/a", 5).unwrap();
        assert_eq!(
            ns.journal.len() - inner.mark,
            3,
            "one record per key touched since the mark: `/a`, `/y` and the root"
        );
        ns.revert_to(&inner);
        assert_eq!(snapshot_of(&ns), inner_state);
        assert_eq!(ns.open("/a").unwrap().1, 3);
        ns.revert_to(&outer);
        assert_eq!(snapshot_of(&ns), outer_state);
        assert_eq!(ns.open("/a").unwrap().1, 1);
    }

    #[test]
    fn disabling_journal_clears_history() {
        let mut ns = Namespace::new();
        ns.create("/a", 1).unwrap();
        assert_eq!(ns.journal.len(), 0, "off until the first checkpoint");
        ns.checkpoint();
        ns.create("/b", 1).unwrap();
        assert!(ns.journal.len() > 0);
        ns.clear_journal();
        assert_eq!(ns.journal.len(), 0);
        ns.create("/c", 1).unwrap();
        assert_eq!(ns.journal.len(), 0, "off again until the next checkpoint");
    }
}
