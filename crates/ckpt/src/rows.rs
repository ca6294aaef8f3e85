//! Row deltas: a cut ships the rows that changed.
//!
//! An image a holder keeps between cuts is, for the most part, tables of
//! fixed-width rows sorted by key. A [`Layout`] names them — `(offset,
//! rows, width)` per [`Table`], the first 8 bytes of each row its key,
//! little-endian, keys strictly ascending within a table. This module knows
//! nothing else about an image: the crate that writes one owns the walk that
//! lays it out, and hands it to the cut envelope as a [`LayoutFn`].
//!
//! A row delta rebuilds a target image from a base image with the same
//! tables (same count, same widths). It carries:
//!
//! * every byte of the target outside its tables, whole, as opaque spans;
//! * per table, the target's row count, the rows *upserted* (a key the base
//!   lacks, or the same key with other bytes) and the keys *removed*, each
//!   list in key order.
//!
//! ## Encoding
//!
//! | field           | type          | meaning                                   |
//! |-----------------|---------------|-------------------------------------------|
//! | `base_len`      | `u64`         | byte length of the base it was cut against|
//! | `tables`        | `u64`         | number of tables                          |
//! | per table: `span` | bytes       | target bytes before the table             |
//! | `width`         | `u64`         | row width                                 |
//! | `rows`          | `u64`         | rows of the target's table                |
//! | `upserts`       | `u64` + rows  | count, then `count × width` bytes         |
//! | `removals`      | `u64` + keys  | count, then `count × 8` bytes             |
//! | `tail`          | bytes         | target bytes after the last table         |
//!
//! The sender (`RowPlan`) merge-walks the two images' tables side by side
//! and lists the changes by position, then writes them into an envelope
//! sized exactly — or, when the target's writer names the rows it changed
//! since the base ([`Changes`]), takes that list and walks neither table,
//! writing the same bytes. A receiver in the sender's own process takes
//! the plan as it is, with no encoding between: its rows are read where
//! they lie, the upserts and spans in the target, the removed keys in the
//! base. The receiver rebuilds the
//! target over the base itself, in the base's own allocation: a read-only
//! walk (`check`) first refuses a base of another length, a table of
//! another width, counts the payload cannot hold and row counts that could
//! not add up, then walks every table's merge to refuse unsorted or
//! repeated keys, a removal of a key the base lacks and a merge that does
//! not produce the declared rows — so a refused delta leaves the image byte
//! for byte as it was, and nothing is sized before it passes. Only then do
//! the bytes move (`rebuild`). A rebuild that passes all of it is still
//! only as good as the base it merged: the holder opens the result under
//! its own seal.
//!
//! ## Rebuilding in place
//!
//! The target is a sequence of *items*, each writing the next target
//! bytes: a span (from the wire, or the target), then its table's merge
//! steps — a run of kept base rows, an upsert (likewise), a removal
//! (writes nothing) — and at the end the tail. Walking them in order keeps two positions: the
//! write frontier `F` (where the next item's bytes go) and the first base
//! byte a later item still reads, `P` — the next unmerged base row, or,
//! before a span, the first row of the base's next table (the base's own
//! spans are never read), or past the tail nothing. Each item writes
//! `[F, F')` and moves `P` to `P'`.
//!
//! The base → target mapping of kept rows is monotone (key order is kept,
//! tables stay in order) and non-overlapping (each byte written once), and
//! that is all the order below needs:
//!
//! * *In place, left to right.* At a boundary where `F ≤ P`, an item whose
//!   write ends at or before `P'` is written at once: a run moving left or
//!   staying (`F ≤ P` holds for all its rows), an upsert over the base row
//!   it replaces or over bytes the merge is done with, a span over the
//!   base's span, the tail. Every base byte a later item reads lies at or
//!   past `P'` and no write reaches it; every key this walk reads is at or
//!   past `P`.
//! * *Deferred, then right to left.* An item whose write would pass `P'` —
//!   an inserted row or a longer span, pushing what follows right — opens a
//!   *stretch*: the walk goes on reading keys (still at or past `P`, still
//!   intact) and writes nothing until a boundary where `F ≤ P` again (at
//!   the latest past the tail, where nothing is read). Then the stretch is
//!   written from its end back to its start, walking the merge backwards.
//!   At every boundary inside a stretch `F > P`. Going backwards, the bytes
//!   written so far lie at or past the boundary's `F`, and everything still
//!   to be read or moved — the base rows of the items to its left — lies
//!   before its `P`: each backward read finds the base row where the base
//!   had it, and each write lands past what is still needed. A run that
//!   overlaps its own destination is a `copy_within`.
//!
//! So runs that move left go first, left to right, and the runs that move
//! right, with the upserts and spans among them, go right to left, stretch
//! by stretch. Inside a table only a removal brings `F` back towards `P`
//! (by one row), so once `F − P` exceeds the rows the table still removes,
//! the stretch cannot close before the table's end, and the forward walk
//! jumps there: `F` is where the table's declared rows end. A writer whose
//! tables only grow — the standby feed, until the cache's table starts to
//! forget — opens one stretch at its first inserted row and walks the rest
//! once, backwards. Nothing per row is kept: the walk holds one cursor and
//! the start of the open stretch, and a checked delta one entry per table.
//! Each base key is read once by the check and at most once each by the
//! forward walk and a stretch.
//!
//! A removal named by its base position has its key read in the base
//! where it lies, as the walks read every other base key, and under the
//! same rule: the forward walk reads the next removal, a base row not yet
//! merged, at or past `P`; a stretch, walking back, reads the one just
//! before its cursor, a base row of an item to the left of a boundary
//! whose `P` it lies before. Neither is a byte any write has reached.

use crate::{CkptError, Dec, Enc};
use std::borrow::Cow;

/// One id-sorted table inside an image: `rows` rows of `width` bytes each,
/// from byte `offset`. The first 8 bytes of a row are its key, little-endian.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table {
    /// Byte offset of the first row.
    pub offset: usize,
    /// Number of rows.
    pub rows: usize,
    /// Bytes per row, key included (at least 8).
    pub width: usize,
}

impl Table {
    /// One past the table's last byte.
    fn end(&self) -> usize {
        self.offset + self.rows * self.width
    }

    /// The table's rows in `image`.
    fn bytes<'a>(&self, image: &'a [u8]) -> &'a [u8] {
        &image[self.offset..self.end()]
    }
}

/// The tables of an image, in ascending, non-overlapping order.
pub type Layout = Vec<Table>;

/// How a holder finds the tables of its images: `None` for an image that
/// does not lay out (which then ships whole).
pub type LayoutFn = fn(&[u8]) -> Option<Layout>;

/// `layout(image)`, if every table has a key and lies inside the image
/// after the one before it.
fn tables(layout: LayoutFn, image: &[u8]) -> Option<Layout> {
    let tables = layout(image)?;
    let mut end = 0;
    for t in &tables {
        let fits = t.rows.checked_mul(t.width).and_then(|bytes| bytes.checked_add(t.offset));
        if t.width < 8 || t.offset < end || fits.is_none_or(|e| e > image.len()) {
            return None;
        }
        end = t.end();
    }
    Some(tables)
}

fn key(row: &[u8]) -> u64 {
    u64::from_le_bytes(row[..8].try_into().expect("8 bytes"))
}

/// One difference between a base table and a target table, by row.
enum Change {
    /// The target's row `i`: a key the base lacks, or holds with other
    /// bytes.
    Upsert(usize),
    /// The base's row `i`, whose key the target lacks.
    Remove(usize),
}

/// Walks two tables of `width`-byte rows side by side in key order and hands
/// `each` every change. `None` if either table's keys do not strictly ascend.
fn diff(base: &[u8], target: &[u8], width: usize, mut each: impl FnMut(Change)) -> Option<()> {
    let (mut b, mut t) = (base.chunks_exact(width).enumerate(), target.chunks_exact(width).enumerate());
    let (mut rb, mut rt) = (b.next(), t.next());
    // The key of the row consumed last on each side: the next must exceed it.
    let (mut last_b, mut last_t) = (None, None);
    let ascends = |last: &mut Option<u64>, row: &[u8]| {
        let k = key(row);
        let ok = last.is_none_or(|l| l < k);
        *last = Some(k);
        ok
    };
    loop {
        match (rb, rt) {
            (None, None) => return Some(()),
            (Some((_, old)), Some((i, new))) if key(old) == key(new) => {
                if !ascends(&mut last_b, old) || !ascends(&mut last_t, new) {
                    return None;
                }
                if old != new {
                    each(Change::Upsert(i));
                }
                (rb, rt) = (b.next(), t.next());
            }
            (Some((i, old)), new) if new.is_none_or(|(_, new)| key(old) < key(new)) => {
                if !ascends(&mut last_b, old) {
                    return None;
                }
                each(Change::Remove(i));
                rb = b.next();
            }
            (_, Some((i, new))) => {
                if !ascends(&mut last_t, new) {
                    return None;
                }
                each(Change::Upsert(i));
                rt = t.next();
            }
            (Some(_), None) => unreachable!("matched by the removal arm"),
        }
    }
}

/// What the writer of a target image knows changed since the base image it
/// wrote before: per table of the layout, the upserts and removals a diff
/// of the two images would find, as positions ([`TableChanges`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Changes {
    /// Boundary of the base the positions were taken against: a receiver
    /// that holds that cut holds the base.
    pub base_seq: u64,
    /// Per table, its changes.
    pub tables: Vec<TableChanges>,
}

/// One table's share of [`Changes`], each list ascending.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableChanges {
    /// Positions in the target of the rows the base lacks or holds with
    /// other bytes.
    pub upserts: Vec<u32>,
    /// Positions in the base of the rows whose keys the target lacks: the
    /// rows a writer with a bounded table forgot.
    pub removals: Vec<u32>,
}

/// The sender's half: the changes that turn a base image into `target`,
/// as positions ([`TableChanges`]), so the writer sizes its buffer exactly
/// and a receiver in the same process reads the rows where they lie. It
/// keeps nothing of the base but its length and layout: the base is named
/// again to each call that reads it.
pub(crate) struct RowPlan<'t> {
    base_len: usize,
    target: &'t [u8],
    /// Per table, the base's and the target's.
    tables: Vec<(Table, Table)>,
    /// Per table, its changes: the writer's list, or the diff's.
    changes: Cow<'t, [TableChanges]>,
}

/// Both images' layouts, if they have the same shape: as many tables, of
/// the same widths.
fn shapes(base: &[u8], target: &[u8], layout: LayoutFn) -> Option<Vec<(Table, Table)>> {
    let (old, new) = (tables(layout, base)?, tables(layout, target)?);
    let same = old.len() == new.len() && old.iter().zip(&new).all(|(o, n)| o.width == n.width);
    same.then(|| old.into_iter().zip(new).collect())
}

/// Row `i` of a table's `rows`, `width` bytes each.
fn row(rows: &[u8], i: u32, width: usize) -> &[u8] {
    let at = i as usize * width;
    &rows[at..at + width]
}

impl<'t> RowPlan<'t> {
    /// Plans `base → target` by diffing their tables. `None` when either
    /// image does not lay out, their layouts differ in shape, a table's
    /// keys do not ascend or its rows do not fit a `u32` position: the
    /// target then ships whole.
    pub(crate) fn new(base: &[u8], target: &'t [u8], layout: LayoutFn) -> Option<Self> {
        let tables = shapes(base, target, layout)?;
        let mut changes = Vec::with_capacity(tables.len());
        for (old, new) in &tables {
            u32::try_from(old.rows.max(new.rows)).ok()?;
            let mut listed = TableChanges::default();
            diff(old.bytes(base), new.bytes(target), new.width, |change| match change {
                Change::Upsert(i) => listed.upserts.push(i as u32),
                Change::Remove(i) => listed.removals.push(i as u32),
            })?;
            changes.push(listed);
        }
        Some(RowPlan { base_len: base.len(), target, tables, changes: Cow::Owned(changes) })
    }

    /// Plans `base → target` from the changes the target's writer names
    /// ([`Changes::tables`]), without walking either table. `None` when
    /// the images do not lay out alike, or the lists are not one per table,
    /// each ascending and inside its table, with upserts enough for the
    /// rows the target added past the base's kept ones — the sender then
    /// diffs. Whether the lists are *true* of `base` is the writer's word;
    /// a false one rebuilds an image its holder's open refuses, or is
    /// refused by the holder's check.
    pub(crate) fn from_changes(
        base: &[u8],
        target: &'t [u8],
        layout: LayoutFn,
        changes: &'t [TableChanges],
    ) -> Option<Self> {
        let tables = shapes(base, target, layout)?;
        if changes.len() != tables.len() {
            return None;
        }
        let fits = |list: &[u32], rows: usize| {
            list.windows(2).all(|w| w[0] < w[1]) && list.last().is_none_or(|&p| (p as usize) < rows)
        };
        for ((old, new), known) in tables.iter().zip(changes) {
            let kept = old.rows.checked_sub(known.removals.len())?;
            let added = new.rows.checked_sub(kept)?;
            if !fits(&known.upserts, new.rows)
                || !fits(&known.removals, old.rows)
                || added > known.upserts.len()
            {
                return None;
            }
        }
        Some(RowPlan { base_len: base.len(), target, tables, changes: Cow::Borrowed(changes) })
    }

    /// Per table, the base's and the target's, and its changes.
    fn each(&self) -> impl Iterator<Item = (&Table, &Table, &TableChanges)> {
        self.tables.iter().zip(self.changes.iter()).map(|((old, new), listed)| (old, new, listed))
    }

    /// Encoded length of the delta.
    pub(crate) fn len(&self) -> usize {
        let tables: usize = self
            .each()
            .map(|(_, new, c)| 5 * 8 + c.upserts.len() * new.width + c.removals.len() * 8)
            .sum();
        let spans =
            self.target.len() - self.tables.iter().map(|(_, new)| new.rows * new.width).sum::<usize>();
        8 + 8 + tables + spans + 8
    }

    /// Writes the delta onto `enc` ([`len`](Self::len) bytes), reading the
    /// removed keys in `base`, the image it was planned against.
    pub(crate) fn write(&self, base: &[u8], enc: &mut Enc) {
        debug_assert_eq!(base.len(), self.base_len, "the base it was planned against");
        enc.usize(self.base_len);
        enc.usize(self.tables.len());
        let mut end = 0;
        for (old, new, listed) in self.each() {
            let (rows, width) = (new.bytes(self.target), new.width);
            enc.bytes(&self.target[end..new.offset]);
            enc.usize(width);
            enc.usize(new.rows);
            enc.usize(listed.upserts.len());
            for &at in &listed.upserts {
                enc.raw(row(rows, at, width));
            }
            enc.usize(listed.removals.len());
            for &at in &listed.removals {
                enc.raw(&row(old.bytes(base), at, width)[..8]);
            }
            end = new.end();
        }
        enc.bytes(&self.target[end..]);
    }

    /// The check of a receiver in the same process: the plan read against
    /// `base`, the image it was planned against, with its rows where they
    /// lie — the upserts in the target's tables, the removed keys in
    /// `base`'s — through the same merge walk a shipped delta's [`check`]
    /// takes, refusing what it refuses. The checked delta borrows the plan
    /// and the target, not `base`, which [`rebuild`] then rewrites.
    pub(crate) fn check(&self, base: &[u8]) -> Result<Checked<'_>, CkptError> {
        same_base(self.base_len, base)?;
        let mut tables = Vec::with_capacity(self.tables.len());
        let mut end = 0;
        for (old, new, listed) in self.each() {
            let source = RowSource::Positions {
                rows: new.bytes(self.target),
                upserts: &listed.upserts,
                removals: &listed.removals,
            };
            tables.push(TableDelta::new(*old, &self.target[end..new.offset], new.rows, source)?);
            end = new.end();
        }
        Checked::walked(base, tables, &self.target[end..])
    }
}

fn malformed(why: impl Into<String>) -> CkptError {
    CkptError::Malformed(format!("row delta: {}", why.into()))
}

/// How far a table's merge has got: base rows, upserts and removals
/// consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cursor {
    b: usize,
    u: usize,
    r: usize,
}

/// One step of a table's merge, in key order: the base rows kept as they
/// are before the next change, then the change.
#[derive(Debug, Clone, Copy)]
struct Step<'a> {
    kept: usize,
    edit: Edit<'a>,
}

/// A change to a table, or the end of it.
#[derive(Debug, Clone, Copy)]
enum Edit<'a> {
    /// A row from the wire: in place of the base row of its key, or new.
    Upsert(&'a [u8]),
    /// A base row dropped.
    Remove,
    /// Nothing: the base rows kept are the table's last.
    End,
}

impl Edit<'_> {
    /// Target rows the change writes.
    fn rows(&self) -> usize {
        usize::from(matches!(self, Edit::Upsert(_)))
    }
}

/// Where a table's upserted rows and removed keys are read.
#[derive(Debug, Clone, Copy)]
enum RowSource<'a> {
    /// Packed in a shipped delta: the upserted rows, `width` bytes each,
    /// and the removed keys, 8 bytes each.
    Packed { upserts: &'a [u8], removals: &'a [u8] },
    /// Where they lie: the upserts by position among the target table's
    /// `rows`, the removals by position in the base table, whose keys are
    /// read there.
    Positions { rows: &'a [u8], upserts: &'a [u32], removals: &'a [u32] },
}

/// One table of a delta, read where it lies — in the wire bytes, or in the
/// target and the base — against the base table it rebuilds.
struct TableDelta<'a> {
    base: Table,
    span: &'a [u8],
    rows: usize,
    source: RowSource<'a>,
    /// Upserts and removals listed.
    upserted: usize,
    removed: usize,
}

impl<'a> TableDelta<'a> {
    /// A table of `rows` rows, after `span`, rebuilt over `base` from
    /// `source`. Refuses more rows than the base and the upserts together
    /// could make.
    fn new(base: Table, span: &'a [u8], rows: usize, source: RowSource<'a>) -> Result<Self, CkptError> {
        let (upserted, removed) = match source {
            RowSource::Packed { upserts, removals } => (upserts.len() / base.width, removals.len() / 8),
            RowSource::Positions { upserts, removals, .. } => (upserts.len(), removals.len()),
        };
        if rows > base.rows + upserted {
            return Err(malformed(format!(
                "{rows} rows from {} base rows and {upserted} upserts",
                base.rows
            )));
        }
        Ok(TableDelta { base, span, rows, source, upserted, removed })
    }

    /// Reads the next table of a delta against `base`, the base's table in
    /// the same place, refusing a width other than the base's, lists the
    /// payload cannot hold, and what [`new`](Self::new) refuses.
    fn read(d: &mut Dec<'a>, base: &Table) -> Result<Self, CkptError> {
        let span = d.bytes()?;
        let width = d.usize()?;
        if width != base.width {
            return Err(malformed(format!("{width}-byte rows against a {}-byte table", base.width)));
        }
        let rows = d.usize()?;
        let upserted = d.seq_len(width)?;
        let upserts = d.sub(upserted * width)?.rest();
        let removed = d.seq_len(8)?;
        let removals = d.sub(removed * 8)?.rest();
        TableDelta::new(*base, span, rows, RowSource::Packed { upserts, removals })
    }

    fn upsert(&self, i: usize) -> &'a [u8] {
        let (rows, at) = match self.source {
            RowSource::Packed { upserts, .. } => (upserts, i),
            RowSource::Positions { rows, upserts, .. } => (rows, upserts[i] as usize),
        };
        let w = self.base.width;
        &rows[at * w..(at + 1) * w]
    }

    /// The key of removal `i`; by position, read where the base table lies
    /// in `image` — a row the rebuild has not yet moved (see the module
    /// docs).
    fn removal(&self, image: &[u8], i: usize) -> u64 {
        match self.source {
            RowSource::Packed { removals, .. } => key(&removals[8 * i..]),
            RowSource::Positions { removals, .. } => {
                key(&self.base.bytes(image)[removals[i] as usize * self.base.width..])
            }
        }
    }

    /// The cursor past the last step.
    fn end(&self) -> Cursor {
        Cursor { b: self.base.rows, u: self.upserted, r: self.removed }
    }

    /// The step after `at`, which it moves past, reading the base's keys
    /// where the base table lies in `image`; `None` past the last. Refuses
    /// a key both upserted and removed, a removal of a key the base lacks,
    /// and lists whose keys do not ascend.
    fn next(&self, image: &[u8], at: &mut Cursor) -> Result<Option<Step<'a>>, CkptError> {
        let (w, rows) = (self.base.width, self.base.bytes(image));
        let upsert = (at.u < self.upserted).then(|| self.upsert(at.u));
        let remove = (at.r < self.removed).then(|| self.removal(image, at.r));
        let Some(stop) = upsert.map(key).into_iter().chain(remove).min() else {
            let kept = self.base.rows - at.b;
            at.b = self.base.rows;
            return Ok((kept > 0).then_some(Step { kept, edit: Edit::End }));
        };
        // The base rows below the next change are kept as they are.
        let (mut kept, mut row) = (0, at.b * w);
        while row < rows.len() && key(&rows[row..]) < stop {
            (kept, row) = (kept + 1, row + w);
        }
        at.b += kept;
        let held = row < rows.len() && key(&rows[row..]) == stop;
        if remove == Some(stop) {
            if upsert.is_some_and(|row| key(row) == stop) {
                return Err(malformed(format!("key {stop} both upserted and removed")));
            }
            if !held {
                return Err(malformed(format!("removal of key {stop}, which the base does not hold")));
            }
            (at.b, at.r) = (at.b + 1, at.r + 1);
            if at.r < self.removed && self.removal(image, at.r) <= stop {
                return Err(malformed("removed keys do not ascend"));
            }
            Ok(Some(Step { kept, edit: Edit::Remove }))
        } else {
            let upserted = upsert.expect("the next change, not a removal, is an upsert");
            (at.b, at.u) = (at.b + usize::from(held), at.u + 1);
            if at.u < self.upserted && key(self.upsert(at.u)) <= stop {
                return Err(malformed("upserted keys do not ascend"));
            }
            Ok(Some(Step { kept, edit: Edit::Upsert(upserted) }))
        }
    }

    /// The step before `at`, which it moves back over, not below `floor`:
    /// [`next`](Self::next) walked backwards over a delta it passed.
    fn prev(&self, image: &[u8], at: &mut Cursor, floor: Cursor) -> Option<Step<'a>> {
        // At the table's end, the rows above every change are its last step.
        if *at == self.end() {
            let kept = self.kept_before(image, at, floor);
            if kept > 0 {
                return Some(Step { kept, edit: Edit::End });
            }
        }
        let upsert = (at.u > floor.u).then(|| key(self.upsert(at.u - 1)));
        let remove = (at.r > floor.r).then(|| self.removal(image, at.r - 1));
        let stop = upsert.into_iter().chain(remove).max()?;
        let edit = if remove == Some(stop) {
            (at.b, at.r) = (at.b - 1, at.r - 1);
            Edit::Remove
        } else {
            let w = self.base.width;
            let held = at.b > floor.b && key(&self.base.bytes(image)[(at.b - 1) * w..]) == stop;
            (at.b, at.u) = (at.b - usize::from(held), at.u - 1);
            Edit::Upsert(self.upsert(at.u))
        };
        Some(Step { kept: self.kept_before(image, at, floor), edit })
    }

    /// Moves `at` back over the base rows above every change before it, not
    /// below `floor`, and counts them.
    fn kept_before(&self, image: &[u8], at: &mut Cursor, floor: Cursor) -> usize {
        let (w, rows) = (self.base.width, self.base.bytes(image));
        let upsert = (at.u > floor.u).then(|| key(self.upsert(at.u - 1)));
        let remove = (at.r > floor.r).then(|| self.removal(image, at.r - 1));
        let stop = upsert.into_iter().chain(remove).max();
        let (mut kept, mut row, low) = (0, at.b * w, floor.b * w);
        while row > low && stop.is_none_or(|stop| key(&rows[row - w..]) > stop) {
            (kept, row) = (kept + 1, row - w);
        }
        at.b -= kept;
        kept
    }
}

/// A row delta that passed every check against its base: what [`rebuild`]
/// moves. One entry per table; nothing per row.
pub(crate) struct Checked<'a> {
    base_len: usize,
    tables: Vec<TableDelta<'a>>,
    tail: &'a [u8],
    /// Length of the target.
    len: usize,
}

impl<'a> Checked<'a> {
    /// `tables` and `tail`, every table's merge walked to its end against
    /// `base`: refuses unsorted or repeated keys, a removal of a key the
    /// base lacks and a merge that does not produce the declared rows.
    fn walked(base: &[u8], tables: Vec<TableDelta<'a>>, tail: &'a [u8]) -> Result<Self, CkptError> {
        let mut len = tail.len();
        for t in &tables {
            len += t.span.len() + t.rows * t.base.width;
            let (mut at, mut left) = (Cursor::default(), t.rows);
            while let Some(step) = t.next(base, &mut at)? {
                left = left
                    .checked_sub(step.kept + step.edit.rows())
                    .ok_or_else(|| malformed("a table merges to more rows than it declared"))?;
            }
            if left != 0 {
                return Err(malformed(format!("a table merges to {left} rows fewer than it declared")));
            }
        }
        Ok(Checked { base_len: base.len(), tables, tail, len })
    }

    /// Bytes a rebuild needs while its bytes move: the base and the target
    /// each fit — at most `base.len() + delta.len()`.
    pub(crate) fn room(&self) -> usize {
        self.base_len.max(self.len)
    }

    /// The target bytes before table `table`'s rows; past the last table,
    /// the tail.
    fn span(&self, table: usize) -> &'a [u8] {
        self.tables.get(table).map_or(self.tail, |t| t.span)
    }
}

/// Refuses a base of another length than the `base_len` a delta was cut
/// against.
fn same_base(base_len: usize, base: &[u8]) -> Result<(), CkptError> {
    if base_len != base.len() {
        return Err(malformed(format!(
            "cut against a {base_len}-byte base, the holder's is {} bytes",
            base.len()
        )));
    }
    Ok(())
}

/// The receiver's check: reads `delta` against `base` without writing a
/// byte or sizing anything. Refuses — each a typed error (see the module
/// docs) — a base of another length or that does not lay out, a table of
/// another width, counts the payload cannot hold, row counts that could not
/// add up, and, walking each table's merge once ([`Checked::walked`]),
/// unsorted or repeated keys, a removal of a key the base lacks and a merge
/// that does not produce the declared rows.
pub(crate) fn check<'a>(
    delta: &'a [u8],
    base: &[u8],
    layout: LayoutFn,
) -> Result<Checked<'a>, CkptError> {
    let mut d = Dec::new(delta);
    same_base(d.usize()?, base)?;
    let layout = tables(layout, base).ok_or_else(|| malformed("the base does not lay out"))?;
    let count = d.usize()?;
    if count != layout.len() {
        return Err(malformed(format!("{count} tables against a base of {}", layout.len())));
    }
    let tables = layout.iter().map(|table| TableDelta::read(&mut d, table)).collect::<Result<_, _>>()?;
    let tail = d.bytes()?;
    d.finish()?;
    Checked::walked(base, tables, tail)
}

/// Where a walk over the target stands: before table `table`'s span, or
/// (`rows`) past the span, at `at` in the table's merge. Table
/// `tables.len()` is the tail: a span with no rows after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mark {
    table: usize,
    rows: bool,
    at: Cursor,
}

/// The receiver's rebuild: turns `image`, the base `checked` was checked
/// against, into the target in place, in one allocation grown (if the
/// target is longer) to exactly the target's length. The order the bytes
/// move in, and why it is safe, is in the module docs.
pub(crate) fn rebuild(image: &mut Vec<u8>, checked: &Checked<'_>) {
    debug_assert_eq!(image.len(), checked.base_len, "the image is the base it was checked against");
    let room = checked.room();
    image.reserve_exact(room - image.len());
    image.resize(room, 0);
    let mut mark = Mark { table: 0, rows: false, at: Cursor::default() };
    // The write frontier, where the open stretch began, and where the
    // current table's rows begin in the target.
    let (mut f, mut stretch, mut rows_at) = (0, None, 0);
    loop {
        // Each item: the bytes it writes end at `to`; the base bytes a
        // later item reads start at `source`.
        let (before, to, source) = if !mark.rows {
            let (before, span) = (mark, checked.span(mark.table));
            let source = checked.tables.get(mark.table).map_or(usize::MAX, |t| t.base.offset);
            let to = f + span.len();
            if stretch.is_none() && to <= source {
                image[f..to].copy_from_slice(span);
            }
            (mark.rows, rows_at) = (true, to);
            (before, to, source)
        } else {
            let Some(t) = checked.tables.get(mark.table) else { break };
            let w = t.base.width;
            // No removal left in the table can bring the frontier back to
            // the base rows: the stretch runs past the table's end.
            if stretch.is_some() && f > t.base.offset + (mark.at.b + t.removed - mark.at.r) * w {
                f = rows_at + t.rows * w;
                mark = Mark { table: mark.table + 1, rows: false, at: Cursor::default() };
                continue;
            }
            // A checked delta walks the same steps again; were it not to,
            // the rebuild would fail its holder's open.
            let (at, from) = (mark.at, t.base.offset + mark.at.b * w);
            let Ok(Some(step)) = t.next(image, &mut mark.at) else {
                mark = Mark { table: mark.table + 1, rows: false, at: Cursor::default() };
                continue;
            };
            // The kept rows first: outside a stretch they move left or stay,
            // inside one they leave it open.
            if stretch.is_none() {
                image.copy_within(from..from + step.kept * w, f);
            }
            f += step.kept * w;
            let before = Mark { at: Cursor { b: at.b + step.kept, ..at }, ..mark };
            let (to, source) = (f + step.edit.rows() * w, t.base.offset + mark.at.b * w);
            if let (None, Edit::Upsert(row)) = (stretch, step.edit) {
                if to <= source {
                    image[f..to].copy_from_slice(row);
                }
            }
            (before, to, source)
        };
        if stretch.is_none() && to > source {
            stretch = Some(before);
        }
        f = to;
        if let Some(start) = stretch.filter(|_| f <= source) {
            flush(image, checked, start, mark, f);
            stretch = None;
        }
    }
    image.truncate(checked.len);
}

/// Writes the items between `start` and `end` right to left, walking the
/// merge backwards; `f` is where the target's bytes at `end` begin.
fn flush(image: &mut [u8], checked: &Checked<'_>, start: Mark, end: Mark, mut f: usize) {
    let mut mark = end;
    while mark != start {
        if !mark.rows {
            let t = &checked.tables[mark.table - 1];
            mark = Mark { table: mark.table - 1, rows: true, at: t.end() };
            continue;
        }
        let floor = if start.rows && start.table == mark.table { start.at } else { Cursor::default() };
        let step =
            checked.tables.get(mark.table).and_then(|t| Some((t, t.prev(image, &mut mark.at, floor)?)));
        let Some((t, step)) = step else {
            let span = checked.span(mark.table);
            f -= span.len();
            image[f..f + span.len()].copy_from_slice(span);
            mark.rows = false;
            continue;
        };
        let w = t.base.width;
        if let Edit::Upsert(row) = step.edit {
            f -= w;
            image[f..f + w].copy_from_slice(row);
        }
        f -= step.kept * w;
        let from = t.base.offset + mark.at.b * w;
        image.copy_within(from..from + step.kept * w, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy image: an 8-byte header naming the row count, `rows` 12-byte
    /// rows (key, then a u32), and a 5-byte trailer.
    fn image(rows: &[(u64, u32)]) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(rows.len() as u64);
        for &(k, v) in rows {
            e.u64(k);
            e.u32(v);
        }
        e.raw(b"trail");
        e.into_bytes()
    }

    fn layout(image: &[u8]) -> Option<Layout> {
        let rows = Dec::new(image).usize().ok()?;
        let len = rows.checked_mul(12)?.checked_add(8 + 5)?;
        (image.len() == len).then(|| vec![Table { offset: 8, rows, width: 12 }])
    }

    /// The holder's side: `delta` applied over its own copy of `base`,
    /// allocated to the base's length. A refusal must leave that copy the
    /// base, byte for byte, in no more than `base + delta` bytes; a rebuild
    /// that grew must hold exactly the target.
    fn applied(delta: &[u8], base: &[u8], layout: LayoutFn) -> Result<Vec<u8>, CkptError> {
        let mut image = base.to_vec();
        let refused = check(delta, &image, layout).map(|checked| rebuild(&mut image, &checked));
        assert!(image.capacity() <= base.len() + delta.len(), "sized {} bytes", image.capacity());
        match refused {
            Ok(()) => {
                if image.len() >= base.len() {
                    assert_eq!(image.capacity(), image.len(), "a grown image is sized exactly");
                }
                Ok(image)
            }
            Err(e) => {
                assert!(image == base, "a refused delta moved a byte: {e}");
                Err(e)
            }
        }
    }

    fn delta(plan: &RowPlan<'_>, base: &[u8]) -> Vec<u8> {
        let mut e = Enc::new();
        plan.write(base, &mut e);
        assert_eq!(e.len(), plan.len(), "the plan sizes its encoding exactly");
        e.into_bytes()
    }

    /// The holder's side in the sender's process: `plan` checked and
    /// rebuilt over a copy of `base`, its rows read where they lie.
    fn applied_in_place(plan: &RowPlan<'_>, base: &[u8]) -> Result<Vec<u8>, CkptError> {
        let mut image = base.to_vec();
        let checked = plan.check(&image)?;
        rebuild(&mut image, &checked);
        Ok(image)
    }

    fn rebuild_of(base: &[u8], target: &[u8]) -> (usize, Vec<u8>) {
        let delta = delta(&RowPlan::new(base, target, layout).expect("both lay out"), base);
        (delta.len(), applied(&delta, base, layout).expect("an honest delta applies"))
    }

    #[test]
    fn upserts_and_removals_rebuild_the_target() {
        let base = image(&[(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]);
        for target in [
            image(&[(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]),
            image(&[(1, 11), (3, 30), (5, 50), (7, 70), (9, 91)]),
            image(&[(0, 1), (1, 10), (4, 40), (5, 50), (9, 90), (11, 1)]),
            image(&[(3, 30), (7, 70)]),
            image(&[]),
            image(&[(2, 2), (4, 4), (6, 6)]),
        ] {
            assert_eq!(rebuild_of(&base, &target).1, target);
            assert_eq!(rebuild_of(&target, &base).1, base);
        }
        // Unchanged rows cost nothing: the spans, the headers, the one row.
        let target = image(&[(1, 10), (3, 30), (5, 55), (7, 70), (9, 90)]);
        assert_eq!(rebuild_of(&base, &target).0, 8 + 8 + (8 + 8) + 3 * 8 + 12 + 8 + (8 + 5));
    }

    /// `upserts` and `removals` as one table's [`TableChanges`].
    fn listed(upserts: &[u32], removals: &[u32]) -> TableChanges {
        TableChanges { upserts: upserts.to_vec(), removals: removals.to_vec() }
    }

    #[test]
    fn a_named_change_list_writes_what_the_diff_writes() {
        let base = image(&[(1, 10), (3, 30), (5, 50), (7, 70)]);
        let target = image(&[(1, 10), (2, 20), (3, 31), (5, 50), (7, 70), (8, 80)]);
        let diffed = delta(&RowPlan::new(&base, &target, layout).unwrap(), &base);
        let named = [listed(&[1, 2, 5], &[])];
        assert_eq!(
            delta(&RowPlan::from_changes(&base, &target, layout, &named).unwrap(), &base),
            diffed
        );
        // Lists no writer of these images could have made are not planned.
        for bad in [
            vec![listed(&[2, 1, 5], &[])],                   // not ascending
            vec![listed(&[1, 2, 6], &[])],                   // past the target's rows
            vec![listed(&[1], &[])],                         // fewer upserts than rows added
            vec![listed(&[1, 2, 5], &[]), listed(&[], &[])], // a list for a table there is not
            vec![],                                          // no list for the table there is
        ] {
            assert!(RowPlan::from_changes(&base, &target, layout, &bad).is_none(), "{bad:?}");
        }
    }

    /// Removals named by their base positions write the keys the diff
    /// writes: a writer whose table forgot rows ships them without a walk
    /// of either table.
    #[test]
    fn named_removals_write_what_the_diff_writes() {
        let base = image(&[(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]);
        // 1 and 7 forgotten, 4 added, 5 requested again.
        let target = image(&[(3, 30), (4, 40), (5, 51), (9, 90)]);
        let diffed = delta(&RowPlan::new(&base, &target, layout).unwrap(), &base);
        let named = [listed(&[1, 2], &[0, 3])];
        let plan = RowPlan::from_changes(&base, &target, layout, &named).unwrap();
        assert_eq!(delta(&plan, &base), diffed);
        assert_eq!(applied(&diffed, &base, layout), Ok(target.clone()));
        // Only forgotten: the table shrinks, and no upsert is needed.
        let shrunk = image(&[(3, 30), (5, 50), (9, 90)]);
        let diffed = delta(&RowPlan::new(&base, &shrunk, layout).unwrap(), &base);
        let named = [listed(&[], &[0, 3])];
        assert_eq!(
            delta(&RowPlan::from_changes(&base, &shrunk, layout, &named).unwrap(), &base),
            diffed
        );
        for bad in [
            listed(&[1, 2], &[3, 0]), // not ascending
            listed(&[1, 2], &[0, 5]), // past the base's rows
            listed(&[1, 2], &[]),     // none, though the table lost a row
            listed(&[], &[0, 3]),     // no upsert, though a row was added
        ] {
            assert!(
                RowPlan::from_changes(&base, &target, layout, std::slice::from_ref(&bad)).is_none(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn what_does_not_lay_out_or_ascend_is_not_planned() {
        let sorted = image(&[(1, 1), (2, 2)]);
        assert!(RowPlan::new(&sorted, b"no rows here", layout).is_none());
        assert!(RowPlan::new(b"no rows here", &sorted, layout).is_none());
        for unsorted in [image(&[(2, 2), (1, 1)]), image(&[(1, 1), (1, 2)])] {
            assert!(RowPlan::new(&sorted, &unsorted, layout).is_none());
            assert!(RowPlan::new(&unsorted, &sorted, layout).is_none());
        }
        // A layout whose tables overlap, leave the image or have no key.
        for bad in [
            |_: &[u8]| {
                Some(vec![
                    Table { offset: 8, rows: 1, width: 12 },
                    Table { offset: 12, rows: 1, width: 8 },
                ])
            },
            |_: &[u8]| Some(vec![Table { offset: 8, rows: 3, width: 12 }]),
            |_: &[u8]| Some(vec![Table { offset: 8, rows: usize::MAX, width: 12 }]),
            |_: &[u8]| Some(vec![Table { offset: 8, rows: 2, width: 4 }]),
        ] {
            assert!(RowPlan::new(&sorted, &sorted, bad).is_none());
        }
    }

    /// A delta for `base` with its one table's lists replaced by `upserts`
    /// and `removals`, declaring `rows`.
    fn forged(base: &[u8], rows: usize, upserts: &[(u64, u32)], removals: &[u64]) -> Vec<u8> {
        let mut e = Enc::new();
        e.usize(base.len());
        e.usize(1);
        e.bytes(&base[..8]);
        e.usize(12);
        e.usize(rows);
        e.seq(upserts, |e, &(k, v)| {
            e.u64(k);
            e.u32(v);
        });
        e.seq(removals, |e, &k| e.u64(k));
        e.bytes(&base[base.len() - 5..]);
        e.into_bytes()
    }

    #[test]
    fn hostile_deltas_are_typed_errors_within_the_input_size() {
        let base = image(&[(1, 10), (3, 30), (5, 50)]);
        let honest = forged(&base, 3, &[(3, 31)], &[]);
        assert_eq!(applied(&honest, &base, layout), Ok(image(&[(1, 10), (3, 31), (5, 50)])));

        // `applied` holds every refusal to the base, untouched, in no more
        // than `base + delta` bytes.
        let refused = |delta: &[u8], base: &[u8], what: &str| {
            let got = applied(delta, base, layout);
            assert!(
                matches!(got, Err(CkptError::Malformed(_) | CkptError::Truncated)),
                "{what}: {got:?}"
            );
        };
        // Row counts that add up, so only the order gives these away.
        refused(&forged(&base, 4, &[(5, 1), (3, 1)], &[]), &base, "unsorted upserts");
        refused(&forged(&base, 4, &[(3, 1), (3, 2)], &[]), &base, "duplicate upserts");
        refused(&forged(&base, 2, &[], &[5, 1]), &base, "unsorted removals");
        refused(&forged(&base, 2, &[], &[4]), &base, "removal of an absent key");
        refused(&forged(&base, 3, &[(3, 1)], &[3]), &base, "a key upserted and removed");
        refused(&forged(&base, 4, &[(3, 1)], &[]), &base, "more rows declared than merged");
        refused(&forged(&base, 2, &[(3, 1)], &[]), &base, "fewer rows declared than merged");
        refused(&forged(&base, 1 << 60, &[(3, 1)], &[]), &base, "a row count no machine holds");
        // A refusal found at the last row of the merge leaves the first
        // rows, which an honest rebuild would have moved, where they were.
        refused(&forged(&base, 3, &[(0, 1), (9, 9), (9, 9)], &[1, 3]), &base, "a late refusal");
        refused(&honest, &image(&[(1, 10), (3, 30)]), "a base of another length");
        refused(&honest, &vec![0xFF; base.len()], "a base that does not lay out");
        // Lists that claim more than the payload holds, and a width other
        // than the base's, are refused before any list is read.
        let mut lying = honest.clone();
        let upserts_at = 8 + 8 + (8 + 8) + 8 + 8;
        lying[upserts_at..upserts_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        refused(&lying, &base, "a lying upsert count");
        let mut wide = honest.clone();
        wide[upserts_at - 16..upserts_at - 8].copy_from_slice(&16u64.to_le_bytes());
        refused(&wide, &base, "a width mismatch");
        for keep in 0..honest.len() {
            refused(&honest[..keep], &base, &format!("truncated to {keep} bytes"));
        }
    }

    #[test]
    fn the_output_buffer_is_reused() {
        let base = image(&[(1, 10), (3, 30)]);
        let target = image(&[(1, 10), (2, 20), (3, 30)]);
        let delta = delta(&RowPlan::new(&base, &target, layout).unwrap(), &base);
        let mut held = Vec::with_capacity(256);
        held.extend_from_slice(&base);
        let at = held.as_ptr();
        let checked = check(&delta, &held, layout).unwrap();
        rebuild(&mut held, &checked);
        assert_eq!((held.as_ptr(), &held), (at, &target));
        // Grown past its room, it is grown to the target's length exactly.
        let mut exact = base.clone();
        rebuild(&mut exact, &check(&delta, &base, layout).unwrap());
        assert_eq!((exact.capacity(), &exact), (target.len(), &target));
    }

    /// A two-table toy image: a span, 12-byte rows `(key, u32)`, a span,
    /// 16-byte rows `(key, u64)`, then a tail; each span and table after a
    /// length prefix. `fill` tells the spans of two images apart.
    fn image2(spans: [usize; 3], fill: u8, a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<u8> {
        let mut e = Enc::new();
        e.bytes(&vec![fill; spans[0]]);
        e.seq(a, |e, &(k, v)| {
            e.u64(k);
            e.u32(v as u32);
        });
        e.bytes(&vec![fill ^ 0x11; spans[1]]);
        e.seq(b, |e, &(k, v)| {
            e.u64(k);
            e.u64(v);
        });
        e.raw(&vec![fill ^ 0x22; spans[2]]);
        e.into_bytes()
    }

    fn layout2(image: &[u8]) -> Option<Layout> {
        let mut d = Dec::new(image);
        let mut tables = Vec::with_capacity(2);
        for width in [12, 16] {
            d.bytes().ok()?;
            let rows = d.seq_len(width).ok()?;
            tables.push(Table { offset: image.len() - d.remaining(), rows, width });
            d.sub(rows * width).ok()?;
        }
        Some(tables)
    }

    /// Per table, the signs of how far its kept rows move from base to
    /// target: `(some move left, some move right)`.
    fn directions(base: &[u8], target: &[u8]) -> Vec<(bool, bool)> {
        let (old, new) = (layout2(base).unwrap(), layout2(target).unwrap());
        old.iter()
            .zip(&new)
            .map(|(o, n)| {
                let rows = |t: &Table, image: &[u8]| -> Vec<(usize, Vec<u8>)> {
                    let at = |i: usize| t.offset + i * t.width;
                    (0..t.rows).map(|i| (at(i), image[at(i)..at(i) + t.width].to_vec())).collect()
                };
                let targets = rows(n, target);
                let moves: Vec<isize> = rows(o, base)
                    .into_iter()
                    .filter_map(|(from, row)| {
                        let to = targets.iter().find(|(_, r)| *r == row)?.0;
                        Some(to as isize - from as isize)
                    })
                    .collect();
                (moves.iter().any(|&m| m < 0), moves.iter().any(|&m| m > 0))
            })
            .collect()
    }

    /// Rebuilds `target` over `base` in place, and holds every damaged or
    /// truncated version of the delta (at `pick`) to the same rules: a typed
    /// error that moved no byte, or an image.
    fn rebuilds_in_place(base: &[u8], target: &[u8], pick: usize) {
        let plan = RowPlan::new(base, target, layout2).expect("both lay out");
        let delta = delta(&plan, base);
        assert!(applied(&delta, base, layout2) == Ok(target.to_vec()), "the rebuild moved a byte");
        let in_place = applied_in_place(&plan, base);
        assert!(in_place == Ok(target.to_vec()), "the rows where they lie rebuilt another image");
        let at = pick % delta.len();
        let mut flipped = delta.clone();
        flipped[at] ^= 1 << (pick % 8);
        for bad in [&delta[..at], &flipped[..]] {
            let _ = applied(bad, base, layout2);
        }
    }

    #[test]
    fn rows_that_move_both_ways_in_one_table_are_rebuilt_in_place() {
        let rows = |keys: &[u64]| keys.iter().map(|&k| (k, k * 7)).collect::<Vec<_>>();
        let tens = |from: u64, to: u64| (from..to).map(|k| 10 * k).collect::<Vec<_>>();
        let base = image2([4, 9, 3], 0xB0, &rows(&tens(0, 40)), &rows(&tens(0, 30)));
        // Table A loses its first three rows (the next ones move left) and
        // gains five between keys 190 and 200 (the rest move right); span 1
        // grows by 31 bytes; table B loses its first nine rows (its next
        // rows come back left) and gains nine between keys 200 and 210
        // (the rest move right again); the tail goes.
        let a = [tens(3, 20), (191..196).collect(), tens(20, 40)].concat();
        let b = [tens(9, 21), (201..210).collect(), tens(21, 30)].concat();
        let target = image2([4, 40, 0], 0xC0, &rows(&a), &rows(&b));
        assert_eq!(directions(&base, &target), vec![(true, true); 2]);
        for pick in 0..64 {
            rebuilds_in_place(&base, &target, pick * 7_919);
        }
        assert_eq!(directions(&target, &base), vec![(true, true); 2]);
        rebuilds_in_place(&target, &base, 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any two images of the same two tables — rows removed, added,
        /// kept and changed, spans and tail grown and shrunk, so rows move
        /// left and right and change direction within a table — rebuild in
        /// place to the target, and every damaged or truncated delta is
        /// refused with the image untouched.
        #[test]
        fn any_pair_of_images_rebuilds_in_place(
            ops in proptest::collection::vec((0u8..5, 0u8..5), 0..120),
            base_spans in (0usize..48, 0usize..48, 0usize..24),
            target_spans in (0usize..48, 0usize..48, 0usize..24),
            pick in 0usize..1 << 20,
        ) {
            let (mut ba, mut ta, mut bb, mut tb) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for (k, &(a, b)) in ops.iter().enumerate() {
                let k = k as u64;
                for (op, base, target) in [(a, &mut ba, &mut ta), (b, &mut bb, &mut tb)] {
                    // 0: in neither; 1: removed; 2: added; 3: kept; 4: changed.
                    if matches!(op, 1 | 3 | 4) {
                        base.push((k, k));
                    }
                    if matches!(op, 2..=4) {
                        target.push((k, k + u64::from(op == 4)));
                    }
                }
            }
            let (s, t) = (base_spans, target_spans);
            let base = image2([s.0, s.1, s.2], 0xB0, &ba, &bb);
            let target = image2([t.0, t.1, t.2], 0xC0, &ta, &tb);
            rebuilds_in_place(&base, &target, pick);
            rebuilds_in_place(&target, &base, pick / 3);
        }
    }
}
