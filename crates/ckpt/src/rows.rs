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
//! The sender (`RowPlan`) merge-walks the two images' tables side by side,
//! counts the changes in one pass and writes them in the next, into an
//! envelope sized exactly — or, when the target's writer names the rows it
//! changed since the base ([`Changes`]), takes them from that list and
//! walks neither table, writing the same bytes. The receiver rebuilds the
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
//! bytes: a span (from the wire), then its table's merge steps — a run of
//! kept base rows, an upsert (from the wire), a removal (writes nothing) —
//! and at the end the tail. Walking them in order keeps two positions: the
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
//! tables only grow — the standby feed — opens one stretch at its first
//! inserted row and walks the rest once, backwards. Nothing per row is
//! kept: the walk holds one cursor and the start of the open stretch, and a
//! checked delta one entry per table. Each base key is read once by the
//! check and at most once each by the forward walk and a stretch.

use crate::{CkptError, Dec, Enc};

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

/// One difference between a base table and a target table.
enum Change<'r> {
    /// A target row the base lacks, or holds with other bytes.
    Upsert(&'r [u8]),
    /// A base row whose key the target lacks.
    Remove(&'r [u8]),
}

/// Walks two tables of `width`-byte rows side by side in key order and hands
/// `each` every change. `None` if either table's keys do not strictly ascend.
fn diff<'r>(
    base: &'r [u8],
    target: &'r [u8],
    width: usize,
    mut each: impl FnMut(Change<'r>),
) -> Option<()> {
    let (mut b, mut t) = (base.chunks_exact(width), target.chunks_exact(width));
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
            (Some(old), Some(new)) if key(old) == key(new) => {
                if !ascends(&mut last_b, old) || !ascends(&mut last_t, new) {
                    return None;
                }
                if old != new {
                    each(Change::Upsert(new));
                }
                (rb, rt) = (b.next(), t.next());
            }
            (Some(old), new) if new.is_none_or(|new| key(old) < key(new)) => {
                if !ascends(&mut last_b, old) {
                    return None;
                }
                each(Change::Remove(old));
                rb = b.next();
            }
            (_, Some(new)) => {
                if !ascends(&mut last_t, new) {
                    return None;
                }
                each(Change::Upsert(new));
                rt = t.next();
            }
            (Some(_), None) => unreachable!("matched by the removal arm"),
        }
    }
}

/// What the writer of a target image knows changed since the base image it
/// wrote before: per table of the layout, the positions of the target rows
/// that the base lacks or holds with other bytes, ascending — the upserts a
/// diff of the two images would find. There are no removals: the writer's
/// tables only grow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Changes {
    /// Boundary of the base the positions were taken against: a receiver
    /// that holds that cut holds the base.
    pub base_seq: u64,
    /// Per table, the changed rows' positions in the target.
    pub upserts: Vec<Vec<u32>>,
}

/// One table's share of a [`RowPlan`].
struct TablePlan<'a> {
    base: Table,
    target: Table,
    upserts: usize,
    removals: usize,
    /// The upserts' positions, when the writer named them; otherwise
    /// [`write`](RowPlan::write) walks the diff again to find them.
    known: Option<&'a [u32]>,
}

/// The sender's half: the changes that turn `base` into `target`, counted
/// but not yet written, so the writer sizes its buffer exactly.
pub(crate) struct RowPlan<'a> {
    base: &'a [u8],
    target: &'a [u8],
    tables: Vec<TablePlan<'a>>,
}

/// Both images' layouts, if they have the same shape: as many tables, of
/// the same widths.
fn shapes(base: &[u8], target: &[u8], layout: LayoutFn) -> Option<(Layout, Layout)> {
    let (old, new) = (tables(layout, base)?, tables(layout, target)?);
    let same = old.len() == new.len() && old.iter().zip(&new).all(|(o, n)| o.width == n.width);
    same.then_some((old, new))
}

impl<'a> RowPlan<'a> {
    /// Plans `base → target`. `None` when either image does not lay out,
    /// their layouts differ in shape, or a table's keys do not ascend: the
    /// target then ships whole.
    pub(crate) fn new(base: &'a [u8], target: &'a [u8], layout: LayoutFn) -> Option<Self> {
        let (old, new) = shapes(base, target, layout)?;
        let mut tables = Vec::with_capacity(new.len());
        for (base_t, target_t) in old.into_iter().zip(new) {
            let (mut upserts, mut removals) = (0, 0);
            diff(base_t.bytes(base), target_t.bytes(target), target_t.width, |change| match change {
                Change::Upsert(_) => upserts += 1,
                Change::Remove(_) => removals += 1,
            })?;
            tables.push(TablePlan { base: base_t, target: target_t, upserts, removals, known: None });
        }
        Some(RowPlan { base, target, tables })
    }

    /// Plans `base → target` from the `upserts` the target's writer names
    /// ([`Changes::upserts`]), without walking either table. `None` when
    /// the images do not lay out alike, or a list is not one per table,
    /// ascending, inside the target, and enough for the rows the target
    /// added — the sender then diffs. Whether the list is *true* of `base`
    /// is the writer's word; a false one rebuilds an image whose holder's
    /// open refuses it.
    pub(crate) fn from_changes(
        base: &'a [u8],
        target: &'a [u8],
        layout: LayoutFn,
        upserts: &'a [Vec<u32>],
    ) -> Option<Self> {
        let (old, new) = shapes(base, target, layout)?;
        if upserts.len() != new.len() {
            return None;
        }
        let mut tables = Vec::with_capacity(new.len());
        for ((base_t, target_t), known) in old.into_iter().zip(new).zip(upserts) {
            let ascends = known.windows(2).all(|w| w[0] < w[1]);
            let inside = known.last().is_none_or(|&p| (p as usize) < target_t.rows);
            let added = target_t.rows.checked_sub(base_t.rows)?;
            if !ascends || !inside || added > known.len() {
                return None;
            }
            let upserts = known.len();
            tables.push(TablePlan {
                base: base_t,
                target: target_t,
                upserts,
                removals: 0,
                known: Some(known),
            });
        }
        Some(RowPlan { base, target, tables })
    }

    /// Encoded length of the delta.
    pub(crate) fn len(&self) -> usize {
        let tables: usize =
            self.tables.iter().map(|t| 5 * 8 + t.upserts * t.target.width + t.removals * 8).sum();
        let spans = self.target.len()
            - self.tables.iter().map(|t| t.target.rows * t.target.width).sum::<usize>();
        8 + 8 + tables + spans + 8
    }

    /// Writes the delta onto `enc` ([`len`](Self::len) bytes).
    pub(crate) fn write(&self, enc: &mut Enc) {
        enc.usize(self.base.len());
        enc.usize(self.tables.len());
        let mut end = 0;
        for t in &self.tables {
            let (old, new, width) =
                (t.base.bytes(self.base), t.target.bytes(self.target), t.target.width);
            enc.bytes(&self.target[end..t.target.offset]);
            enc.usize(width);
            enc.usize(t.target.rows);
            enc.usize(t.upserts);
            match t.known {
                Some(known) => {
                    for &at in known {
                        let at = at as usize * width;
                        enc.raw(&new[at..at + width]);
                    }
                }
                None => {
                    diff(old, new, width, |change| {
                        if let Change::Upsert(row) = change {
                            enc.raw(row);
                        }
                    });
                }
            }
            enc.usize(t.removals);
            if t.removals > 0 {
                diff(old, new, width, |change| {
                    if let Change::Remove(row) = change {
                        enc.raw(&row[..8]);
                    }
                });
            }
            end = t.target.end();
        }
        enc.bytes(&self.target[end..]);
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

/// One table of a delta, read where it lies in the wire bytes, against the
/// base table it rebuilds.
struct TableDelta<'a> {
    base: Table,
    span: &'a [u8],
    rows: usize,
    upserts: &'a [u8],
    removals: &'a [u8],
    /// Upserts and removals listed.
    upserted: usize,
    removed: usize,
}

impl<'a> TableDelta<'a> {
    /// Reads the next table of a delta against `base`, the base's table in
    /// the same place, refusing a width other than the base's, lists the
    /// payload cannot hold, and more rows than the base and the upserts
    /// together could make.
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
        if rows > base.rows + upserted {
            return Err(malformed(format!(
                "{rows} rows from {} base rows and {upserted} upserts",
                base.rows
            )));
        }
        Ok(TableDelta { base: *base, span, rows, upserts, removals, upserted, removed })
    }

    fn upsert(&self, i: usize) -> &'a [u8] {
        &self.upserts[i * self.base.width..(i + 1) * self.base.width]
    }

    fn removal(&self, i: usize) -> u64 {
        key(&self.removals[8 * i..])
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
        let upsert = (at.u < self.upserted).then(|| key(self.upsert(at.u)));
        let remove = (at.r < self.removed).then(|| self.removal(at.r));
        let Some(stop) = upsert.into_iter().chain(remove).min() else {
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
            if upsert == Some(stop) {
                return Err(malformed(format!("key {stop} both upserted and removed")));
            }
            if !held {
                return Err(malformed(format!("removal of key {stop}, which the base does not hold")));
            }
            (at.b, at.r) = (at.b + 1, at.r + 1);
            if at.r < self.removed && self.removal(at.r) <= stop {
                return Err(malformed("removed keys do not ascend"));
            }
            Ok(Some(Step { kept, edit: Edit::Remove }))
        } else {
            let upserted = self.upsert(at.u);
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
        let remove = (at.r > floor.r).then(|| self.removal(at.r - 1));
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
        let remove = (at.r > floor.r).then(|| self.removal(at.r - 1));
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

/// The receiver's check: reads `delta` against `base` without writing a
/// byte or sizing anything. Refuses — each a typed error (see the module
/// docs) — a base of another length or that does not lay out, a table of
/// another width, counts the payload cannot hold, row counts that could not
/// add up, and, walking each table's merge once, unsorted or repeated keys,
/// a removal of a key the base lacks and a merge that does not produce the
/// declared rows.
pub(crate) fn check<'a>(
    delta: &'a [u8],
    base: &[u8],
    layout: LayoutFn,
) -> Result<Checked<'a>, CkptError> {
    let mut d = Dec::new(delta);
    let base_len = d.usize()?;
    if base_len != base.len() {
        return Err(malformed(format!(
            "cut against a {base_len}-byte base, the holder's is {} bytes",
            base.len()
        )));
    }
    let layout = tables(layout, base).ok_or_else(|| malformed("the base does not lay out"))?;
    let count = d.usize()?;
    if count != layout.len() {
        return Err(malformed(format!("{count} tables against a base of {}", layout.len())));
    }
    // First the lengths: every table's header checked.
    let mut tables = Vec::with_capacity(layout.len());
    let mut len = 0;
    for table in &layout {
        let t = TableDelta::read(&mut d, table)?;
        len += t.span.len() + t.rows * table.width;
        tables.push(t);
    }
    let tail = d.bytes()?;
    d.finish()?;
    len += tail.len();
    // Then every merge, walked to its end.
    for t in &tables {
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

    fn delta(plan: &RowPlan<'_>) -> Vec<u8> {
        let mut e = Enc::new();
        plan.write(&mut e);
        assert_eq!(e.len(), plan.len(), "the plan sizes its encoding exactly");
        e.into_bytes()
    }

    fn rebuild_of(base: &[u8], target: &[u8]) -> (usize, Vec<u8>) {
        let delta = delta(&RowPlan::new(base, target, layout).expect("both lay out"));
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

    #[test]
    fn a_named_change_list_writes_what_the_diff_writes() {
        let base = image(&[(1, 10), (3, 30), (5, 50), (7, 70)]);
        let target = image(&[(1, 10), (2, 20), (3, 31), (5, 50), (7, 70), (8, 80)]);
        let diffed = delta(&RowPlan::new(&base, &target, layout).unwrap());
        let listed = [vec![1, 2, 5]];
        assert_eq!(delta(&RowPlan::from_changes(&base, &target, layout, &listed).unwrap()), diffed);
        // Lists no writer of these images could have made are not planned.
        for bad in [
            vec![vec![2, 1, 5]],         // not ascending
            vec![vec![1, 2, 6]],         // past the target's rows
            vec![vec![1]],               // fewer upserts than rows added
            vec![vec![1, 2, 5], vec![]], // a list for a table there is not
            vec![],                      // no list for the table there is
        ] {
            assert!(RowPlan::from_changes(&base, &target, layout, &bad).is_none(), "{bad:?}");
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
        let delta = delta(&RowPlan::new(&base, &target, layout).unwrap());
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
        let delta = delta(&RowPlan::new(base, target, layout2).expect("both lay out"));
        assert!(applied(&delta, base, layout2) == Ok(target.to_vec()), "the rebuild moved a byte");
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
