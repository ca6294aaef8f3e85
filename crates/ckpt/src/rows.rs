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
//! walks neither table, writing the same bytes. The receiver (`apply`)
//! merges base rows and upserts with two pointers into a buffer it already
//! owns, refusing — before anything is sized from a sealed count — a base
//! of another length, a table of another width, counts the payload cannot
//! hold and row counts that could not add up; then, while merging, unsorted
//! or repeated keys, a removal of a key the base lacks and a merge that does
//! not produce the declared rows. A rebuild that passes all of it is still
//! only as good as the base it merged: the holder opens the result under
//! its own seal.

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

/// One table of a delta, read where it lies in the wire bytes.
struct TableDelta<'a> {
    span: &'a [u8],
    rows: usize,
    upserts: &'a [u8],
    removals: &'a [u8],
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
        Ok(TableDelta { span, rows, upserts, removals })
    }
}

/// Counts `n` more rows against the `left` a table declared.
fn take(left: &mut usize, n: usize) -> Result<(), CkptError> {
    *left =
        left.checked_sub(n).ok_or_else(|| malformed("a table merges to more rows than it declared"))?;
    Ok(())
}

/// Merges `base`'s rows of `width` bytes with `t`'s upserts and removals
/// onto `out`, in key order.
fn merge(out: &mut Vec<u8>, base: &[u8], width: usize, t: &TableDelta<'_>) -> Result<(), CkptError> {
    let upsert_key = |i: usize| key(&t.upserts[i * width..]);
    let removal = |i: usize| key(&t.removals[8 * i..]);
    let (nb, nu, nr) = (base.len() / width, t.upserts.len() / width, t.removals.len() / 8);
    let (mut b, mut u, mut r, mut left) = (0, 0, 0, t.rows);
    loop {
        let upsert = (u < nu).then(|| upsert_key(u));
        let remove = (r < nr).then(|| removal(r));
        let Some(stop) = upsert.into_iter().chain(remove).min() else { break };
        // The base rows below the next change are kept as they are.
        let run = base[b * width..].chunks_exact(width).take_while(|row| key(row) < stop).count();
        take(&mut left, run)?;
        out.extend_from_slice(&base[b * width..(b + run) * width]);
        b += run;
        let held = b < nb && key(&base[b * width..]) == stop;
        if remove == Some(stop) {
            if upsert == Some(stop) {
                return Err(malformed(format!("key {stop} both upserted and removed")));
            }
            if !held {
                return Err(malformed(format!("removal of key {stop}, which the base does not hold")));
            }
            b += 1;
            r += 1;
            if r < nr && removal(r) <= stop {
                return Err(malformed("removed keys do not ascend"));
            }
        } else {
            take(&mut left, 1)?;
            out.extend_from_slice(&t.upserts[u * width..(u + 1) * width]);
            b += usize::from(held);
            u += 1;
            if u < nu && upsert_key(u) <= stop {
                return Err(malformed("upserted keys do not ascend"));
            }
        }
    }
    take(&mut left, nb - b)?;
    out.extend_from_slice(&base[b * width..]);
    if left != 0 {
        return Err(malformed(format!("a table merges to {left} rows fewer than it declared")));
    }
    Ok(())
}

/// The receiver's half: rebuilds the target of `delta` from `base` in
/// `out`, whose contents are discarded and whose allocation is reused. The
/// one buffer it sizes is `out`, to the target length the delta declares,
/// after checking that length against what `base` and `delta` could
/// produce — at most `base.len() + delta.len()` bytes. Every refusal is a
/// typed error (see the module docs).
pub(crate) fn apply(
    delta: &[u8],
    base: &[u8],
    layout: LayoutFn,
    out: &mut Vec<u8>,
) -> Result<(), CkptError> {
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
    // First the lengths: every table's header checked, nothing sized yet.
    let body = d.rest();
    let mut d = Dec::new(body);
    let mut len = 0;
    for table in &layout {
        let t = TableDelta::read(&mut d, table)?;
        len += t.span.len() + t.rows * table.width;
    }
    let tail = d.bytes()?;
    d.finish()?;
    len += tail.len();
    // Then the rebuild, into a buffer sized once.
    out.clear();
    out.reserve_exact(len);
    let mut d = Dec::new(body);
    for table in &layout {
        let t = TableDelta::read(&mut d, table)?;
        out.extend_from_slice(t.span);
        merge(out, table.bytes(base), table.width, &t)?;
    }
    out.extend_from_slice(tail);
    debug_assert_eq!(out.len(), len, "every table merged to its declared rows");
    Ok(())
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

    fn rebuild(base: &[u8], target: &[u8]) -> (usize, Vec<u8>) {
        let plan = RowPlan::new(base, target, layout).expect("both lay out");
        let mut e = Enc::new();
        plan.write(&mut e);
        let delta = e.into_bytes();
        assert_eq!(delta.len(), plan.len(), "the plan sizes its encoding exactly");
        let mut out = Vec::new();
        apply(&delta, base, layout, &mut out).expect("an honest delta applies");
        (delta.len(), out)
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
            assert_eq!(rebuild(&base, &target).1, target);
            assert_eq!(rebuild(&target, &base).1, base);
        }
        // Unchanged rows cost nothing: the spans, the headers, the one row.
        let target = image(&[(1, 10), (3, 30), (5, 55), (7, 70), (9, 90)]);
        assert_eq!(rebuild(&base, &target).0, 8 + 8 + (8 + 8) + 3 * 8 + 12 + 8 + (8 + 5));
    }

    #[test]
    fn a_named_change_list_writes_what_the_diff_writes() {
        let base = image(&[(1, 10), (3, 30), (5, 50), (7, 70)]);
        let target = image(&[(1, 10), (2, 20), (3, 31), (5, 50), (7, 70), (8, 80)]);
        let write = |plan: RowPlan<'_>| {
            let mut e = Enc::new();
            plan.write(&mut e);
            assert_eq!(e.len(), plan.len(), "the plan sizes its encoding exactly");
            e.into_bytes()
        };
        let diffed = write(RowPlan::new(&base, &target, layout).unwrap());
        let listed = [vec![1, 2, 5]];
        assert_eq!(write(RowPlan::from_changes(&base, &target, layout, &listed).unwrap()), diffed);
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
        let mut out = Vec::new();
        apply(&honest, &base, layout, &mut out).unwrap();
        assert_eq!(out, image(&[(1, 10), (3, 31), (5, 50)]));

        let refused = |delta: &[u8], base: &[u8], what: &str| {
            let mut out = Vec::new();
            let got = apply(delta, base, layout, &mut out);
            assert!(
                matches!(got, Err(CkptError::Malformed(_) | CkptError::Truncated)),
                "{what}: {got:?}"
            );
            assert!(
                out.capacity() <= base.len() + delta.len(),
                "{what}: sized {} bytes",
                out.capacity()
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
        let plan = RowPlan::new(&base, &target, layout).unwrap();
        let mut e = Enc::new();
        plan.write(&mut e);
        let mut out = vec![0xEE; 256];
        let at = out.as_ptr();
        apply(&e.into_bytes(), &base, layout, &mut out).unwrap();
        assert_eq!((out.as_ptr(), &out), (at, &target));
    }
}
