//! Which version of a page a snapshot sees ([`resolve_version`]: the
//! newest WAL record at or below it, else the main file), and how its
//! image reaches the buffer pool ([`load_page`], the one door from disk).
//!
//! ## Reads
//!
//! Every page is read on the thread that needs it: a buffer-pool miss
//! is served by the transaction that hit it, and a `Store` spawns no
//! thread of its own. Scans tag their reads `Scan` so sweeps recycle
//! the pool's probationary window instead of the hot set.

use std::ops::Deref;
use std::sync::Arc;

use super::StoreInner;
use crate::btree::node;
use crate::error::{Result, StorageError};
use crate::hash::PageMap;
use crate::page::{page_type, PageData, PageId, PAGE_SIZE};
use crate::pool::{Access, PoolKey};
use crate::wal::WalIndex;

/// The version of page `id` visible at `snapshot` — the pool key's
/// second half — and, when that image lives in the WAL, its offset.
/// The newest WAL record at or below the snapshot wins, else the main
/// file's image, whose version is the seq a checkpoint last copied
/// there (`base`, taken only on a WAL miss) or `0`. Offset and seq come
/// from one index lookup so a concurrent checkpoint reset cannot slip
/// between them.
fn version_at<B: Deref<Target = PageMap<PageId, u64>>>(
    index: &WalIndex,
    base: impl FnOnce() -> B,
    id: PageId,
    snapshot: u64,
) -> (u64, Option<u64>) {
    match index.find_versioned(id, snapshot) {
        Some((offset, seq)) => (seq, Some(offset)),
        None => (base().get(&id).copied().unwrap_or(0), None),
    }
}

/// [`version_at`] for one page, under a read guard of the WAL index
/// held while the checkpoint versions are read.
pub(super) fn resolve_version(inner: &StoreInner, id: PageId, snapshot: u64) -> (u64, Option<u64>) {
    let index = inner.wal.index();
    version_at(&index, || inner.base_version.read(), id, snapshot)
}

/// Reads the image [`resolve_version`] located, or one a write
/// transaction spilled — the WAL frame at `from_wal`, else the main
/// file — and checks it: the one door through
/// which bytes from disk reach the buffer pool, so the B+tree's
/// zero-copy accessors never see an image that was not validated once.
/// Kept out of line so the pool-hit path of [`resolve`] stays small.
#[inline(never)]
pub(super) fn load_page(inner: &StoreInner, id: PageId, from_wal: Option<u64>) -> Result<PageData> {
    let p = match from_wal {
        Some(offset) => inner.wal.read_frame(offset)?,
        None => {
            let mut p = PageData::zeroed();
            inner
                .main
                .read_exact_at(&mut p[..], id as u64 * PAGE_SIZE as u64)
                .map_err(|e| {
                    if e.kind() == std::io::ErrorKind::UnexpectedEof {
                        StorageError::Corrupt(format!("page {id} missing from main file"))
                    } else {
                        StorageError::Io(e)
                    }
                })?;
            p
        }
    };
    checked_image(p, id)
}

/// [`load_page`] for a main-file page a scan missed, reading in the same
/// call the pages the scan walks onto after it (`run.then`), each only
/// while it is the next page id of the file, resolves to the main file
/// at this snapshot and is not cached — [`MAX_RUN_PAGES`] in all at
/// most. So no read bridges a gap, and no page is read that the scan
/// would find cached. The pages after `id` count as one pool miss and
/// one main-file read each, enter the pool with `access`, and go onto
/// `run.ahead`; a page that fails its check ends the run there, left for
/// the scan to read and report alone.
#[inline(never)]
fn load_run(
    inner: &StoreInner,
    id: PageId,
    snapshot: u64,
    access: Access,
    run: Run<'_>,
) -> Result<PageData> {
    let mut keys: Vec<PoolKey> = Vec::new();
    for next in run.then {
        let adjacent = next == id + 1 + keys.len() as PageId;
        if keys.len() + 1 == MAX_RUN_PAGES || !adjacent || next >= run.page_count {
            break;
        }
        let (version, from_wal) = resolve_version(inner, next, snapshot);
        if from_wal.is_some() || inner.pool.contains((next, version)) {
            break;
        }
        keys.push((next, version));
    }
    if keys.is_empty() {
        return load_page(inner, id, None);
    }
    RUN_BYTES.with_borrow_mut(|buf| {
        let len = (1 + keys.len()) * PAGE_SIZE;
        if buf.len() < len {
            buf.resize(len, 0);
        }
        let bytes = &mut buf[..len];
        if inner
            .main
            .read_exact_at(bytes, id as u64 * PAGE_SIZE as u64)
            .is_err()
        {
            // A short or failed read of the run: read the page alone, so
            // an error names it.
            return load_page(inner, id, None);
        }
        let mut images = bytes.chunks_exact(PAGE_SIZE);
        let first = checked_image(PageData::from_bytes(images.next().expect("one page")), id)?;
        for (&key, image) in keys.iter().zip(images) {
            let Ok(p) = checked_image(PageData::from_bytes(image), key.0) else {
                break;
            };
            inner.stats.pool_misses.inc();
            inner.stats.main_reads.inc();
            let data = Arc::new(p);
            inner.pool.insert_with(key, Arc::clone(&data), access);
            run.ahead.push((key.0, data));
        }
        Ok(first)
    })
}

thread_local! {
    /// Where [`load_run`] reads a run, kept per thread so it is zero
    /// filled once, not on every read.
    static RUN_BYTES: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Structural validation of an image fresh from disk, keyed on its page
/// type: B+tree nodes get [`node::validate`] (`O(cells)`, paid once per
/// load instead of on every fetch); other page kinds carry no offsets
/// that are followed without a check.
fn checked_image(p: PageData, id: PageId) -> Result<PageData> {
    if matches!(
        p.page_type(),
        page_type::BTREE_LEAF | page_type::BTREE_INTERIOR
    ) {
        node::validate(&p, id)?;
    }
    Ok(p)
}

/// Longest main-file read a scan miss makes, in pages: the leaf that
/// missed plus up to fifteen leaves the scan walks onto after it.
const MAX_RUN_PAGES: usize = 16;

/// What [`crate::PageRead::page_scan_run`] passes down to [`load_run`].
pub(super) struct Run<'a> {
    /// The pages the scan walks onto after the one it missed, in order.
    pub(super) then: &'a mut dyn Iterator<Item = PageId>,
    /// Where the pages read after the missed one go, in order.
    pub(super) ahead: &'a mut Vec<(PageId, Arc<PageData>)>,
    /// Page count of the reading transaction: no page at or past it is
    /// read.
    pub(super) page_count: u32,
}

/// The pool's image of `id` at `snapshot`, counted as a hit, or on a
/// miss the version and WAL offset [`resolve_version`] found: the first
/// step of [`resolve`], which a scan also takes alone before it deals
/// with the pages it walks onto next — on a hit it hands over those the
/// pool holds ([`cached_run`]), on a miss it reads them along
/// ([`load_run`]).
#[inline]
pub(super) fn cached(
    inner: &StoreInner,
    id: PageId,
    snapshot: u64,
    access: Access,
) -> std::result::Result<Arc<PageData>, (u64, Option<u64>)> {
    let (version, from_wal) = resolve_version(inner, id, snapshot);
    let data = inner
        .pool
        .get_with((id, version), access)
        .ok_or((version, from_wal))?;
    inner.stats.pool_hits.inc();
    Ok(data)
}

/// The hit counterpart of [`load_run`]: after a scan hit, hands over
/// the pages the scan walks onto next (`run.then`, at most
/// [`MAX_RUN_PAGES`]` - 1`) that the pool holds, in order onto
/// `run.ahead`, each counted as one hit — so the scan pays for its
/// pool lookups once per run instead of once per page. Their versions
/// are resolved by [`version_at`] under one read guard of the WAL index
/// and one of the checkpoint versions, taken in [`resolve_version`]'s
/// order; the images are then taken under one pool lock, up to the
/// first page that is not resident, which the scan then fetches itself.
pub(super) fn cached_run(inner: &StoreInner, snapshot: u64, access: Access, run: Run<'_>) {
    let mut keys = [(0, 0); MAX_RUN_PAGES - 1];
    let mut len = 0;
    {
        let index = inner.wal.index();
        let base = inner.base_version.read();
        for next in run.then.take(keys.len()) {
            if next >= run.page_count {
                break;
            }
            keys[len] = (next, version_at(&index, || &*base, next, snapshot).0);
            len += 1;
        }
    }
    // Room for the longest run at once, so a walk's handed-over pages
    // cost it one allocation, not one per run that outgrows the last.
    run.ahead.reserve(MAX_RUN_PAGES - 1);
    let found = inner.pool.get_run(&keys[..len], access, |(id, _), data| {
        run.ahead.push((id, data));
    });
    inner.stats.pool_hits.add(found as u64);
}

/// Resolves a page image at `snapshot`, going through the buffer pool.
/// `access` is the cache-admission hint: `Scan` for bulk sweeps. Given
/// with `run` the pages a scan walks onto next, a miss in the main file
/// reads a run of them along ([`load_run`]).
pub(super) fn resolve(
    inner: &StoreInner,
    id: PageId,
    snapshot: u64,
    access: Access,
    mut run: Option<Run<'_>>,
) -> Result<Arc<PageData>> {
    // Two attempts: when the oldest registered reader sits exactly at
    // the checkpoint watermark, a concurrent checkpoint may reset the
    // WAL between version resolution and the frame read. The second
    // attempt re-resolves against the post-reset state (the image now
    // lives in the main file).
    let mut last_err = None;
    for attempt in 0..2 {
        let (version, from_wal) = match cached(inner, id, snapshot, access) {
            Ok(data) => return Ok(data),
            Err(miss) => miss,
        };
        if attempt == 0 {
            inner.stats.pool_misses.inc();
        }
        match from_wal {
            Some(_) => inner.stats.wal_reads.inc(),
            None => inner.stats.main_reads.inc(),
        }
        let loaded = match (from_wal, run.take()) {
            (None, Some(run)) => load_run(inner, id, snapshot, access, run),
            _ => load_page(inner, id, from_wal),
        };
        match loaded {
            Ok(p) => {
                let data = Arc::new(p);
                inner
                    .pool
                    .insert_with((id, version), Arc::clone(&data), access);
                return Ok(data);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("two attempts always record an error"))
}
