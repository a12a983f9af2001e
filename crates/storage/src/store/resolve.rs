//! Which version of a page a snapshot sees ([`resolve_version`]: the
//! newest WAL record at or below it, else the main file), and how its
//! image reaches the buffer pool ([`load`], through [`read_image`] and
//! [`read_run`], the doors from disk).
//!
//! ## Reads
//!
//! Every page is read on the thread that needs it: a buffer-pool miss
//! is served by the transaction that hit it, and a `Store` spawns no
//! thread of its own. Scans tag their reads `Scan` so sweeps recycle
//! the pool's probationary window instead of the hot set.
//!
//! A miss is read into a frame the pool hands out: an evicted image no
//! reader still holds, refilled in place, or a fresh page while the
//! pool has none spare. So once the pool is full, a miss — a main-file
//! run, a single page or a WAL frame — costs one read and no
//! allocation. A scan's run costs one lock of each kind, not one per
//! page: its versions are resolved under one WAL-index guard and one
//! checkpoint-version guard, its residency checked and its frames
//! taken under one pool lock, and the run admitted under one more.

use std::ops::Deref;
use std::sync::Arc;

use super::StoreInner;
use crate::btree::node;
use crate::error::{Result, StorageError};
use crate::hash::PageMap;
use crate::page::{page_type, PageData, PageId, PAGE_SIZE};
use crate::pool::{Access, Frames, PoolKey, MAX_RUN_PAGES};
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
/// file — into a page of its own that the pool never sees: the store's
/// header at open and a writer's spilled pages. A pool miss reads into
/// a frame the pool hands out instead ([`load`]).
pub(super) fn load_page(inner: &StoreInner, id: PageId, from_wal: Option<u64>) -> Result<PageData> {
    let mut page = PageData::zeroed();
    read_image(inner, id, from_wal, &mut page)?;
    Ok(page)
}

/// Reads page `id` — the WAL frame at `from_wal`, else the main file's
/// image — into `page` and checks it. With [`read_run`] the one door
/// through which bytes from disk reach the buffer pool, so the
/// B+tree's zero-copy accessors never see an image that was not
/// validated once.
fn read_image(
    inner: &StoreInner,
    id: PageId,
    from_wal: Option<u64>,
    page: &mut PageData,
) -> Result<()> {
    match from_wal {
        Some(offset) => inner.wal.read_frame(offset, page)?,
        None => inner
            .main
            .read_exact_at(&mut page[..], id as u64 * PAGE_SIZE as u64)
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    StorageError::Corrupt(format!("page {id} missing from main file"))
                } else {
                    StorageError::Io(e)
                }
            })?,
    }
    check_image(page, id)
}

/// Reads the main-file pages `keys` (consecutive ids) into `frames` with
/// one read, checking each image. Returns how many pages, from the
/// first, it read and checked: `0` when the read failed or the first
/// page failed its check, which the caller then reads alone so that an
/// error names it.
fn read_run(inner: &StoreInner, keys: &[PoolKey], frames: &mut Frames) -> usize {
    RUN_BYTES.with_borrow_mut(|buf| {
        let len = keys.len() * PAGE_SIZE;
        if buf.len() < len {
            buf.resize(len, 0);
        }
        let bytes = &mut buf[..len];
        let at = keys[0].0 as u64 * PAGE_SIZE as u64;
        if inner.main.read_exact_at(bytes, at).is_err() {
            return 0;
        }
        for (i, (image, &(id, _))) in bytes.chunks_exact(PAGE_SIZE).zip(keys).enumerate() {
            match &mut frames[i] {
                Some(frame) => Arc::get_mut(frame).expect(TAKEN).copy_from_slice(image),
                // No spare frame: a fresh page, copied without a zero
                // fill first.
                empty => *empty = Some(Arc::new(PageData::from_bytes(image))),
            }
            if check_image(frames[i].as_deref().expect("filled above"), id).is_err() {
                return i;
            }
        }
        keys.len()
    })
}

thread_local! {
    /// Where [`read_run`] reads a run, kept per thread so it is zero
    /// filled once, not on every read.
    static RUN_BYTES: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Why a frame from [`BufferPool::take_frames`](crate::pool::BufferPool::take_frames)
/// can be written: the pool handed out only frames it held alone.
const TAKEN: &str = "a taken frame is its taker's alone";

/// Structural validation of an image fresh from disk, keyed on its page
/// type: B+tree nodes get [`node::validate`] (`O(cells)`, paid once per
/// load instead of on every fetch); other page kinds carry no offsets
/// that are followed without a check.
fn check_image(p: &PageData, id: PageId) -> Result<()> {
    if matches!(
        p.page_type(),
        page_type::BTREE_LEAF | page_type::BTREE_INTERIOR
    ) {
        node::validate(p, id)?;
    }
    Ok(())
}

/// What [`crate::PageRead::page_scan_run`] passes down to [`load`].
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
/// ([`load`]).
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

/// The hit counterpart of [`fill`]'s run: after a scan hit, hands over
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
/// `access` is the cache-admission hint: `Scan` for bulk sweeps.
pub(super) fn resolve(
    inner: &StoreInner,
    id: PageId,
    snapshot: u64,
    access: Access,
) -> Result<Arc<PageData>> {
    cached(inner, id, snapshot, access)
        .or_else(|miss| load(inner, id, snapshot, access, miss, None))
}

/// Serves a pool miss of `id`, at the version and WAL offset [`cached`]
/// found, counted as one miss. Given with `run` the pages a scan walks
/// onto next, a miss in the main file reads a run of them along
/// ([`fill`]). Kept out of line so the pool-hit path of [`resolve`]
/// stays small.
///
/// Two attempts: when the oldest registered reader sits exactly at the
/// checkpoint watermark, a concurrent checkpoint may reset the WAL
/// between version resolution and the frame read. The second attempt
/// re-resolves against the post-reset state (the image now lives in
/// the main file).
#[inline(never)]
pub(super) fn load(
    inner: &StoreInner,
    id: PageId,
    snapshot: u64,
    access: Access,
    miss: (u64, Option<u64>),
    run: Option<Run<'_>>,
) -> Result<Arc<PageData>> {
    inner.stats.pool_misses.inc();
    match fill(inner, id, snapshot, access, miss, run) {
        Err(_) => match cached(inner, id, snapshot, access) {
            Ok(data) => Ok(data),
            Err(miss) => fill(inner, id, snapshot, access, miss, None),
        },
        loaded => loaded,
    }
}

/// One attempt of [`load`]: reads the image of `id` into a spare frame
/// the pool hands out
/// ([`BufferPool::take_frames`](crate::pool::BufferPool::take_frames)),
/// else a fresh page, and admits it with `access`. With `run`, a miss
/// in the main file also reads the pages the scan walks onto after it,
/// in the same call, each only while it is the next page id of the
/// file, resolves to the main file at this snapshot and is not cached —
/// [`MAX_RUN_PAGES`] in all at most. So no read bridges a gap, and no page is read that the
/// scan would find cached. Their versions are resolved under one read
/// guard of the WAL index and one of the checkpoint versions; their
/// residency is checked and their frames are taken under one pool lock,
/// and the run is admitted under one more. The pages after `id` count
/// as one pool miss and one main-file read each and go onto
/// `run.ahead`; a page that fails its check ends the run there, left
/// for the scan to read and report alone.
fn fill(
    inner: &StoreInner,
    id: PageId,
    snapshot: u64,
    access: Access,
    (version, from_wal): (u64, Option<u64>),
    run: Option<Run<'_>>,
) -> Result<Arc<PageData>> {
    match from_wal {
        Some(_) => inner.stats.wal_reads.inc(),
        None => inner.stats.main_reads.inc(),
    }
    let mut keys = [(id, version); MAX_RUN_PAGES];
    let mut len = 1;
    let mut ahead = None;
    if let (None, Some(run)) = (from_wal, run) {
        let index = inner.wal.index();
        let base = inner.base_version.read();
        for next in run.then.take(MAX_RUN_PAGES - 1) {
            if next != id + len as PageId || next >= run.page_count {
                break;
            }
            match version_at(&index, || &*base, next, snapshot) {
                (version, None) => keys[len] = (next, version),
                (_, Some(_)) => break,
            }
            len += 1;
        }
        ahead = Some(run.ahead);
    }
    let mut frames = Frames::default();
    let mut len = inner.pool.take_frames(&keys[..len], &mut frames);
    if len > 1 {
        len = read_run(inner, &keys[..len], &mut frames);
    }
    if len > 1 {
        inner.stats.pool_misses.add(len as u64 - 1);
        inner.stats.main_reads.add(len as u64 - 1);
    } else {
        len = 1;
        let frame = frames[0].get_or_insert_with(|| Arc::new(PageData::zeroed()));
        read_image(inner, id, from_wal, Arc::get_mut(frame).expect(TAKEN))?;
    }
    let frame = |i: usize| Arc::clone(frames[i].as_ref().expect("filled above"));
    inner
        .pool
        .insert_all((0..len).map(|i| (keys[i], frame(i))), access);
    if let Some(ahead) = ahead {
        ahead.extend((1..len).map(|i| (keys[i].0, frame(i))));
    }
    Ok(frame(0))
}
