//! `SimVfs`: a deterministic, in-memory [`crate::vfs::Vfs`] that
//! simulates crashes and power loss.
//!
//! Every file is modelled as two images plus a log:
//!
//! * the **durable** image — what the platter would hold after a power
//!   cut: the state as of the file's last `sync`;
//! * the **current** image — what the OS page cache holds: every write
//!   applied in order (reads are served from here);
//! * the **pending log** — writes and truncations issued since the
//!   last `sync`, each stamped with a global sequence number.
//!
//! A `sync` promotes the current image to durable and clears the log.
//!
//! ## Crash injection
//!
//! [`SimVfs::arm`] plants a [`CrashPlan`]: mutating operations (writes,
//! truncations, syncs) are counted, and the Nth one fails with a
//! "simulated crash" I/O error — optionally after applying a torn
//! prefix of the final write. From then on *every* operation errors, so
//! the workload unwinds exactly as it would when the process dies.
//!
//! [`SimVfs::power_cut`] then decides what survived, per the real
//! power-loss model: everything synced is kept, and each unsynced
//! pending operation is independently kept or dropped by a
//! [`PowerCut`] policy — all of them (a pure process crash: the page
//! cache survived), none of them, or a seed-deterministic subset
//! (drives give no ordering guarantees between barriers). The same
//! seed always keeps the same subset, so a failing crash point
//! reproduces exactly.
//!
//! File *creation* is modelled as immediately durable (journalled file
//! systems persist the directory entry with the first fsync of the
//! file; the store syncs both files at creation in every durable sync
//! mode).

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::vfs::{OpenMode, Vfs, VfsFile};

/// When and how to interrupt the operation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// The 1-based index (among mutating operations counted since
    /// [`SimVfs::arm`]) of the operation that crashes.
    pub at_op: u64,
    /// What happens to the crashing operation itself:
    /// * `None` — it is dropped entirely (the crash lands just before
    ///   the write reaches the cache);
    /// * `Some(num)` — a write is torn: only the first
    ///   `len * num / 8` bytes (at least one) reach the cache. Syncs
    ///   and truncations are always dropped.
    pub torn_eighths: Option<u8>,
}

/// What survives a power cut, applied to each unsynced pending
/// operation independently (synced state always survives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerCut {
    /// Keep every pending operation: a process crash — the OS page
    /// cache (and therefore every completed write) survived.
    KeepAll,
    /// Drop every pending operation: the drive persisted nothing past
    /// the last sync barrier.
    DropUnsynced,
    /// Keep a seed-deterministic subset: each pending operation is
    /// kept iff `splitmix64(seed ^ op_seq)` is even. Models a drive
    /// persisting cached writes in arbitrary order.
    KeepSeeded(u64),
}

#[derive(Debug, Clone)]
enum PendingKind {
    Write { offset: u64, data: Vec<u8> },
    SetLen(u64),
}

#[derive(Debug, Clone)]
struct PendingOp {
    seq: u64,
    kind: PendingKind,
}

#[derive(Debug, Default)]
struct SimFile {
    durable: Vec<u8>,
    current: Vec<u8>,
    pending: Vec<PendingOp>,
}

impl SimFile {
    fn apply(image: &mut Vec<u8>, kind: &PendingKind) {
        match kind {
            PendingKind::Write { offset, data } => {
                let end = *offset as usize + data.len();
                if image.len() < end {
                    image.resize(end, 0);
                }
                image[*offset as usize..end].copy_from_slice(data);
            }
            PendingKind::SetLen(len) => image.resize(*len as usize, 0),
        }
    }
}

#[derive(Debug, Default)]
struct SimState {
    files: BTreeMap<PathBuf, SimFile>,
    /// Mutating operations observed since the last [`SimVfs::arm`] /
    /// [`SimVfs::power_cut`].
    ops: u64,
    plan: Option<CrashPlan>,
    crashed: bool,
    next_seq: u64,
    /// Lifetime counters (never reset): every write / sync / set_len
    /// the store issued through this VFS.
    total_writes: u64,
    total_syncs: u64,
    total_set_lens: u64,
    /// Artificial latency per `sync`, slept *outside* the state lock so
    /// concurrent writes proceed during a slow sync — used to widen the
    /// group-commit batching window in tests.
    sync_delay: std::time::Duration,
}

/// The simulated file system. Cheap to clone (shared state); pass
/// [`SimVfs::handle`] into
/// [`StoreOptions::vfs`](crate::StoreOptions::vfs).
#[derive(Clone, Default)]
pub struct SimVfs {
    state: Arc<Mutex<SimState>>,
}

fn crash_error() -> io::Error {
    io::Error::other("simulated crash: I/O rejected past the injection point")
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl SimVfs {
    /// A fresh, empty simulated file system with no crash armed.
    pub fn new() -> SimVfs {
        SimVfs::default()
    }

    /// This VFS as the trait object [`StoreOptions`](crate::StoreOptions)
    /// wants.
    pub fn handle(&self) -> Arc<dyn Vfs> {
        Arc::new(self.clone())
    }

    /// Mutating operations (writes, truncations, syncs) observed since
    /// the last [`SimVfs::arm`] or [`SimVfs::power_cut`]. Run a
    /// workload once un-crashed to learn the number of injection
    /// points, then loop `at_op` over `1..=ops()`.
    pub fn ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// Lifetime `(writes, syncs, set_lens)` counters.
    pub fn recorded(&self) -> (u64, u64, u64) {
        let s = self.state.lock();
        (s.total_writes, s.total_syncs, s.total_set_lens)
    }

    /// Makes every subsequent `sync` take at least `delay` of wall
    /// time (slept before the sync applies, without holding the state
    /// lock). Models a slow disk so tests can observe several
    /// committers sharing one group fsync.
    pub fn set_sync_delay(&self, delay: std::time::Duration) {
        self.state.lock().sync_delay = delay;
    }

    /// Arms a crash and resets the operation counter.
    pub fn arm(&self, plan: CrashPlan) {
        assert!(plan.at_op >= 1, "operations are 1-indexed");
        let mut s = self.state.lock();
        s.ops = 0;
        s.plan = Some(plan);
        s.crashed = false;
    }

    /// Whether an armed crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Simulates the power cut and restart: for every file, the synced
    /// image survives and each unsynced pending operation is kept or
    /// dropped per `policy` (kept operations re-apply in their original
    /// order). Clears the crash state so the surviving files can be
    /// reopened through this same VFS.
    pub fn power_cut(&self, policy: PowerCut) {
        let mut s = self.state.lock();
        for file in s.files.values_mut() {
            let mut image = std::mem::take(&mut file.durable);
            for op in &file.pending {
                let keep = match policy {
                    PowerCut::KeepAll => true,
                    PowerCut::DropUnsynced => false,
                    PowerCut::KeepSeeded(seed) => splitmix64(seed ^ op.seq) & 1 == 0,
                };
                if keep {
                    SimFile::apply(&mut image, &op.kind);
                }
            }
            file.pending.clear();
            file.current = image.clone();
            file.durable = image;
        }
        s.ops = 0;
        s.plan = None;
        s.crashed = false;
    }

    /// The current (page-cache) length of `path`, if it exists — for
    /// test assertions.
    pub fn file_len(&self, path: &Path) -> Option<u64> {
        self.state
            .lock()
            .files
            .get(path)
            .map(|f| f.current.len() as u64)
    }

    /// Runs one mutating operation against `path` under the crash
    /// plan. Returns the crash error at the injection point and for
    /// every operation after it.
    fn mutate(&self, path: &Path, kind: PendingKind, is_sync: bool) -> io::Result<()> {
        let mut s = self.state.lock();
        if s.crashed {
            return Err(crash_error());
        }
        s.ops += 1;
        match (&kind, is_sync) {
            (_, true) => s.total_syncs += 1,
            (PendingKind::Write { .. }, _) => s.total_writes += 1,
            (PendingKind::SetLen(_), _) => s.total_set_lens += 1,
        }
        let crash_now = s.plan.is_some_and(|p| s.ops >= p.at_op);
        if crash_now {
            s.crashed = true;
            // A torn final write applies a prefix; everything else at
            // the injection point is simply lost.
            if let (PendingKind::Write { offset, data }, Some(eighths), false) =
                (&kind, s.plan.and_then(|p| p.torn_eighths), is_sync)
            {
                let keep = (data.len() * usize::from(eighths.min(8)) / 8).max(1);
                let torn = PendingKind::Write {
                    offset: *offset,
                    data: data[..keep].to_vec(),
                };
                let seq = s.next_seq;
                s.next_seq += 1;
                let file = s.files.get_mut(path).ok_or_else(crash_error)?;
                SimFile::apply(&mut file.current, &torn);
                file.pending.push(PendingOp { seq, kind: torn });
            }
            return Err(crash_error());
        }
        let seq = s.next_seq;
        s.next_seq += 1;
        let file = s
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::other("simulated file vanished"))?;
        if is_sync {
            file.durable = file.current.clone();
            file.pending.clear();
        } else {
            SimFile::apply(&mut file.current, &kind);
            file.pending.push(PendingOp { seq, kind });
        }
        Ok(())
    }
}

impl std::fmt::Debug for SimVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("SimVfs")
            .field("files", &s.files.len())
            .field("ops", &s.ops)
            .field("crashed", &s.crashed)
            .finish()
    }
}

impl Vfs for SimVfs {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>> {
        let mut s = self.state.lock();
        if s.crashed {
            return Err(crash_error());
        }
        let exists = s.files.contains_key(path);
        match mode {
            OpenMode::Open if !exists => {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("simulated file {} not found", path.display()),
                ));
            }
            OpenMode::CreateNew if exists => {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("simulated file {} already exists", path.display()),
                ));
            }
            OpenMode::CreateTruncate => {
                // Creation/truncation is modelled as immediately
                // durable (see module docs).
                s.files.insert(path.to_owned(), SimFile::default());
            }
            OpenMode::CreateNew => {
                s.files.insert(path.to_owned(), SimFile::default());
            }
            OpenMode::Open => {}
        }
        Ok(Box::new(SimFileHandle {
            vfs: self.clone(),
            path: path.to_owned(),
        }))
    }

    fn exists(&self, path: &Path) -> bool {
        self.state.lock().files.contains_key(path)
    }
}

struct SimFileHandle {
    vfs: SimVfs,
    path: PathBuf,
}

impl VfsFile for SimFileHandle {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let s = self.vfs.state.lock();
        if s.crashed {
            return Err(crash_error());
        }
        let file = s
            .files
            .get(&self.path)
            .ok_or_else(|| io::Error::other("simulated file vanished"))?;
        let end = offset as usize + buf.len();
        if end > file.current.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "simulated read past end of file",
            ));
        }
        buf.copy_from_slice(&file.current[offset as usize..end]);
        Ok(())
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.vfs.mutate(
            &self.path,
            PendingKind::Write {
                offset,
                data: buf.to_vec(),
            },
            false,
        )
    }

    fn sync(&self) -> io::Result<()> {
        let delay = self.vfs.state.lock().sync_delay;
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        self.vfs.mutate(&self.path, PendingKind::SetLen(0), true)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.vfs.mutate(&self.path, PendingKind::SetLen(len), false)
    }

    fn len(&self) -> io::Result<u64> {
        let s = self.vfs.state.lock();
        if s.crashed {
            return Err(crash_error());
        }
        s.files
            .get(&self.path)
            .map(|f| f.current.len() as u64)
            .ok_or_else(|| io::Error::other("simulated file vanished"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(f: &dyn VfsFile, b: &[u8], off: u64) {
        f.write_all_at(b, off).unwrap();
    }

    #[test]
    fn durable_vs_pending_and_power_cut() {
        let sim = SimVfs::new();
        let p = Path::new("/x");
        let f = sim.open(p, OpenMode::CreateNew).unwrap();
        write(&*f, b"aaaa", 0);
        f.sync().unwrap();
        write(&*f, b"bb", 1); // pending
                              // The cache view sees the unsynced write...
        let mut buf = [0u8; 4];
        f.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"abba");
        // ...but a power cut that drops unsynced writes does not.
        sim.power_cut(PowerCut::DropUnsynced);
        f.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"aaaa");
    }

    #[test]
    fn crash_at_op_is_deterministic() {
        let run = |at_op: u64| -> (u64, Vec<u8>) {
            let sim = SimVfs::new();
            let p = Path::new("/x");
            let f = sim.open(p, OpenMode::CreateNew).unwrap();
            sim.arm(CrashPlan {
                at_op,
                torn_eighths: None,
            });
            let mut completed = 0u64;
            for i in 0..10u8 {
                if f.write_all_at(&[i; 4], u64::from(i) * 4).is_err() {
                    break;
                }
                completed += 1;
                if i % 3 == 2 && f.sync().is_err() {
                    break;
                }
            }
            sim.power_cut(PowerCut::KeepAll);
            let len = sim.file_len(p).unwrap();
            let mut img = vec![0u8; len as usize];
            f.read_exact_at(&mut img, 0).unwrap();
            (completed, img)
        };
        let (a1, img1) = run(5);
        let (a2, img2) = run(5);
        assert_eq!(a1, a2);
        assert_eq!(img1, img2, "same plan, same surviving bytes");
        let (b1, _) = run(7);
        assert!(b1 > a1, "later crash point admits more writes");
    }

    #[test]
    fn torn_write_keeps_a_prefix() {
        let sim = SimVfs::new();
        let p = Path::new("/x");
        let f = sim.open(p, OpenMode::CreateNew).unwrap();
        sim.arm(CrashPlan {
            at_op: 1,
            torn_eighths: Some(4),
        });
        assert!(f.write_all_at(&[7u8; 8], 0).is_err());
        sim.power_cut(PowerCut::KeepAll);
        assert_eq!(sim.file_len(p), Some(4), "half the write survived");
        // Everything after the crash errors until the power cut.
        let sim2 = SimVfs::new();
        let f2 = sim2.open(p, OpenMode::CreateNew).unwrap();
        sim2.arm(CrashPlan {
            at_op: 1,
            torn_eighths: None,
        });
        assert!(f2.write_all_at(&[7u8; 8], 0).is_err());
        assert!(f2.sync().is_err());
        let mut b = [0u8; 1];
        assert!(f2.read_exact_at(&mut b, 0).is_err());
    }

    #[test]
    fn seeded_subset_is_reproducible() {
        let survivors = |seed: u64| -> Vec<u8> {
            let sim = SimVfs::new();
            let p = Path::new("/x");
            let f = sim.open(p, OpenMode::CreateNew).unwrap();
            f.write_all_at(&[0u8; 16], 0).unwrap();
            f.sync().unwrap();
            for i in 0..8u8 {
                f.write_all_at(&[i + 1; 2], u64::from(i) * 2).unwrap();
            }
            sim.power_cut(PowerCut::KeepSeeded(seed));
            let mut img = vec![0u8; 16];
            f.read_exact_at(&mut img, 0).unwrap();
            img
        };
        assert_eq!(survivors(42), survivors(42), "same seed, same subset");
        // Different seeds should eventually differ (42 vs 43 do).
        assert_ne!(survivors(42), survivors(43));
    }

    #[test]
    fn sync_barrier_limits_loss() {
        let sim = SimVfs::new();
        let p = Path::new("/x");
        let f = sim.open(p, OpenMode::CreateNew).unwrap();
        f.write_all_at(b"synced", 0).unwrap();
        f.sync().unwrap();
        f.write_all_at(b"UNSYNC", 6).unwrap();
        sim.power_cut(PowerCut::KeepSeeded(7));
        // Whatever the subset decision, the synced prefix survives.
        let mut img = vec![0u8; 6];
        f.read_exact_at(&mut img, 0).unwrap();
        assert_eq!(&img, b"synced");
    }

    #[test]
    fn recorded_counters_accumulate() {
        let sim = SimVfs::new();
        let f = sim.open(Path::new("/x"), OpenMode::CreateNew).unwrap();
        f.write_all_at(&[1], 0).unwrap();
        f.sync().unwrap();
        f.set_len(0).unwrap();
        assert_eq!(sim.recorded(), (1, 1, 1));
        assert_eq!(sim.ops(), 3);
    }
}
