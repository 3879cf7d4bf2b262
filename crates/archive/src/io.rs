//! The durable pattern base's I/O seam.
//!
//! Everything the WAL and the checkpointer do to disk goes
//! through [`ArchiveIo`] — a deliberately narrow, directory-scoped file
//! interface. Production uses [`DiskIo`] (real files, real `fsync`, and
//! tmp+rename+fsync atomic replacement). Tests use `FaultFs` (behind the
//! `test-util` feature), an in-memory filesystem that injects a crash —
//! torn write, short write, or bit flip — at an exact, enumerable byte
//! offset, so recovery tests can sweep *every* possible crash point
//! deterministically (`DESIGN.md` §10).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Directory-scoped file operations of a durable archive. Implementors
/// must make `write_file_atomic` all-or-nothing: after a crash at any
/// point inside it, a reader sees either the old content or the new,
/// never a mixture or a torn prefix.
pub trait ArchiveIo: Send + Sync {
    /// Entire content of `name`, or `None` if it does not exist.
    fn read_file(&mut self, name: &str) -> io::Result<Option<Vec<u8>>>;

    /// Append bytes to `name`, creating it if needed. Durable only after
    /// [`sync`](Self::sync).
    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Flush and `fsync` `name` — the commit point of the WAL.
    fn sync(&mut self, name: &str) -> io::Result<()>;

    /// Truncate `name` to `len` bytes (discarding a torn tail). A missing
    /// file is left missing.
    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()>;

    /// Replace `name` with `bytes` atomically (tmp file + `fsync` +
    /// rename + directory `fsync` on the disk implementation).
    fn write_file_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;
}

/// Write `bytes` to `path` atomically: a sibling `.tmp` file is written
/// and fsynced, renamed over the target, and the parent directory is
/// fsynced so the rename itself is durable. A crash at any point leaves
/// the previous `path` content intact.
fn atomic_write_bytes(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        // Directory fsync makes the rename durable. Some platforms (and
        // pseudo-filesystems) refuse to open directories — the rename is
        // still atomic there, so a failure to harden it is not fatal.
        if let Ok(dir) = File::open(if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        }) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Real-filesystem [`ArchiveIo`] over one directory (created on first
/// use). Append handles are cached per file so `sync` fsyncs the same
/// descriptor the writes went through.
pub struct DiskIo {
    dir: PathBuf,
    appenders: HashMap<String, File>,
}

impl DiskIo {
    /// I/O rooted at `dir`, creating the directory if missing.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskIo> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskIo {
            dir,
            appenders: HashMap::new(),
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn appender(&mut self, name: &str) -> io::Result<&mut File> {
        if !self.appenders.contains_key(name) {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path(name))?;
            self.appenders.insert(name.to_string(), file);
        }
        Ok(self.appenders.get_mut(name).unwrap())
    }
}

impl ArchiveIo for DiskIo {
    fn read_file(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.appender(name)?.write_all(bytes)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        let file = self.appender(name)?;
        file.flush()?;
        file.sync_all()
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        // Drop the cached appender first: append-mode positions would
        // otherwise be stale after the length change.
        self.appenders.remove(name);
        match OpenOptions::new().write(true).open(self.path(name)) {
            Ok(file) => {
                file.set_len(len)?;
                file.sync_all()
            }
            // Nothing to cut (a checkpoint before the first WAL append).
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn write_file_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.appenders.remove(name);
        atomic_write_bytes(&self.path(name), bytes)
    }
}

#[cfg(any(test, feature = "test-util"))]
pub use fault::{FaultFs, FaultMode, FaultPlan};

#[cfg(any(test, feature = "test-util"))]
mod fault {
    //! Deterministic crash injection for recovery tests.

    use super::*;
    use std::sync::{Arc, Mutex};

    /// How the injected crash mangles the write it lands in.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FaultMode {
        /// The crossing write persists exactly up to the fault offset —
        /// the classic torn append.
        Truncate,
        /// Only half of the bytes the crossing write would have persisted
        /// actually land (a partial sector), then the crash.
        ShortWrite,
        /// Everything up to the fault offset persists, but one bit of the
        /// final persisted byte is flipped (offset-seeded), modelling
        /// in-flight corruption.
        BitFlip,
    }

    /// Where and how to crash: after `at` total bytes written through
    /// this filesystem, apply `mode` and fail every later operation.
    #[derive(Clone, Copy, Debug)]
    pub struct FaultPlan {
        /// Cumulative written-byte offset the crash triggers at.
        pub at: u64,
        /// Mangling applied to the crossing write.
        pub mode: FaultMode,
    }

    struct FaultState {
        files: HashMap<String, Vec<u8>>,
        written: u64,
        plan: Option<FaultPlan>,
        crashed: bool,
    }

    /// In-memory [`ArchiveIo`] with deterministic crash injection.
    ///
    /// Every byte written (appends, atomic writes; truncations count one
    /// byte) advances a global counter; when it crosses the armed
    /// [`FaultPlan`] offset the write is mangled per the plan's mode and
    /// the filesystem "crashes": the mangled state is frozen and every
    /// subsequent operation fails. Clone handles share state, so a test
    /// can crash a writer, [`disarm`](FaultFs::disarm) the fault, and
    /// hand the surviving state to recovery — sweeping `at` over
    /// `0..total_written` enumerates every possible crash point of a
    /// workload.
    ///
    /// The durability model is pessimistic about nothing: bytes written
    /// before the crash survive whether or not they were fsynced. That
    /// makes the recovered state the *longest* prefix a real disk could
    /// have retained; the recovery invariant tests assert against
    /// exactly that.
    #[derive(Clone)]
    pub struct FaultFs {
        state: Arc<Mutex<FaultState>>,
    }

    impl FaultFs {
        /// Fresh empty filesystem with no fault armed.
        pub fn new() -> FaultFs {
            FaultFs {
                state: Arc::new(Mutex::new(FaultState {
                    files: HashMap::new(),
                    written: 0,
                    plan: None,
                    crashed: false,
                })),
            }
        }

        /// Arm the crash plan (replacing any previous one).
        pub fn arm(&self, plan: FaultPlan) {
            let mut s = self.state.lock().unwrap();
            s.plan = Some(plan);
        }

        /// Disarm the fault and clear the crashed flag so recovery can
        /// operate on the surviving state.
        pub fn disarm(&self) {
            let mut s = self.state.lock().unwrap();
            s.plan = None;
            s.crashed = false;
        }

        /// Total bytes written so far (the sweep range for crash plans).
        pub fn total_written(&self) -> u64 {
            self.state.lock().unwrap().written
        }

        /// Whether the armed fault has fired.
        pub fn crashed(&self) -> bool {
            self.state.lock().unwrap().crashed
        }

        /// Current content of a file (test inspection).
        pub fn contents(&self, name: &str) -> Option<Vec<u8>> {
            self.state.lock().unwrap().files.get(name).cloned()
        }
    }

    impl Default for FaultFs {
        fn default() -> Self {
            Self::new()
        }
    }

    fn crash_err() -> io::Error {
        io::Error::other("injected crash (FaultFs)")
    }

    impl FaultState {
        fn check_alive(&self) -> io::Result<()> {
            if self.crashed {
                Err(crash_err())
            } else {
                Ok(())
            }
        }

        /// Account `len` bytes of writing; if the armed fault offset is
        /// crossed, return the number of bytes of this write that still
        /// persist (mangled per mode) and flag the crash.
        fn admit(&mut self, len: u64) -> Result<u64, (u64, FaultMode)> {
            let Some(plan) = self.plan else {
                self.written += len;
                return Ok(len);
            };
            if self.written + len <= plan.at {
                self.written += len;
                return Ok(len);
            }
            let persisted = plan.at.saturating_sub(self.written);
            self.written = plan.at;
            self.crashed = true;
            Err((persisted, plan.mode))
        }
    }

    impl ArchiveIo for FaultFs {
        fn read_file(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
            let s = self.state.lock().unwrap();
            s.check_alive()?;
            Ok(s.files.get(name).cloned())
        }

        fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
            let mut s = self.state.lock().unwrap();
            s.check_alive()?;
            match s.admit(bytes.len() as u64) {
                Ok(_) => {
                    s.files
                        .entry(name.to_string())
                        .or_default()
                        .extend_from_slice(bytes);
                    Ok(())
                }
                Err((persisted, mode)) => {
                    let keep = match mode {
                        FaultMode::Truncate | FaultMode::BitFlip => persisted as usize,
                        FaultMode::ShortWrite => (persisted / 2) as usize,
                    };
                    let file = s.files.entry(name.to_string()).or_default();
                    file.extend_from_slice(&bytes[..keep]);
                    if mode == FaultMode::BitFlip {
                        if let Some(last) = file.last_mut() {
                            *last ^= 1 << (persisted % 8);
                        }
                    }
                    Err(crash_err())
                }
            }
        }

        fn sync(&mut self, name: &str) -> io::Result<()> {
            let s = self.state.lock().unwrap();
            s.check_alive()?;
            let _ = name;
            Ok(())
        }

        fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
            let mut s = self.state.lock().unwrap();
            s.check_alive()?;
            // A truncate is one metadata write's worth of budget, so the
            // sweep also lands crash points *between* data writes.
            if s.admit(1).is_err() {
                return Err(crash_err());
            }
            if let Some(data) = s.files.get_mut(name) {
                data.truncate(len as usize);
            }
            Ok(())
        }

        fn write_file_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
            let mut s = self.state.lock().unwrap();
            s.check_alive()?;
            // All-or-nothing by contract: if the byte budget crashes
            // anywhere inside this write, the *old* content survives
            // untouched (the torn tmp file is invisible after recovery),
            // plus one rename's worth of budget for a crash point
            // between the data write and the rename.
            match s.admit(bytes.len() as u64 + 1) {
                Ok(_) => {
                    s.files.insert(name.to_string(), bytes.to_vec());
                    Ok(())
                }
                Err(_) => Err(crash_err()),
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn faultfs_roundtrip_without_fault() {
            let mut fs = FaultFs::new();
            fs.append("wal", b"hello ").unwrap();
            fs.append("wal", b"world").unwrap();
            fs.sync("wal").unwrap();
            assert_eq!(fs.read_file("wal").unwrap().unwrap(), b"hello world");
            fs.truncate("wal", 5).unwrap();
            assert_eq!(fs.read_file("wal").unwrap().unwrap(), b"hello");
            assert_eq!(fs.total_written(), 12); // 11 data + 1 truncate
        }

        #[test]
        fn truncate_fault_cuts_the_crossing_write() {
            let mut fs = FaultFs::new();
            fs.arm(FaultPlan {
                at: 8,
                mode: FaultMode::Truncate,
            });
            fs.append("wal", b"abcdef").unwrap();
            assert!(fs.append("wal", b"ghijkl").is_err());
            assert!(fs.crashed());
            // 6 + 2 = 8 bytes persisted, the rest torn off.
            assert_eq!(fs.contents("wal").unwrap(), b"abcdefgh");
            // Everything fails after the crash...
            assert!(fs.append("wal", b"x").is_err());
            assert!(fs.read_file("wal").is_err());
            // ...until recovery disarms.
            fs.disarm();
            assert_eq!(fs.read_file("wal").unwrap().unwrap(), b"abcdefgh");
        }

        #[test]
        fn short_write_fault_keeps_half() {
            let mut fs = FaultFs::new();
            fs.arm(FaultPlan {
                at: 8,
                mode: FaultMode::ShortWrite,
            });
            assert!(fs.append("wal", b"abcdefghij").is_err());
            // 8 would have persisted; a short write keeps half of them.
            assert_eq!(fs.contents("wal").unwrap(), b"abcd");
        }

        #[test]
        fn bit_flip_fault_corrupts_last_persisted_byte() {
            let mut fs = FaultFs::new();
            fs.arm(FaultPlan {
                at: 4,
                mode: FaultMode::BitFlip,
            });
            assert!(fs.append("wal", b"aaaaaaaa").is_err());
            let data = fs.contents("wal").unwrap();
            assert_eq!(data.len(), 4);
            assert_eq!(&data[..3], b"aaa");
            assert_ne!(data[3], b'a');
        }

        #[test]
        fn atomic_write_is_all_or_nothing_under_fault() {
            let mut fs = FaultFs::new();
            fs.write_file_atomic("snap", b"old archive").unwrap();
            let base = fs.total_written();
            fs.arm(FaultPlan {
                at: base + 5,
                mode: FaultMode::Truncate,
            });
            assert!(fs.write_file_atomic("snap", b"new archive").is_err());
            fs.disarm();
            assert_eq!(fs.read_file("snap").unwrap().unwrap(), b"old archive");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_io_roundtrip_and_atomic_replace() {
        let dir = std::env::temp_dir().join(format!("sgs_diskio_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut io = DiskIo::open(&dir).unwrap();
        io.append("wal.log", b"record-a").unwrap();
        io.append("wal.log", b"record-b").unwrap();
        io.sync("wal.log").unwrap();
        assert_eq!(
            io.read_file("wal.log").unwrap().unwrap(),
            b"record-arecord-b"
        );

        io.truncate("wal.log", 8).unwrap();
        assert_eq!(io.read_file("wal.log").unwrap().unwrap(), b"record-a");
        // Appends continue at the truncated end.
        io.append("wal.log", b"!").unwrap();
        assert_eq!(io.read_file("wal.log").unwrap().unwrap(), b"record-a!");

        io.write_file_atomic("base.store", b"v1").unwrap();
        io.write_file_atomic("base.store", b"v2").unwrap();
        assert_eq!(io.read_file("base.store").unwrap().unwrap(), b"v2");
        // No tmp residue after a successful atomic write.
        assert!(!dir.join("base.store.tmp").exists());
        assert_eq!(io.read_file("missing").unwrap(), None);
        // Truncating what was never written is a no-op, not an error, and
        // does not create the file.
        io.truncate("missing", 0).unwrap();
        assert_eq!(io.read_file("missing").unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
