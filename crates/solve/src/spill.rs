//! Disk spill for the exploration's and the solve's bulk arrays.
//!
//! The packed-state array (see [`crate::arena`]) and the CSR entries —
//! the one transition store, shared by the state space and its
//! generators — dominate the memory footprint of a large run.
//! With [`SpillOptions`] set, their *sealed* segments are paged out to
//! one shared unlinked temp file whenever the resident total exceeds
//! the configured budget, oldest segment first — exactly the access
//! pattern of the downstream consumers, which stream the arrays front
//! to back (CSR assembly, reward evaluation, sequential row scans,
//! sharded SpMV sweeps). Pages are read back on demand through a tiny
//! LRU in each store.
//!
//! The same file also backs the external-memory exploration
//! (the `ddd` module): sorted per-level key runs are appended raw via
//! `SpillShared::append_raw` and streamed back during duplicate
//! detection. Those runs are append-once/stream-many and never
//! resident, so they bypass the resident-bytes account.
//!
//! Spilling never changes results: segments hold the same bytes on
//! disk as in RAM, and every consumer sees identical rows. The CI
//! acceptance test asserts the canonical CSR is byte-identical with
//! spill on and off.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use ctsim_resilience::{fail, retry};

use crate::SolveError;

/// How exploration deduplicates states when a spill budget is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DedupMode {
    /// Start with the resident sharded intern table and restart the
    /// exploration in external-memory mode if the table's estimated
    /// footprint outgrows its share of the spill budget.
    #[default]
    Auto,
    /// Always dedup in RAM (the pre-out-of-core behaviour): fastest,
    /// but the intern arena is then a hard RAM floor of
    /// `states × (8·words + 1)` bytes plus the hash tables.
    Resident,
    /// Force external-memory BFS with delayed duplicate detection from
    /// level 0 (sort each frontier, sort-merge against the on-disk
    /// visited runs). Mostly useful for tests and comparisons; `Auto`
    /// picks this automatically when the budget demands it.
    External,
}

impl DedupMode {
    /// The CLI slug (`auto` / `resident` / `external`).
    pub fn name(&self) -> &'static str {
        match self {
            DedupMode::Auto => "auto",
            DedupMode::Resident => "resident",
            DedupMode::External => "external",
        }
    }
}

impl std::fmt::Display for DedupMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for DedupMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(DedupMode::Auto),
            "resident" => Ok(DedupMode::Resident),
            "external" | "ddd" => Ok(DedupMode::External),
            other => Err(format!(
                "unknown dedup mode {other:?} (expected auto, resident, or external)"
            )),
        }
    }
}

/// Where and how aggressively to page cold exploration segments to
/// disk.
#[derive(Debug, Clone)]
pub struct SpillOptions {
    /// Target ceiling (bytes) on the *resident* bulk state of a run:
    /// sealed segments of the packed-state array and the paged CSR
    /// entries, plus (under
    /// [`DedupMode::Auto`]) the estimated intern-table footprint that
    /// triggers the switch to external-memory dedup. Per-level scratch
    /// (worker chains, the sort buffers of one frontier) is not
    /// counted — it bounds the working set of one level, not the
    /// arrays that grow with the full state space.
    pub budget_bytes: usize,
    /// Directory for the spill file (unlinked immediately after
    /// creation, so a crash leaks no file). Defaults to
    /// [`std::env::temp_dir`].
    pub dir: Option<PathBuf>,
    /// How exploration deduplicates states (resident intern table vs.
    /// external-memory sort-merge).
    pub dedup: DedupMode,
}

impl SpillOptions {
    /// A spill configuration with the given resident budget, paging
    /// into the system temp directory, with [`DedupMode::Auto`]
    /// deduplication.
    pub fn with_budget(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            dir: None,
            dedup: DedupMode::Auto,
        }
    }

    /// The same configuration with an explicit [`DedupMode`].
    pub fn dedup(mut self, mode: DedupMode) -> Self {
        self.dedup = mode;
        self
    }
}

/// The shared spill backend: one append-only unlinked temp file plus
/// the resident-bytes account that all participating stores debit.
///
/// Every I/O primitive is a named failpoint site and runs under the
/// bounded retry policy of `ctsim-resilience`: a transient failure
/// (injected or real) is retried with deterministic virtual backoff,
/// and exhaustion surfaces as [`SolveError::SpillFailed`] carrying the
/// per-attempt trace. Callers pass their site name (`"arena.page_in"`,
/// `"ddd.append_run"`, `"csr.page_in"`, …) so fault schedules can
/// target one consumer at a time; see `docs/RESILIENCE.md` for the
/// site catalog.
pub(crate) struct SpillShared {
    file: Mutex<SpillFile>,
    /// The (already unlinked) path the spill file was created at, kept
    /// for diagnostics: I/O errors on an anonymous fd are useless
    /// without it.
    path: PathBuf,
    /// Resident sealed-segment bytes across every store on this spill.
    resident: AtomicUsize,
    /// Configured ceiling on `resident`.
    budget: usize,
    /// Bytes currently written out (diagnostics).
    spilled: AtomicU64,
    /// Retry policy for every I/O primitive on this file.
    policy: retry::RetryPolicy,
}

struct SpillFile {
    file: File,
    len: u64,
}

impl SpillShared {
    pub(crate) fn new(opts: &SpillOptions) -> Result<Self, SolveError> {
        let dir = opts.dir.clone().unwrap_or_else(std::env::temp_dir);
        // Unique name: pid + a process-wide counter. The path is
        // unlinked right after creation; the fd keeps the storage
        // alive, the namespace stays clean even on abort.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let policy = retry::RetryPolicy::default();
        let file_and_path = retry::with_retries(&policy, "spill.create", || {
            fail::io_check("spill.create")?;
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("ctsim-spill-{}-{seq}.bin", std::process::id()));
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)?;
            let _ = std::fs::remove_file(&path);
            Ok::<_, io::Error>((file, path))
        });
        let (file, path) = file_and_path.map_err(|e| exhausted("spill.create", &dir, e))?;
        Ok(Self {
            file: Mutex::new(SpillFile { file, len: 0 }),
            path,
            resident: AtomicUsize::new(0),
            budget: opts.budget_bytes,
            spilled: AtomicU64::new(0),
            policy,
        })
    }

    /// Runs one raw I/O closure as failpoint site `site` under the
    /// retry policy; exhaustion becomes the typed
    /// [`SolveError::SpillFailed`] with the attempt trace.
    fn guarded<T>(
        &self,
        site: &'static str,
        mut f: impl FnMut() -> io::Result<T>,
    ) -> Result<T, SolveError> {
        retry::with_retries(&self.policy, site, || {
            fail::io_check(site)?;
            f()
        })
        .map_err(|e| exhausted(site, &self.path, e))
    }

    /// Account `bytes` of freshly sealed resident segment; returns
    /// `true` when the caller should start paging out cold segments.
    pub(crate) fn add_resident(&self, bytes: usize) -> bool {
        let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        now > self.budget
    }

    /// Resident bytes on the account right now.
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Whether the account is over budget right now.
    pub(crate) fn over_budget(&self) -> bool {
        self.resident.load(Ordering::Relaxed) > self.budget
    }

    /// Writes `bytes` at the end of the spill file as failpoint site
    /// `site`, returning the offset, and moves the accounting from
    /// resident to spilled.
    pub(crate) fn write_out(&self, site: &'static str, bytes: &[u8]) -> Result<u64, SolveError> {
        let offset = self.append_raw(site, bytes)?;
        self.resident.fetch_sub(bytes.len(), Ordering::Relaxed);
        self.spilled
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        ctsim_obs::counter_add("spill.paged_out_bytes", bytes.len() as u64);
        Ok(offset)
    }

    /// Appends `bytes` at the end of the spill file and returns the
    /// offset, without touching the resident-bytes account. This is
    /// the primitive for data that was never resident in segment form
    /// — the sorted visited runs of the external-memory exploration.
    ///
    /// Retry-safe: the length only advances after a fully successful
    /// write, so a failed (or torn) attempt is reissued at the same
    /// offset and the file never exposes a half-written record.
    pub(crate) fn append_raw(&self, site: &'static str, bytes: &[u8]) -> Result<u64, SolveError> {
        self.guarded(site, || {
            let mut f = self.file.lock().expect("spill file poisoned");
            let offset = f.len;
            write_all_at(&f.file, bytes, offset)?;
            f.len += bytes.len() as u64;
            Ok(offset)
        })
    }

    /// Reads `out.len()` bytes back from `offset` as failpoint site
    /// `site`.
    pub(crate) fn read_back(
        &self,
        site: &'static str,
        offset: u64,
        out: &mut [u8],
    ) -> Result<(), SolveError> {
        self.guarded(site, || {
            let f = self.file.lock().expect("spill file poisoned");
            read_exact_at(&f.file, out, offset)
        })
    }

    /// Total bytes ever paged out (test-only diagnostics).
    #[cfg(test)]
    pub(crate) fn spilled_bytes(&self) -> u64 {
        self.spilled.load(Ordering::Relaxed)
    }
}

/// Builds the [`SolveError::SpillFailed`] diagnostic from an exhausted
/// retry, preserving the per-attempt trace.
fn exhausted(op: &'static str, path: &Path, e: retry::RetryExhausted) -> SolveError {
    SolveError::SpillFailed {
        op,
        path: path.display().to_string(),
        message: e.last,
        attempts: e.attempts,
    }
}

#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, offset)
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(buf)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

/// Fixed-size byte encoding for elements that can live in the spill
/// file. Manual field-wise encoding (rather than a byte transmute)
/// keeps padding bytes out of the file and the round trip fully
/// defined.
pub(crate) trait SpillRecord: Copy {
    /// Encoded size in bytes.
    const BYTES: usize;
    /// Writes the record into `out` (exactly [`Self::BYTES`] long).
    fn store(&self, out: &mut [u8]);
    /// Reads a record back from `bytes`.
    fn load(bytes: &[u8]) -> Self;
}

impl SpillRecord for u64 {
    const BYTES: usize = 8;
    fn store(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
    fn load(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes.try_into().expect("8-byte record"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip() {
        let s = SpillShared::new(&SpillOptions::with_budget(0)).unwrap();
        let a = s.write_out("test.write", &[1, 2, 3, 4]).unwrap();
        let b = s.write_out("test.write", &[9, 8, 7]).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 4);
        let mut buf = [0u8; 3];
        s.read_back("test.read", b, &mut buf).unwrap();
        assert_eq!(buf, [9, 8, 7]);
        let mut buf = [0u8; 4];
        s.read_back("test.read", a, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(s.spilled_bytes(), 7);
    }

    #[test]
    fn budget_accounting_flags_overflow() {
        let s = SpillShared::new(&SpillOptions::with_budget(10)).unwrap();
        assert!(!s.add_resident(8));
        assert!(s.add_resident(8)); // 16 > 10
        assert!(s.over_budget());
        let _ = s.write_out("test.write", &[0u8; 8]).unwrap();
        assert!(!s.over_budget()); // 8 resident again
    }

    #[test]
    fn injected_faults_retry_then_exhaust_with_attempt_trace() {
        let _guard = fail::test_lock();
        ctsim_resilience::retry::reset_budgets();
        let s = SpillShared::new(&SpillOptions::with_budget(0)).unwrap();
        let off = s.write_out("test.write", &[42u8; 16]).unwrap();

        // Two injected failures, then the real read goes through: the
        // retry policy (4 attempts) absorbs them and the caller sees
        // the same bytes as a fault-free run.
        fail::configure("test.read=first:2").unwrap();
        let mut buf = [0u8; 16];
        s.read_back("test.read", off, &mut buf).unwrap();
        assert_eq!(buf, [42u8; 16]);

        // An always-failing site exhausts the policy into the typed
        // error: op, path, and every attempt survive into the render.
        fail::configure("test.read=always").unwrap();
        let err = s.read_back("test.read", off, &mut buf).unwrap_err();
        fail::disarm();
        let SolveError::SpillFailed {
            op,
            path,
            message,
            attempts,
        } = &err
        else {
            panic!("expected SpillFailed, got {err:?}");
        };
        assert_eq!(*op, "test.read");
        assert!(path.contains("ctsim-spill-"), "{path}");
        assert!(message.contains("injected fault"), "{message}");
        assert_eq!(attempts.len(), 4, "{attempts:?}");
        let rendered = err.to_string();
        assert!(rendered.contains("test.read"), "{rendered}");
        assert!(rendered.contains("attempt 1/4"), "{rendered}");
        assert!(rendered.contains("backoff"), "{rendered}");
    }
}
