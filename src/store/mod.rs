//! `fetchmech::store` — a crash-safe, append-only on-disk result store.
//!
//! The serve engine memoizes simulation results only in RAM (the `Lab`
//! caches), so every restart re-pays every simulation. This module gives
//! results a durable home:
//!
//! * **Format** — length-prefixed, checksummed records keyed by the
//!   canonical [`SimKey`] string (see the private `log` submodule's docs
//!   for the exact byte layout, summarized in `DESIGN.md` §11).
//! * **Recovery** — opening the store scans the log and *truncates the torn
//!   tail*: a `SIGKILL` mid-record costs exactly the un-synced suffix,
//!   never an older record.
//! * **Concurrency** — single writer (a dedicated persistence thread fed by
//!   a bounded channel: write-behind, off the request path), multi-reader
//!   (an in-memory key → offset index over a shared read handle).
//! * **Fault discipline** — every write and fsync goes through an
//!   [`IoFault`] hook ([`FaultPlan`] is the seeded deterministic schedule),
//!   and a failed append restores the log to its last committed offset
//!   before reporting the fault. Three consecutive failed appends flip the
//!   store into **degraded mode**: persistence stops, lookups keep serving
//!   everything already durable, and `/healthz` + `/metrics` surface the
//!   state — the service never dies with the disk.
//!
//! [`SimKey`]: crate::serve::engine::SimKey

pub(crate) mod fault;
mod log;

pub use fault::{FaultAction, FaultPlan, IoFault, NoFault, FAULTS_ENV, FAULT_SEED_ENV};

use std::collections::HashMap;
use std::fs::File;
use std::io::{Error, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

use fetchmech::json::Value;

/// Consecutive failed appends before the store gives up and degrades.
const DEGRADE_AFTER: u32 = 3;

/// Retry budget for one record append (covers injected `Interrupted` /
/// `WouldBlock` storms and short-write stutter).
const MAX_WRITE_ATTEMPTS: u32 = 16;

/// Retry budget for one fsync.
const MAX_SYNC_ATTEMPTS: u32 = 4;

/// Live counters for the store, rendered under `"store"` in `/metrics`.
/// Monotonic except `degraded`, which latches once.
#[derive(Debug, Default)]
pub(crate) struct StoreStats {
    /// Records durably appended (written + fsynced + indexed).
    pub persisted: AtomicU64,
    /// Persist requests dropped (queue full, degraded mode, or a failed
    /// append that exhausted its retries).
    pub dropped: AtomicU64,
    /// Lookups served from the log.
    pub hits: AtomicU64,
    /// Lookups that missed the index.
    pub misses: AtomicU64,
    /// Write faults observed (injected or real), including retried ones.
    pub write_faults: AtomicU64,
    /// Fsync faults observed (injected or real), including retried ones.
    pub sync_faults: AtomicU64,
    /// Whole records recovered by the opening scan.
    pub records_recovered: AtomicU64,
    /// Torn-tail bytes truncated by the opening scan.
    pub bytes_truncated: AtomicU64,
    /// Latched once persistence has failed hard; lookups continue.
    pub degraded: AtomicBool,
}

impl StoreStats {
    fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// What [`Store::open`] recovered from an existing log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecoveryReport {
    /// Whole records accepted by the scan (including superseded duplicates).
    pub records: u64,
    /// Distinct keys now in the index.
    pub keys: u64,
    /// Torn-tail bytes discarded.
    pub truncated_bytes: u64,
}

enum PersistMsg {
    Record { key: String, body: Arc<String> },
}

/// The crash-safe result store: an append-only log plus an in-memory index.
#[derive(Debug)]
pub struct Store {
    reader: Mutex<File>,
    index: Arc<RwLock<HashMap<String, (u64, u32)>>>,
    stats: Arc<StoreStats>,
    recovery: RecoveryReport,
    tx: Mutex<Option<SyncSender<PersistMsg>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl Store {
    /// Opens (creating if absent) the log at `path`, scans it to rebuild the
    /// index, truncates any torn tail, and starts the write-behind
    /// persistence thread. `queue` bounds the persistence backlog —
    /// overflow drops (and counts) requests rather than blocking the
    /// engine. All subsequent writes and fsyncs consult `fault`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening, scanning, or truncating the log.
    pub fn open(
        path: impl Into<PathBuf>,
        fault: Arc<dyn IoFault>,
        queue: usize,
    ) -> std::io::Result<Store> {
        let path = path.into();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let total_len = file.metadata()?.len();
        let scan = log::scan(&mut file)?;
        if scan.valid_len < total_len {
            // The torn tail from a mid-record kill: discard it so the next
            // append starts on a record boundary.
            file.set_len(scan.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(scan.valid_len))?;

        let stats = Arc::new(StoreStats::default());
        stats
            .records_recovered
            .store(scan.records, Ordering::Relaxed);
        stats
            .bytes_truncated
            .store(total_len.saturating_sub(scan.valid_len), Ordering::Relaxed);
        let recovery = RecoveryReport {
            records: scan.records,
            keys: scan.index.len() as u64,
            truncated_bytes: total_len.saturating_sub(scan.valid_len),
        };

        let index = Arc::new(RwLock::new(scan.index));
        let reader = File::open(&path)?;
        let (tx, rx) = sync_channel(queue.max(1));
        let writer = {
            let index = Arc::clone(&index);
            let stats = Arc::clone(&stats);
            let committed = scan.valid_len;
            std::thread::Builder::new()
                .name("fetchmech-store".to_string())
                .spawn(move || writer_loop(file, committed, &rx, &index, &stats, &*fault))
                .map_err(|e| Error::other(format!("spawn store writer: {e}")))?
        };

        Ok(Store {
            reader: Mutex::new(reader),
            index,
            stats,
            recovery,
            tx: Mutex::new(Some(tx)),
            writer: Mutex::new(Some(writer)),
        })
    }

    /// What the opening scan recovered.
    #[must_use]
    pub(crate) fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Whether persistence has failed hard (lookups still work).
    #[must_use]
    pub(crate) fn is_degraded(&self) -> bool {
        self.stats.degraded.load(Ordering::Relaxed)
    }

    /// Distinct keys currently durable.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.index.read().expect("store index poisoned").len()
    }

    /// Looks `key` up in the index and reads its body back from the log.
    /// Returns `None` (counting a miss) when the key is unknown — or, defensively,
    /// when the read-back fails, so a surprise I/O error degrades to a cache
    /// miss instead of a 500.
    #[must_use]
    pub fn lookup(&self, key: &str) -> Option<String> {
        let span = {
            let index = self.index.read().expect("store index poisoned");
            index.get(key).copied()
        };
        let Some((offset, len)) = span else {
            self.stats.bump(&self.stats.misses);
            return None;
        };
        match self.read_body(offset, len) {
            Some(body) => {
                self.stats.bump(&self.stats.hits);
                Some(body)
            }
            None => {
                self.stats.bump(&self.stats.misses);
                None
            }
        }
    }

    fn read_body(&self, offset: u64, len: u32) -> Option<String> {
        let mut buf = vec![0u8; len as usize];
        {
            let mut reader = self.reader.lock().expect("store reader poisoned");
            reader.seek(SeekFrom::Start(offset)).ok()?;
            reader.read_exact(&mut buf).ok()?;
        }
        String::from_utf8(buf).ok()
    }

    /// Queues `(key, body)` for write-behind persistence. Never blocks:
    /// when the backlog is full or the store is degraded the request is
    /// dropped and counted — the result stays available from the engine's
    /// in-memory path.
    pub fn persist(&self, key: String, body: &Arc<String>) {
        if self.is_degraded() {
            self.stats.bump(&self.stats.dropped);
            return;
        }
        let tx = self.tx.lock().expect("store tx poisoned");
        let Some(tx) = tx.as_ref() else {
            self.stats.bump(&self.stats.dropped);
            return;
        };
        match tx.try_send(PersistMsg::Record {
            key,
            body: Arc::clone(body),
        }) {
            Ok(()) => {}
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.stats.bump(&self.stats.dropped);
            }
        }
    }

    /// Flushes the persistence backlog and joins the writer thread. After
    /// this, every non-dropped `persist` call is durable (or the store is
    /// degraded). Idempotent.
    pub fn shutdown(&self) {
        let tx = self.tx.lock().expect("store tx poisoned").take();
        drop(tx); // writer drains the channel, then exits
        let writer = self.writer.lock().expect("store writer poisoned").take();
        if let Some(handle) = writer {
            let _ = handle.join();
        }
    }

    /// Renders the `"store"` section of `/metrics`.
    #[must_use]
    pub(crate) fn to_json(&self) -> Value {
        let load = |c: &AtomicU64| Value::Uint(c.load(Ordering::Relaxed));
        Value::object([
            (
                "state",
                Value::Str(
                    if self.is_degraded() {
                        "degraded"
                    } else {
                        "active"
                    }
                    .to_string(),
                ),
            ),
            ("keys", Value::Uint(self.len() as u64)),
            ("persisted", load(&self.stats.persisted)),
            ("dropped", load(&self.stats.dropped)),
            ("hits", load(&self.stats.hits)),
            ("misses", load(&self.stats.misses)),
            ("write_faults", load(&self.stats.write_faults)),
            ("sync_faults", load(&self.stats.sync_faults)),
            ("records_recovered", load(&self.stats.records_recovered)),
            ("bytes_truncated", load(&self.stats.bytes_truncated)),
        ])
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Why one append didn't commit.
enum AppendError {
    /// The log was restored to its committed length; later appends may
    /// succeed (transient fault or exhausted retry budget).
    Recovered(Error),
    /// The log could not be restored — its tail state is unknown, so the
    /// store must degrade immediately.
    Unrecoverable(Error),
}

fn writer_loop(
    mut file: File,
    mut committed: u64,
    rx: &Receiver<PersistMsg>,
    index: &RwLock<HashMap<String, (u64, u32)>>,
    stats: &StoreStats,
    fault: &dyn IoFault,
) {
    let mut consecutive = 0u32;
    while let Ok(PersistMsg::Record { key, body }) = rx.recv() {
        if stats.degraded.load(Ordering::Relaxed) {
            stats.bump(&stats.dropped);
            continue;
        }
        match append_record(&mut file, committed, &key, &body, stats, fault) {
            Ok(new_committed) => {
                let body_len = u32::try_from(body.len()).expect("body fits u32");
                let body_off = new_committed - u64::from(body_len);
                index
                    .write()
                    .expect("store index poisoned")
                    .insert(key, (body_off, body_len));
                committed = new_committed;
                stats.bump(&stats.persisted);
                consecutive = 0;
            }
            Err(AppendError::Recovered(e)) => {
                stats.bump(&stats.dropped);
                consecutive += 1;
                eprintln!(
                    "fetchmech-store: append failed ({e}); log restored to {committed} bytes \
                     ({consecutive}/{DEGRADE_AFTER} consecutive failures)"
                );
                if consecutive >= DEGRADE_AFTER {
                    degrade(stats, "repeated append failures");
                }
            }
            Err(AppendError::Unrecoverable(e)) => {
                stats.bump(&stats.dropped);
                eprintln!("fetchmech-store: cannot restore log tail ({e})");
                degrade(stats, "log tail unrecoverable");
            }
        }
    }
}

fn degrade(stats: &StoreStats, why: &str) {
    if !stats.degraded.swap(true, Ordering::Relaxed) {
        eprintln!(
            "fetchmech-store: entering degraded in-memory mode ({why}); \
             existing records stay readable, new results are not persisted"
        );
    }
}

/// Appends one record, honoring the fault schedule; on success returns the
/// new committed length. On any failure the log is truncated back to
/// `committed` so it never ends mid-record.
fn append_record(
    file: &mut File,
    committed: u64,
    key: &str,
    body: &str,
    stats: &StoreStats,
    fault: &dyn IoFault,
) -> Result<u64, AppendError> {
    let record = log::encode_record(key, body);
    let tag = key.as_bytes();

    let write_result = write_with_faults(file, &record, tag, stats, fault);
    let result = write_result.and_then(|()| sync_with_faults(file, tag, stats, fault));
    match result {
        Ok(()) => Ok(committed + record.len() as u64),
        Err(e) => {
            // Restore the committed prefix: drop the partial/unsynced record.
            match file
                .set_len(committed)
                .and_then(|()| file.seek(SeekFrom::Start(committed)).map(|_| ()))
                .and_then(|()| file.sync_data())
            {
                Ok(()) => Err(AppendError::Recovered(e)),
                Err(trunc) => Err(AppendError::Unrecoverable(trunc)),
            }
        }
    }
}

fn write_with_faults(
    file: &mut File,
    record: &[u8],
    tag: &[u8],
    stats: &StoreStats,
    fault: &dyn IoFault,
) -> Result<(), Error> {
    let mut written = 0usize;
    for attempt in 0..MAX_WRITE_ATTEMPTS {
        if written == record.len() {
            return Ok(());
        }
        let remaining = &record[written..];
        let take = match fault.on_write(tag, attempt, remaining.len()) {
            FaultAction::Proceed => remaining.len(),
            FaultAction::ShortWrite(n) => {
                stats.bump(&stats.write_faults);
                n.clamp(1, remaining.len())
            }
            FaultAction::Fail(kind) => {
                stats.bump(&stats.write_faults);
                if matches!(kind, ErrorKind::Interrupted | ErrorKind::WouldBlock) {
                    continue; // transient: retry the same bytes
                }
                return Err(Error::new(kind, "injected write fault"));
            }
        };
        match file.write(&remaining[..take]) {
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {
                stats.bump(&stats.write_faults);
            }
            Err(e) => {
                stats.bump(&stats.write_faults);
                return Err(e);
            }
        }
    }
    if written == record.len() {
        Ok(())
    } else {
        Err(Error::new(
            ErrorKind::TimedOut,
            format!("write retry budget exhausted after {MAX_WRITE_ATTEMPTS} attempts"),
        ))
    }
}

fn sync_with_faults(
    file: &File,
    tag: &[u8],
    stats: &StoreStats,
    fault: &dyn IoFault,
) -> Result<(), Error> {
    for attempt in 0..MAX_SYNC_ATTEMPTS {
        match fault.on_sync(tag, attempt) {
            FaultAction::Proceed | FaultAction::ShortWrite(_) => {}
            FaultAction::Fail(kind) => {
                stats.bump(&stats.sync_faults);
                if kind == ErrorKind::Interrupted {
                    continue;
                }
                // A failed fsync means the kernel may have dropped the
                // pages: the record cannot be trusted durable.
                return Err(Error::new(kind, "injected fsync fault"));
            }
        }
        return match file.sync_data() {
            Ok(()) => Ok(()),
            Err(e) => {
                stats.bump(&stats.sync_faults);
                Err(e)
            }
        };
    }
    Err(Error::new(
        ErrorKind::TimedOut,
        format!("fsync retry budget exhausted after {MAX_SYNC_ATTEMPTS} attempts"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "fetchmech-storetest-{}-{name}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn persist_and_wait(store: &Store, key: &str, body: &str, expect_durable: bool) {
        let before = store.stats.persisted.load(Ordering::Relaxed)
            + store.stats.dropped.load(Ordering::Relaxed);
        store.persist(key.to_string(), &Arc::new(body.to_string()));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let persisted = store.stats.persisted.load(Ordering::Relaxed);
            let dropped = store.stats.dropped.load(Ordering::Relaxed);
            if persisted + dropped > before {
                if expect_durable {
                    assert!(
                        store.lookup(key).is_some(),
                        "expected {key} durable (persisted={persisted}, dropped={dropped})"
                    );
                }
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "persist of {key} never settled"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    #[test]
    fn persists_and_survives_reopen() {
        let path = temp_store("reopen");
        {
            let store = Store::open(&path, Arc::new(NoFault), 64).expect("open");
            for i in 0..10 {
                persist_and_wait(&store, &format!("key-{i}"), &format!("body-{i}"), true);
            }
            store.shutdown();
        }
        let store = Store::open(&path, Arc::new(NoFault), 64).expect("reopen");
        let report = store.recovery();
        assert_eq!(report.records, 10);
        assert_eq!(report.keys, 10);
        assert_eq!(report.truncated_bytes, 0);
        for i in 0..10 {
            assert_eq!(
                store.lookup(&format!("key-{i}")).as_deref(),
                Some(format!("body-{i}").as_str())
            );
        }
        assert_eq!(store.stats.hits.load(Ordering::Relaxed), 10);
        assert!(store.lookup("absent").is_none());
        assert_eq!(store.stats.misses.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_truncates_a_torn_tail_and_keeps_serving() {
        let path = temp_store("torn");
        {
            let store = Store::open(&path, Arc::new(NoFault), 64).expect("open");
            persist_and_wait(&store, "good", "durable-body", true);
            store.shutdown();
        }
        // Simulate a kill mid-append: a partial record at the tail.
        let torn = log::encode_record("torn-key", "torn-body");
        {
            use std::io::Write as _;
            let mut f = File::options().append(true).open(&path).expect("append");
            f.write_all(&torn[..torn.len() - 5]).expect("tear");
        }
        let store = Store::open(&path, Arc::new(NoFault), 64).expect("reopen");
        assert_eq!(store.recovery().records, 1);
        assert_eq!(store.recovery().truncated_bytes, (torn.len() - 5) as u64);
        assert_eq!(store.lookup("good").as_deref(), Some("durable-body"));
        assert!(store.lookup("torn-key").is_none());
        // The truncated log accepts fresh appends cleanly.
        persist_and_wait(&store, "after", "post-recovery", true);
        store.shutdown();
        let store = Store::open(&path, Arc::new(NoFault), 64).expect("re-reopen");
        assert_eq!(store.recovery().records, 2);
        assert_eq!(store.lookup("after").as_deref(), Some("post-recovery"));
        let _ = std::fs::remove_file(&path);
    }

    /// Always hard-fails writes: the store must degrade after the budget,
    /// not panic or corrupt the log.
    #[derive(Debug)]
    struct AlwaysFailWrites;
    impl IoFault for AlwaysFailWrites {
        fn on_write(&self, _t: &[u8], _a: u32, _r: usize) -> FaultAction {
            FaultAction::Fail(ErrorKind::Other)
        }
        fn on_sync(&self, _t: &[u8], _a: u32) -> FaultAction {
            FaultAction::Proceed
        }
    }

    #[test]
    fn hard_write_faults_degrade_but_keep_lookups() {
        let path = temp_store("degrade");
        {
            let store = Store::open(&path, Arc::new(NoFault), 64).expect("open");
            persist_and_wait(&store, "old", "pre-fault", true);
            store.shutdown();
        }
        let store = Store::open(&path, Arc::new(AlwaysFailWrites), 64).expect("reopen");
        for i in 0..DEGRADE_AFTER {
            persist_and_wait(&store, &format!("doomed-{i}"), "x", false);
        }
        // Degradation is latched after DEGRADE_AFTER consecutive failures.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !store.is_degraded() {
            assert!(std::time::Instant::now() < deadline, "never degraded");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(store.lookup("old").as_deref(), Some("pre-fault"));
        assert!(store.lookup("doomed-0").is_none());
        assert!(store.stats.write_faults.load(Ordering::Relaxed) >= u64::from(DEGRADE_AFTER));
        // Further persists are dropped without touching the writer.
        store.persist("late".to_string(), &Arc::new("x".to_string()));
        assert!(store.lookup("late").is_none());
        store.shutdown();
        // The log is still clean: reopen recovers the pre-fault record only.
        let store = Store::open(&path, Arc::new(NoFault), 64).expect("re-reopen");
        assert_eq!(store.recovery().records, 1);
        assert_eq!(store.recovery().truncated_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn seeded_chaos_writes_leave_a_consistent_log() {
        // Transient-heavy schedule: interrupted writes, short writes, and
        // fsync stutter — everything should still commit (the retry budget
        // absorbs transients) or drop cleanly, and the log must reopen with
        // zero truncation.
        let plan = FaultPlan {
            seed: 0xC0FFEE,
            write_err: 0.30,
            short_write: 0.40,
            sync_fail: 0.20,
            ..FaultPlan::default()
        };
        let path = temp_store("chaos");
        let mut durable = Vec::new();
        {
            let store = Store::open(&path, Arc::new(plan), 64).expect("open");
            for i in 0..40 {
                let key = format!("chaos-{i}");
                persist_and_wait(&store, &key, &format!("body-{i}"), false);
                if store.lookup(&key).is_some() {
                    durable.push(i);
                }
            }
            store.shutdown();
        }
        let store = Store::open(&path, Arc::new(NoFault), 64).expect("reopen");
        assert_eq!(
            store.recovery().truncated_bytes,
            0,
            "a failed append must never leave a torn tail"
        );
        for i in &durable {
            assert_eq!(
                store.lookup(&format!("chaos-{i}")).as_deref(),
                Some(format!("body-{i}").as_str()),
                "durable key chaos-{i} lost on reopen"
            );
        }
        assert!(
            !durable.is_empty(),
            "transient faults should not kill every append"
        );
        let _ = std::fs::remove_file(&path);
    }
}
