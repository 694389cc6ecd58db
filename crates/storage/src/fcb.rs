//! FCB — the I/O stack virtualization layer (paper §3.6).
//!
//! SQL Server abstracts every storage device behind a "File Control Block";
//! Socrates hides its entire storage hierarchy behind new FCB instances so
//! the engine above never learns it is running on a distributed system. We
//! reproduce that with the [`Fcb`] trait: a byte-addressed, thread-safe
//! block device. Engine, landing zone, RBPEX, and XLOG caches all speak
//! `Fcb`, and deployments choose implementations — plain memory, a real
//! file, or wrappers that inject device latency, CPU cost, and failures.

use crate::page::{Page, PAGE_SIZE};
use parking_lot::RwLock;
use socrates_common::latency::LatencyInjector;
use socrates_common::metrics::CpuAccountant;
use socrates_common::{Error, PageId, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A byte-addressed, thread-safe block device.
///
/// Writes beyond the current length extend the device (sparse regions read
/// as zeroes once written past); reads entirely beyond the end fail with
/// [`Error::Io`].
pub trait Fcb: Send + Sync {
    /// Read exactly `buf.len()` bytes at `offset`.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;
    /// Write `data` at `offset`, extending the device if needed.
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()>;
    /// Issue a write of `data` at `offset` without waiting for it: the
    /// bytes are on the device when this returns, and durable at the
    /// returned instant. A caller with several writes issues them all and
    /// waits once, for the deadline it needs.
    fn write_deadline(&self, offset: u64, data: &[u8]) -> Result<Instant> {
        self.write_at(offset, data)?;
        Ok(Instant::now())
    }
    /// Issue a read of `buf.len()` bytes at `offset` without waiting for
    /// it: `buf` is filled when this returns, and the modelled read
    /// completes at the returned instant. A caller with several reads
    /// issues them all and waits once, for the last deadline.
    fn read_deadline(&self, offset: u64, buf: &mut [u8]) -> Result<Instant> {
        self.read_at(offset, buf)?;
        Ok(Instant::now())
    }
    /// Current device length in bytes.
    fn len(&self) -> Result<u64>;
    /// Whether the device is empty.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
    /// Durably persist all previous writes.
    fn flush(&self) -> Result<()>;
    /// Diagnostic name.
    fn name(&self) -> &str;
}

/// An in-memory device. The default backing for simulated tiers.
pub struct MemFcb {
    name: String,
    data: RwLock<Vec<u8>>,
}

impl MemFcb {
    /// New empty in-memory device.
    pub fn new(name: impl Into<String>) -> MemFcb {
        MemFcb { name: name.into(), data: RwLock::new(Vec::new()) }
    }

    /// New device pre-sized to `len` zero bytes.
    pub fn with_len(name: impl Into<String>, len: u64) -> MemFcb {
        MemFcb { name: name.into(), data: RwLock::new(vec![0u8; len as usize]) }
    }
}

impl Fcb for MemFcb {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let data = self.data.read();
        let end = offset as usize + buf.len();
        if end > data.len() {
            return Err(Error::Io(format!(
                "{}: read [{offset}, {end}) beyond len {}",
                self.name,
                data.len()
            )));
        }
        buf.copy_from_slice(&data[offset as usize..end]);
        Ok(())
    }

    fn write_at(&self, offset: u64, src: &[u8]) -> Result<()> {
        let mut data = self.data.write();
        let end = offset as usize + src.len();
        if end > data.len() {
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(src);
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.data.read().len() as u64)
    }

    fn flush(&self) -> Result<()> {
        Ok(())
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A device backed by a real file (pread/pwrite).
pub struct FileFcb {
    name: String,
    file: std::fs::File,
}

impl FileFcb {
    /// Open (creating if missing) a file-backed device at `path`.
    pub fn open(path: &std::path::Path) -> Result<FileFcb> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(FileFcb { name: path.display().to_string(), file })
    }
}

impl Fcb for FileFcb {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file
            .read_exact_at(buf, offset)
            .map_err(|e| Error::Io(format!("{}: read at {offset}: {e}", self.name)))
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file
            .write_all_at(data, offset)
            .map_err(|e| Error::Io(format!("{}: write at {offset}: {e}", self.name)))
    }

    fn len(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn flush(&self) -> Result<()> {
        self.file.sync_data().map_err(|e| Error::Io(format!("{}: fsync: {e}", self.name)))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Wraps a device with a latency model and CPU cost accounting, turning a
/// `MemFcb` into a simulated XIO volume, local SSD, etc.
pub struct LatencyFcb<F: Fcb> {
    inner: F,
    injector: LatencyInjector,
    cpu: Option<Arc<CpuAccountant>>,
}

impl<F: Fcb> LatencyFcb<F> {
    /// Wrap `inner` with `injector`; I/O CPU cost is charged to `cpu` when
    /// provided (the *issuing* node's accountant).
    pub fn new(inner: F, injector: LatencyInjector, cpu: Option<Arc<CpuAccountant>>) -> Self {
        LatencyFcb { inner, injector, cpu }
    }

    fn charge(&self, bytes: usize) {
        if let Some(cpu) = &self.cpu {
            cpu.charge_us(self.injector.cpu_cost_us(bytes));
        }
    }
}

impl<F: Fcb> Fcb for LatencyFcb<F> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.injector.read_delay();
        self.charge(buf.len());
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.injector.write_delay();
        self.charge(data.len());
        self.inner.write_at(offset, data)
    }

    fn write_deadline(&self, offset: u64, data: &[u8]) -> Result<Instant> {
        let issued = Instant::now();
        let service = self.injector.write_sample();
        self.charge(data.len());
        Ok(self.inner.write_deadline(offset, data)?.max(issued + service))
    }

    fn read_deadline(&self, offset: u64, buf: &mut [u8]) -> Result<Instant> {
        let issued = Instant::now();
        let service = self.injector.read_sample();
        self.charge(buf.len());
        Ok(self.inner.read_deadline(offset, buf)?.max(issued + service))
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Failure-injecting wrapper for tests and availability experiments.
pub struct FaultFcb<F: Fcb> {
    inner: F,
    unavailable: AtomicBool,
    fail_next_writes: AtomicU64,
    fail_next_reads: AtomicU64,
}

impl<F: Fcb> FaultFcb<F> {
    /// Wrap `inner` with no faults armed.
    pub fn new(inner: F) -> Self {
        FaultFcb {
            inner,
            unavailable: AtomicBool::new(false),
            fail_next_writes: AtomicU64::new(0),
            fail_next_reads: AtomicU64::new(0),
        }
    }

    /// Make every operation fail with [`Error::Unavailable`] until restored.
    pub fn set_unavailable(&self, v: bool) {
        // ordering: seqcst — fault controls are a test control plane: arming must
        // be totally ordered with the I/O checks on every worker thread, or an
        // injection can be missed and a chaos test turns nondeterministic
        self.unavailable.store(v, Ordering::SeqCst);
    }

    /// Fail the next `n` writes with [`Error::Io`].
    pub fn fail_next_writes(&self, n: u64) {
        // ordering: seqcst — see set_unavailable: total order with worker checks
        self.fail_next_writes.store(n, Ordering::SeqCst);
    }

    /// Fail the next `n` reads with [`Error::Io`].
    pub fn fail_next_reads(&self, n: u64) {
        // ordering: seqcst — see set_unavailable: total order with worker checks
        self.fail_next_reads.store(n, Ordering::SeqCst);
    }

    fn check(&self, armed: &AtomicU64, what: &str) -> Result<()> {
        // ordering: seqcst — pairs with the seqcst arming stores above
        if self.unavailable.load(Ordering::SeqCst) {
            return Err(Error::Unavailable(format!("{}: device offline", self.inner.name())));
        }
        // Decrement-if-positive without underflow.
        let mut cur = armed.load(Ordering::SeqCst); // ordering: seqcst — same total order as the arming store
        while cur > 0 {
            // ordering: seqcst — each armed failure fires exactly once, in the
            // control plane's total order
            match armed.compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => {
                    return Err(Error::Io(format!(
                        "{}: injected {what} failure",
                        self.inner.name()
                    )))
                }
                Err(actual) => cur = actual,
            }
        }
        Ok(())
    }
}

impl<F: Fcb> Fcb for FaultFcb<F> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check(&self.fail_next_reads, "read")?;
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.check(&self.fail_next_writes, "write")?;
        self.inner.write_at(offset, data)
    }

    fn write_deadline(&self, offset: u64, data: &[u8]) -> Result<Instant> {
        self.check(&self.fail_next_writes, "write")?;
        self.inner.write_deadline(offset, data)
    }

    fn read_deadline(&self, offset: u64, buf: &mut [u8]) -> Result<Instant> {
        self.check(&self.fail_next_reads, "read")?;
        self.inner.read_deadline(offset, buf)
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn flush(&self) -> Result<()> {
        // ordering: seqcst — pairs with the seqcst arming stores above
        if self.unavailable.load(Ordering::SeqCst) {
            return Err(Error::Unavailable(format!("{}: device offline", self.inner.name())));
        }
        self.inner.flush()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Counting wrapper: tallies the calls each device operation receives,
/// so a test can check the shape of the I/O a path issues — how many
/// reads, and whether it waits on each.
pub struct CountingFcb<F: Fcb> {
    inner: F,
    reads: AtomicU64,
    deadline_reads: AtomicU64,
    writes: AtomicU64,
}

impl<F: Fcb> CountingFcb<F> {
    /// Wrap `inner` with every count at zero.
    pub fn new(inner: F) -> Self {
        let zero = AtomicU64::new;
        CountingFcb { inner, reads: zero(0), deadline_reads: zero(0), writes: zero(0) }
    }

    /// `read_at` calls so far: reads the caller waited out one by one.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed) // ordering: relaxed — a tally
    }

    /// `read_deadline` calls so far.
    pub fn deadline_reads(&self) -> u64 {
        self.deadline_reads.load(Ordering::Relaxed) // ordering: relaxed — a tally
    }

    /// `write_at` and `write_deadline` calls so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed) // ordering: relaxed — a tally
    }
}

impl<F: Fcb> Fcb for CountingFcb<F> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.reads.fetch_add(1, Ordering::Relaxed); // ordering: relaxed — a tally
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed); // ordering: relaxed — a tally
        self.inner.write_at(offset, data)
    }

    fn write_deadline(&self, offset: u64, data: &[u8]) -> Result<Instant> {
        self.writes.fetch_add(1, Ordering::Relaxed); // ordering: relaxed — a tally
        self.inner.write_deadline(offset, data)
    }

    fn read_deadline(&self, offset: u64, buf: &mut [u8]) -> Result<Instant> {
        self.deadline_reads.fetch_add(1, Ordering::Relaxed); // ordering: relaxed — a tally
        self.inner.read_deadline(offset, buf)
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Page-granular view over any [`Fcb`]: frame `i` occupies bytes
/// `[i*PAGE_SIZE, (i+1)*PAGE_SIZE)`.
#[derive(Clone)]
pub struct PageFile {
    fcb: Arc<dyn Fcb>,
}

impl PageFile {
    /// Wrap a device.
    pub fn new(fcb: Arc<dyn Fcb>) -> PageFile {
        PageFile { fcb }
    }

    /// The underlying device.
    pub fn fcb(&self) -> &Arc<dyn Fcb> {
        &self.fcb
    }

    /// Read and verify the page stored in frame `frame_no`, expecting it to
    /// be `expected_id`.
    pub fn read_page(&self, frame_no: u64, expected_id: PageId) -> Result<Page> {
        let mut buf = vec![0u8; PAGE_SIZE];
        self.fcb.read_at(frame_no * PAGE_SIZE as u64, &mut buf)?;
        Page::from_io_bytes(expected_id, &buf)
    }

    /// [`PageFile::read_page`] issued with [`Fcb::read_deadline`]: the
    /// page is read and verified at once, and the modelled read completes
    /// at the returned instant.
    pub fn read_page_deadline(
        &self,
        frame_no: u64,
        expected_id: PageId,
    ) -> Result<(Page, Instant)> {
        let mut buf = vec![0u8; PAGE_SIZE];
        let done = self.fcb.read_deadline(frame_no * PAGE_SIZE as u64, &mut buf)?;
        Ok((Page::from_io_bytes(expected_id, &buf)?, done))
    }

    /// Issue a read of `count` consecutive frames as one device I/O
    /// (stride-preserving layout: one request at the device even for a
    /// 128-page scan read), returning the pages and the instant the read
    /// completes ([`Fcb::read_deadline`]).
    pub fn read_page_range(
        &self,
        first_frame: u64,
        ids: &[PageId],
    ) -> Result<(Vec<Page>, Instant)> {
        let mut buf = vec![0u8; PAGE_SIZE * ids.len()];
        let done = self.fcb.read_deadline(first_frame * PAGE_SIZE as u64, &mut buf)?;
        let pages = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| Page::from_io_bytes(id, &buf[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]))
            .collect::<Result<_>>()?;
        Ok((pages, done))
    }

    /// Like [`PageFile::read_page_range`], but only the frames flagged
    /// present are parsed; absent or torn frames yield `None`. Still one
    /// device I/O for the whole stride.
    pub fn read_page_range_partial(
        &self,
        first_frame: u64,
        ids: &[(PageId, bool)],
    ) -> Result<(Vec<Option<Page>>, Instant)> {
        let mut buf = vec![0u8; PAGE_SIZE * ids.len()];
        let done = self.fcb.read_deadline(first_frame * PAGE_SIZE as u64, &mut buf)?;
        let pages = ids
            .iter()
            .enumerate()
            .map(|(i, &(id, present))| {
                if !present {
                    return None;
                }
                Page::from_io_bytes(id, &buf[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]).ok()
            })
            .collect();
        Ok((pages, done))
    }

    /// Seal and write `page` into frame `frame_no`.
    pub fn write_page(&self, frame_no: u64, page: &Page) -> Result<()> {
        self.fcb.write_at(frame_no * PAGE_SIZE as u64, &page.to_io_bytes())
    }

    /// Number of whole frames the device currently holds.
    pub fn frame_count(&self) -> Result<u64> {
        Ok(self.fcb.len()? / PAGE_SIZE as u64)
    }

    /// Durably persist all previous writes.
    pub fn flush(&self) -> Result<()> {
        self.fcb.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageType;

    #[test]
    fn mem_fcb_grow_and_roundtrip() {
        let f = MemFcb::new("m");
        f.write_at(100, b"hello").unwrap();
        assert_eq!(f.len().unwrap(), 105);
        let mut buf = [0u8; 5];
        f.read_at(100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        // Gap reads as zeroes.
        let mut gap = [9u8; 4];
        f.read_at(0, &mut gap).unwrap();
        assert_eq!(gap, [0u8; 4]);
        // Read past end fails.
        assert!(f.read_at(104, &mut [0u8; 2]).is_err());
    }

    #[test]
    fn file_fcb_roundtrip() {
        let dir = std::env::temp_dir().join(format!("socrates-fcb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.bin");
        let f = FileFcb::open(&path).unwrap();
        f.write_at(8192, b"persisted").unwrap();
        f.flush().unwrap();
        drop(f);
        let f2 = FileFcb::open(&path).unwrap();
        let mut buf = [0u8; 9];
        f2.read_at(8192, &mut buf).unwrap();
        assert_eq!(&buf, b"persisted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_fcb_injects_and_recovers() {
        let f = FaultFcb::new(MemFcb::new("d"));
        f.write_at(0, b"ok").unwrap();
        f.fail_next_writes(2);
        assert_eq!(f.write_at(0, b"x").unwrap_err().kind(), "io");
        assert_eq!(f.write_at(0, b"x").unwrap_err().kind(), "io");
        f.write_at(0, b"yy").unwrap();
        f.set_unavailable(true);
        assert!(f.read_at(0, &mut [0u8; 1]).unwrap_err().is_transient());
        assert!(f.flush().unwrap_err().is_transient());
        f.set_unavailable(false);
        let mut b = [0u8; 2];
        f.read_at(0, &mut b).unwrap();
        assert_eq!(&b, b"yy");
    }

    #[test]
    fn fault_fcb_read_injection() {
        let f = FaultFcb::new(MemFcb::new("d"));
        f.write_at(0, b"abc").unwrap();
        f.fail_next_reads(1);
        assert!(f.read_at(0, &mut [0u8; 3]).is_err());
        f.read_at(0, &mut [0u8; 3]).unwrap();
    }

    #[test]
    fn fault_fcb_fails_deadline_reads_too() {
        let f = FaultFcb::new(MemFcb::new("d"));
        f.write_at(0, b"abc").unwrap();
        f.fail_next_reads(1);
        assert_eq!(f.read_deadline(0, &mut [0u8; 3]).unwrap_err().kind(), "io");
        f.set_unavailable(true);
        assert!(f.read_deadline(0, &mut [0u8; 3]).unwrap_err().is_transient());
        f.set_unavailable(false);
        let mut b = [0u8; 3];
        f.read_deadline(0, &mut b).unwrap();
        assert_eq!(&b, b"abc");
    }

    #[test]
    fn a_deadline_read_fills_the_buffer_and_leaves_the_wait_to_the_caller() {
        use socrates_common::latency::{DeviceProfile, LatencyModel};
        // Reads take a minute, so the read returns long before its deadline.
        let read = LatencyModel::fixed(60_000_000);
        let profile = DeviceProfile { read, ..DeviceProfile::instant() };
        let counted = CountingFcb::new(MemFcb::new("x"));
        counted.write_at(0, b"hello").unwrap();
        let f = LatencyFcb::new(counted, LatencyInjector::new(profile, 1), None);
        let issued = Instant::now();
        let mut buf = [0u8; 5];
        let done = f.read_deadline(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert!(done >= issued + std::time::Duration::from_secs(60), "the read's deadline");
        assert!(Instant::now() < done, "the read waited out its deadline");
        assert_eq!((f.inner.reads(), f.inner.deadline_reads()), (0, 1));
    }

    #[test]
    fn page_file_roundtrip_and_range() {
        let pf = PageFile::new(Arc::new(MemFcb::new("pages")));
        let ids: Vec<PageId> = (0..4).map(PageId::new).collect();
        for (i, &id) in ids.iter().enumerate() {
            let mut p = Page::new(id, PageType::BTreeLeaf);
            p.body_mut()[0] = i as u8;
            pf.write_page(i as u64, &p).unwrap();
        }
        assert_eq!(pf.frame_count().unwrap(), 4);
        let p2 = pf.read_page(2, ids[2]).unwrap();
        assert_eq!(p2.body()[0], 2);
        let (all, _) = pf.read_page_range(0, &ids).unwrap();
        assert_eq!(all.len(), 4);
        for (i, p) in all.iter().enumerate() {
            assert_eq!(p.body()[0], i as u8);
            assert_eq!(p.page_id(), ids[i]);
        }
    }

    #[test]
    fn page_file_detects_wrong_identity() {
        let pf = PageFile::new(Arc::new(MemFcb::new("pages")));
        let p = Page::new(PageId::new(1), PageType::Meta);
        pf.write_page(0, &p).unwrap();
        assert!(pf.read_page(0, PageId::new(2)).is_err());
    }

    #[test]
    fn latency_fcb_charges_cpu() {
        use socrates_common::latency::{DeviceProfile, LatencyInjector, LatencyModel};
        let cpu = Arc::new(CpuAccountant::new());
        // XIO's CPU cost on a device that never waits.
        let profile = DeviceProfile {
            read: LatencyModel::zero(),
            write: LatencyModel::zero(),
            ..DeviceProfile::xio()
        };
        let inj = LatencyInjector::new(profile, 7);
        let f = LatencyFcb::new(MemFcb::new("x"), inj, Some(Arc::clone(&cpu)));
        f.write_at(0, &[0u8; 4096]).unwrap();
        let expected = DeviceProfile::xio().cpu.cost_us(4096);
        assert_eq!(cpu.busy_us(), expected);
        let mut buf = [0u8; 4096];
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(cpu.busy_us(), 2 * expected);
    }
}
