//! The 8 KiB database page.
//!
//! Socrates keeps SQL Server's page model: every object (B-tree nodes, the
//! version store, catalog metadata) lives in fixed-size pages identified by
//! a [`PageId`], and every page carries the LSN of the last log record that
//! modified it (`PageLSN`). The PageLSN drives log apply idempotence on page
//! servers and secondaries, and the consistency checks behind the
//! GetPage@LSN protocol.

use socrates_common::checksum::crc32_with_seed;
use socrates_common::{Error, Lsn, PageId, Result};
use std::fmt;

/// Size of every database page in bytes (SQL Server's 8 KiB).
pub const PAGE_SIZE: usize = 8192;

/// Byte offset where the page header ends and the body begins.
pub const PAGE_HEADER_SIZE: usize = 32;

const MAGIC: [u8; 4] = *b"SOCP";
const OFF_MAGIC: usize = 0;
const OFF_CRC: usize = 4;
const OFF_PAGE_ID: usize = 8;
const OFF_PAGE_LSN: usize = 16;
const OFF_PAGE_TYPE: usize = 24;
const OFF_FLAGS: usize = 25;

/// What a page stores. Recorded in the header so replay and integrity
/// checks can reject category errors (e.g. applying a B-tree op to a
/// version-store page).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum PageType {
    /// Unformatted / freed page.
    Free = 0,
    /// Database catalog and boot metadata.
    Meta = 1,
    /// Interior node of a B-tree.
    BTreeInternal = 2,
    /// Leaf node of a B-tree.
    BTreeLeaf = 3,
    /// A page of the persistent version store.
    VersionStore = 4,
}

impl PageType {
    /// Decode from the header byte.
    pub fn from_u8(v: u8) -> Result<PageType> {
        Ok(match v {
            0 => PageType::Free,
            1 => PageType::Meta,
            2 => PageType::BTreeInternal,
            3 => PageType::BTreeLeaf,
            4 => PageType::VersionStore,
            other => return Err(Error::Corruption(format!("bad page type byte {other}"))),
        })
    }
}

/// An owned 8 KiB page image.
///
/// The checksum field is only maintained at I/O boundaries: callers mutate
/// the page freely and [`Page::to_io_bytes`] seals it, while
/// [`Page::from_io_bytes`] verifies the seal. The checksum is seeded with
/// the page id so a page written to the wrong slot is detected as corruption
/// rather than served to a compute node.
#[derive(Clone)]
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A freshly formatted page of the given type with a zero PageLSN.
    pub fn new(id: PageId, ptype: PageType) -> Page {
        let mut p = Page { bytes: vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap() };
        p.bytes[OFF_MAGIC..OFF_MAGIC + 4].copy_from_slice(&MAGIC);
        p.set_page_id(id);
        p.set_page_type(ptype);
        p
    }

    /// The page's identity.
    pub fn page_id(&self) -> PageId {
        PageId::new(u64::from_le_bytes(
            self.bytes[OFF_PAGE_ID..OFF_PAGE_ID + 8].try_into().unwrap(),
        ))
    }

    fn set_page_id(&mut self, id: PageId) {
        self.bytes[OFF_PAGE_ID..OFF_PAGE_ID + 8].copy_from_slice(&id.raw().to_le_bytes());
    }

    /// LSN of the last log record applied to this page.
    // soclint-allow: hot-path the unwrap is an infallible fixed-width header
    // slice decode — the range is 8 bytes by construction
    pub fn page_lsn(&self) -> Lsn {
        Lsn::new(u64::from_le_bytes(self.bytes[OFF_PAGE_LSN..OFF_PAGE_LSN + 8].try_into().unwrap()))
    }

    /// Stamp the PageLSN; called by the engine and by log apply.
    pub fn set_page_lsn(&mut self, lsn: Lsn) {
        self.bytes[OFF_PAGE_LSN..OFF_PAGE_LSN + 8].copy_from_slice(&lsn.offset().to_le_bytes());
    }

    /// The page's type tag.
    pub fn page_type(&self) -> Result<PageType> {
        PageType::from_u8(self.bytes[OFF_PAGE_TYPE])
    }

    /// Re-tag the page (formatting, freeing).
    pub fn set_page_type(&mut self, t: PageType) {
        self.bytes[OFF_PAGE_TYPE] = t as u8;
    }

    /// Header flag byte (reserved for engine use).
    pub fn flags(&self) -> u8 {
        self.bytes[OFF_FLAGS]
    }

    /// Set the header flag byte.
    pub fn set_flags(&mut self, f: u8) {
        self.bytes[OFF_FLAGS] = f;
    }

    /// Immutable view of the whole page.
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// Immutable view of the body (after the header).
    pub fn body(&self) -> &[u8] {
        &self.bytes[PAGE_HEADER_SIZE..]
    }

    /// Mutable view of the body (after the header).
    pub fn body_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[PAGE_HEADER_SIZE..]
    }

    /// Raw mutable access to the full page, for slotted-layout code that
    /// addresses the page with absolute offsets.
    pub(crate) fn raw_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.bytes
    }

    /// Raw shared access to the full page.
    pub(crate) fn raw(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// Seal the page for I/O: compute and embed the checksum, returning the
    /// on-disk image.
    pub fn to_io_bytes(&self) -> [u8; PAGE_SIZE] {
        let mut out = *self.bytes;
        out[OFF_CRC..OFF_CRC + 4].copy_from_slice(&self.seal_crc());
        out
    }

    /// [`Page::to_io_bytes`] sealed straight into a heap buffer, for a
    /// reply that owns its bytes.
    pub fn to_io_vec(&self) -> Vec<u8> {
        let mut out = self.bytes.to_vec();
        out[OFF_CRC..OFF_CRC + 4].copy_from_slice(&self.seal_crc());
        out
    }

    /// The checksum field of the sealed image: everything from the page id
    /// on, seeded with the page id.
    fn seal_crc(&self) -> [u8; 4] {
        crc32_with_seed(self.page_id().raw() as u32, &self.bytes[OFF_PAGE_ID..]).to_le_bytes()
    }

    /// Validate and adopt an on-disk image.
    ///
    /// Checks length, magic, checksum (seeded with `expected_id`), the page
    /// type byte, and that the stored page id matches `expected_id`.
    pub fn from_io_bytes(expected_id: PageId, data: &[u8]) -> Result<Page> {
        let image: &[u8; PAGE_SIZE] = data.try_into().map_err(|_| {
            Error::Corruption(format!("page image wrong size: {} != {PAGE_SIZE}", data.len()))
        })?;
        if image[OFF_MAGIC..OFF_MAGIC + 4] != MAGIC {
            return Err(Error::Corruption(format!("bad page magic for {expected_id}")));
        }
        let stored_crc = u32::from_le_bytes([
            image[OFF_CRC],
            image[OFF_CRC + 1],
            image[OFF_CRC + 2],
            image[OFF_CRC + 3],
        ]);
        let crc = crc32_with_seed(expected_id.raw() as u32, &image[OFF_PAGE_ID..]);
        if stored_crc != crc {
            return Err(Error::Corruption(format!(
                "checksum mismatch for {expected_id}: stored {stored_crc:#x} computed {crc:#x}"
            )));
        }
        let page = Page { bytes: Box::new(*image) };
        if page.page_id() != expected_id {
            return Err(Error::Corruption(format!(
                "page identity mismatch: header says {}, expected {expected_id}",
                page.page_id()
            )));
        }
        page.page_type()?; // validate the tag byte
        Ok(page)
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Page")
            .field("id", &self.page_id())
            .field("lsn", &self.page_lsn())
            .field("type", &self.bytes[OFF_PAGE_TYPE])
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_page_has_identity_and_zero_lsn() {
        let p = Page::new(PageId::new(42), PageType::BTreeLeaf);
        assert_eq!(p.page_id(), PageId::new(42));
        assert_eq!(p.page_lsn(), Lsn::ZERO);
        assert_eq!(p.page_type().unwrap(), PageType::BTreeLeaf);
    }

    #[test]
    fn io_roundtrip_preserves_content() {
        let mut p = Page::new(PageId::new(7), PageType::VersionStore);
        p.set_page_lsn(Lsn::new(12345));
        p.body_mut()[0..4].copy_from_slice(b"data");
        let img = p.to_io_bytes();
        let q = Page::from_io_bytes(PageId::new(7), &img).unwrap();
        assert_eq!(q.page_lsn(), Lsn::new(12345));
        assert_eq!(&q.body()[0..4], b"data");
        assert_eq!(q.page_type().unwrap(), PageType::VersionStore);
    }

    #[test]
    fn corruption_detected() {
        let mut p = Page::new(PageId::new(9), PageType::Meta);
        for (i, b) in p.body_mut().iter_mut().enumerate() {
            *b = (i * 31 % 251) as u8;
        }
        let mut img = p.to_io_vec();
        assert_eq!(img.as_slice(), p.to_io_bytes().as_slice());
        img[5000] ^= 0xFF;
        let err = Page::from_io_bytes(PageId::new(9), &img).unwrap_err();
        assert_eq!(err.kind(), "corruption");
        img[5000] ^= 0xFF;
        // One flipped bit anywhere in the header, or at sampled positions
        // across the body, fails the seal.
        let header_bits = 0..PAGE_HEADER_SIZE * 8;
        let body_bits = (PAGE_HEADER_SIZE * 8..PAGE_SIZE * 8).step_by(97);
        for bit in header_bits.chain(body_bits).chain([PAGE_SIZE * 8 - 1]) {
            img[bit / 8] ^= 1 << (bit % 8);
            let err = Page::from_io_bytes(PageId::new(9), &img).unwrap_err();
            assert_eq!(err.kind(), "corruption", "flip at bit {bit}");
            img[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(Page::from_io_bytes(PageId::new(9), &img).is_ok());
    }

    #[test]
    fn wrong_slot_detected_via_seed() {
        // A valid page written at the wrong address must not verify.
        let p = Page::new(PageId::new(3), PageType::Meta);
        let img = p.to_io_bytes();
        let err = Page::from_io_bytes(PageId::new(4), &img).unwrap_err();
        assert_eq!(err.kind(), "corruption");
    }

    #[test]
    fn truncated_image_rejected() {
        let p = Page::new(PageId::new(1), PageType::Meta);
        let img = p.to_io_bytes();
        assert!(Page::from_io_bytes(PageId::new(1), &img[..100]).is_err());
    }

    #[test]
    fn bad_type_byte_rejected() {
        let mut p = Page::new(PageId::new(5), PageType::Meta);
        p.bytes[OFF_PAGE_TYPE] = 99;
        let img = p.to_io_bytes();
        assert!(Page::from_io_bytes(PageId::new(5), &img).is_err());
    }

    #[test]
    fn page_lsn_updates() {
        let mut p = Page::new(PageId::new(1), PageType::BTreeLeaf);
        p.set_page_lsn(Lsn::new(10));
        assert_eq!(p.page_lsn(), Lsn::new(10));
        p.set_page_lsn(Lsn::new(20));
        assert_eq!(p.page_lsn(), Lsn::new(20));
    }
}
