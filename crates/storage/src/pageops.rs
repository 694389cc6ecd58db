//! Loggable page operations — the redo vocabulary.
//!
//! Every page mutation the engine performs is expressed as a [`PageOp`],
//! applied locally through [`apply_page_op`] and simultaneously written to
//! the log. Page servers and secondaries replay the *same* ops through the
//! *same* function, so replicas converge to byte-identical page bodies —
//! the property GetPage@LSN relies on. Ops carry no LSN themselves; the log
//! record that wraps them does, and [`apply_page_op`] stamps it into the
//! PageLSN.

use crate::page::{Page, PageType};
use crate::slotted::Slotted;
use socrates_common::{Error, Lsn, Result};

/// One deterministic mutation of a single page.
#[derive(Clone, Debug, PartialEq)]
pub enum PageOp {
    /// Format the page as an empty slotted page of the given type. Valid on
    /// a page in any prior state (allocation formats pages this way).
    Format {
        /// The new page type.
        ptype: PageType,
    },
    /// Insert a record at slot `idx` (shifting later slots).
    Insert {
        /// Slot position.
        idx: u16,
        /// Record payload.
        bytes: Vec<u8>,
    },
    /// Replace the record at slot `idx`.
    Update {
        /// Slot position.
        idx: u16,
        /// New payload.
        bytes: Vec<u8>,
    },
    /// Delete the record at slot `idx` (shifting later slots).
    Delete {
        /// Slot position.
        idx: u16,
    },
    /// Set the header flag byte.
    SetFlags {
        /// New flags value.
        flags: u8,
    },
    /// Format the page as `ptype` and push `records` in order: a page
    /// rebuilt from the records that moved onto it (a B-tree split's
    /// halves, a root's content moving down a level).
    Rebuild {
        /// The new page type.
        ptype: PageType,
        /// The page's records, in slot order.
        records: Vec<Vec<u8>>,
    },
}

const TAG_FORMAT: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_UPDATE: u8 = 3;
const TAG_DELETE: u8 = 4;
const TAG_SET_FLAGS: u8 = 5;
// Tag 6 was a whole-page image; it stays unassigned so that one fails to
// decode instead of reading as a `Rebuild`.
const TAG_REBUILD: u8 = 7;

impl PageOp {
    /// Serialize into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PageOp::Format { ptype } => {
                out.push(TAG_FORMAT);
                out.push(*ptype as u8);
            }
            PageOp::Insert { idx, bytes } => {
                out.push(TAG_INSERT);
                out.extend_from_slice(&idx.to_le_bytes());
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
            PageOp::Update { idx, bytes } => {
                out.push(TAG_UPDATE);
                out.extend_from_slice(&idx.to_le_bytes());
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
            PageOp::Delete { idx } => {
                out.push(TAG_DELETE);
                out.extend_from_slice(&idx.to_le_bytes());
            }
            PageOp::SetFlags { flags } => {
                out.push(TAG_SET_FLAGS);
                out.push(*flags);
            }
            PageOp::Rebuild { ptype, records } => {
                out.push(TAG_REBUILD);
                out.push(*ptype as u8);
                out.extend_from_slice(&(records.len() as u16).to_le_bytes());
                for rec in records {
                    out.extend_from_slice(&(rec.len() as u16).to_le_bytes());
                    out.extend_from_slice(rec);
                }
            }
        }
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            PageOp::Format { .. } => 2,
            PageOp::Insert { bytes, .. } | PageOp::Update { bytes, .. } => 7 + bytes.len(),
            PageOp::Delete { .. } => 3,
            PageOp::SetFlags { .. } => 2,
            PageOp::Rebuild { records, .. } => {
                4 + records.iter().map(|r| 2 + r.len()).sum::<usize>()
            }
        }
    }

    /// Deserialize from `data`, returning the op and the bytes consumed.
    pub fn decode(data: &[u8]) -> Result<(PageOp, usize)> {
        let err = || Error::Corruption("truncated page op".into());
        let tag = *data.first().ok_or_else(err)?;
        match tag {
            TAG_FORMAT => {
                let pt = PageType::from_u8(*data.get(1).ok_or_else(err)?)?;
                Ok((PageOp::Format { ptype: pt }, 2))
            }
            TAG_INSERT | TAG_UPDATE => {
                if data.len() < 7 {
                    return Err(err());
                }
                let idx = u16::from_le_bytes(data[1..3].try_into().unwrap());
                let len = u32::from_le_bytes(data[3..7].try_into().unwrap()) as usize;
                if data.len() < 7 + len {
                    return Err(err());
                }
                let bytes = data[7..7 + len].to_vec();
                let op = if tag == TAG_INSERT {
                    PageOp::Insert { idx, bytes }
                } else {
                    PageOp::Update { idx, bytes }
                };
                Ok((op, 7 + len))
            }
            TAG_DELETE => {
                if data.len() < 3 {
                    return Err(err());
                }
                let idx = u16::from_le_bytes(data[1..3].try_into().unwrap());
                Ok((PageOp::Delete { idx }, 3))
            }
            TAG_SET_FLAGS => Ok((PageOp::SetFlags { flags: *data.get(1).ok_or_else(err)? }, 2)),
            TAG_REBUILD => {
                if data.len() < 4 {
                    return Err(err());
                }
                let ptype = PageType::from_u8(data[1])?;
                let count = u16::from_le_bytes(data[2..4].try_into().unwrap()) as usize;
                let mut at = 4;
                // Every record takes at least its 2-byte length: a corrupt
                // count cannot reserve more than the data could hold.
                let mut records = Vec::with_capacity(count.min(data.len() / 2));
                for _ in 0..count {
                    let len_bytes = data.get(at..at + 2).ok_or_else(err)?;
                    let len = u16::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
                    records.push(data.get(at + 2..at + 2 + len).ok_or_else(err)?.to_vec());
                    at += 2 + len;
                }
                Ok((PageOp::Rebuild { ptype, records }, at))
            }
            other => Err(Error::Corruption(format!("unknown page op tag {other}"))),
        }
    }
}

/// Reset `page` to an empty slotted page of type `ptype`.
fn format(page: &mut Page, ptype: PageType) {
    page.set_page_type(ptype);
    page.set_flags(0);
    Slotted::init(page);
}

/// Apply `op` to `page` and stamp `lsn` as the new PageLSN.
///
/// This is the single replay path used by the primary (at mutation time),
/// page servers, secondaries, and crash recovery.
pub fn apply_page_op(page: &mut Page, op: &PageOp, lsn: Lsn) -> Result<()> {
    match op {
        PageOp::Format { ptype } => format(page, *ptype),
        PageOp::Insert { idx, bytes } => Slotted::insert_at(page, *idx as usize, bytes)?,
        PageOp::Update { idx, bytes } => Slotted::update_at(page, *idx as usize, bytes)?,
        PageOp::Delete { idx } => Slotted::delete_at(page, *idx as usize)?,
        PageOp::SetFlags { flags } => page.set_flags(*flags),
        PageOp::Rebuild { ptype, records } => {
            format(page, *ptype);
            for rec in records {
                Slotted::push(page, rec)?;
            }
        }
    }
    page.set_page_lsn(lsn);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use socrates_common::PageId;

    fn roundtrip(op: PageOp) -> PageOp {
        let mut buf = Vec::new();
        op.encode(&mut buf);
        assert_eq!(buf.len(), op.encoded_len());
        let (decoded, used) = PageOp::decode(&buf).unwrap();
        assert_eq!(used, buf.len());
        decoded
    }

    #[test]
    fn codec_roundtrips() {
        for op in [
            PageOp::Format { ptype: PageType::BTreeLeaf },
            PageOp::Insert { idx: 3, bytes: b"record".to_vec() },
            PageOp::Update { idx: 0, bytes: vec![] },
            PageOp::Delete { idx: 65535 },
            PageOp::SetFlags { flags: 0xAB },
            PageOp::Rebuild { ptype: PageType::BTreeLeaf, records: vec![] },
            PageOp::Rebuild {
                ptype: PageType::BTreeInternal,
                records: vec![b"a".to_vec(), vec![], vec![7u8; 2048]],
            },
        ] {
            assert_eq!(roundtrip(op.clone()), op);
        }
    }

    #[test]
    fn decode_rejects_truncation_and_bad_tags() {
        let mut buf = Vec::new();
        PageOp::Insert { idx: 1, bytes: b"abcdef".to_vec() }.encode(&mut buf);
        for cut in [0, 1, 3, 6, buf.len() - 1] {
            assert!(PageOp::decode(&buf[..cut]).is_err(), "cut {cut} accepted");
        }
        assert!(PageOp::decode(&[200]).is_err());
        // A retired whole-page image (tag 6, u32 length, page bytes).
        let mut image = vec![6u8];
        image.extend_from_slice(&(crate::page::PAGE_SIZE as u32).to_le_bytes());
        image.resize(5 + crate::page::PAGE_SIZE, 0);
        assert!(PageOp::decode(&image).is_err());
    }

    #[test]
    fn apply_stamps_lsn_and_replays_identically() {
        let ops = [
            PageOp::Format { ptype: PageType::BTreeLeaf },
            PageOp::Insert { idx: 0, bytes: b"b".to_vec() },
            PageOp::Insert { idx: 0, bytes: b"a".to_vec() },
            PageOp::Insert { idx: 2, bytes: b"c".to_vec() },
            PageOp::Update { idx: 1, bytes: b"B!".to_vec() },
            PageOp::Delete { idx: 0 },
        ];
        let mut p1 = Page::new(PageId::new(5), PageType::Free);
        let mut p2 = Page::new(PageId::new(5), PageType::Free);
        for (i, op) in ops.iter().enumerate() {
            apply_page_op(&mut p1, op, Lsn::new((i + 1) as u64 * 10)).unwrap();
        }
        for (i, op) in ops.iter().enumerate() {
            apply_page_op(&mut p2, op, Lsn::new((i + 1) as u64 * 10)).unwrap();
        }
        assert_eq!(p1.to_io_bytes().as_slice(), p2.to_io_bytes().as_slice());
        assert_eq!(p1.page_lsn(), Lsn::new(60));
        let recs: Vec<&[u8]> = Slotted::iter(&p1).collect();
        assert_eq!(recs, vec![b"B!".as_ref(), b"c".as_ref()]);
    }

    #[test]
    fn rebuild_is_format_then_push() {
        let records = vec![b"left".to_vec(), b"moved".to_vec(), vec![]];
        let rebuild = PageOp::Rebuild { ptype: PageType::BTreeInternal, records: records.clone() };
        // Over a page with prior content: the old records are gone.
        let mut rebuilt = Page::new(PageId::new(20), PageType::BTreeLeaf);
        apply_page_op(&mut rebuilt, &PageOp::Format { ptype: PageType::BTreeLeaf }, Lsn::new(1))
            .unwrap();
        apply_page_op(
            &mut rebuilt,
            &PageOp::Insert { idx: 0, bytes: b"old".to_vec() },
            Lsn::new(2),
        )
        .unwrap();
        apply_page_op(&mut rebuilt, &rebuild, Lsn::new(99)).unwrap();
        assert_eq!(rebuilt.page_type().unwrap(), PageType::BTreeInternal);
        assert_eq!(rebuilt.page_lsn(), Lsn::new(99));
        assert_eq!(Slotted::iter(&rebuilt).collect::<Vec<_>>(), records);
        // Same bytes as Format followed by one Insert per record.
        let mut stepped = Page::new(PageId::new(20), PageType::BTreeLeaf);
        apply_page_op(&mut stepped, &PageOp::Format { ptype: PageType::BTreeLeaf }, Lsn::new(1))
            .unwrap();
        apply_page_op(
            &mut stepped,
            &PageOp::Insert { idx: 0, bytes: b"old".to_vec() },
            Lsn::new(2),
        )
        .unwrap();
        apply_page_op(
            &mut stepped,
            &PageOp::Format { ptype: PageType::BTreeInternal },
            Lsn::new(3),
        )
        .unwrap();
        for (i, rec) in records.into_iter().enumerate() {
            apply_page_op(
                &mut stepped,
                &PageOp::Insert { idx: i as u16, bytes: rec },
                Lsn::new(99),
            )
            .unwrap();
        }
        assert_eq!(rebuilt.to_io_bytes().as_slice(), stepped.to_io_bytes().as_slice());
    }

    #[test]
    fn rebuild_that_overflows_the_page_is_rejected() {
        let mut p = Page::new(PageId::new(1), PageType::Free);
        let records = vec![vec![1u8; 3000]; 3];
        let op = PageOp::Rebuild { ptype: PageType::BTreeLeaf, records };
        assert!(apply_page_op(&mut p, &op, Lsn::new(1)).is_err());
    }

    #[test]
    fn rebuild_decode_rejects_truncation() {
        let mut buf = Vec::new();
        let records = vec![b"ab".to_vec(), b"cde".to_vec()];
        PageOp::Rebuild { ptype: PageType::BTreeLeaf, records }.encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(PageOp::decode(&buf[..cut]).is_err(), "cut {cut} accepted");
        }
    }
}
