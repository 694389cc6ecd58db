//! The circular block layout: a log block lives on its device at
//! `start_lsn % capacity`, split at the wrap boundary. The landing zone's
//! replicas and XLOG's SSD block cache both keep their blocks this way.
//!
//! A read trusts nothing it finds: it takes the header at the block's
//! position, checks that it claims the requested start LSN, and decodes
//! (checksums) the image. A position a newer block has overwritten, or a
//! write still in progress, therefore reads as an error, never as a
//! wrong block.

use crate::block::{LogBlock, BLOCK_HEADER};
use socrates_common::{Error, Lsn, Result};
use socrates_storage::Fcb;

/// Write `block` at its circular position on `fcb`.
pub fn write_block(fcb: &dyn Fcb, capacity: u64, block: &LogBlock) -> Result<()> {
    let data = block.as_bytes();
    let pos = block.start_lsn().offset() % capacity;
    let first = ((capacity - pos) as usize).min(data.len());
    fcb.write_at(pos, &data[..first])?;
    if first < data.len() {
        fcb.write_at(0, &data[first..])?;
    }
    Ok(())
}

/// Read and validate the block starting at `lsn` from its circular
/// position on `fcb`.
pub fn read_block(fcb: &dyn Fcb, capacity: u64, lsn: Lsn) -> Result<LogBlock> {
    let mut header = vec![0u8; BLOCK_HEADER];
    read_wrapped(fcb, capacity, lsn, &mut header)?;
    let info = LogBlock::peek(&header)?;
    if info.start_lsn != lsn {
        return Err(Error::Corruption(format!("block at {lsn} claims start {}", info.start_lsn)));
    }
    let mut image = vec![0u8; info.total_len];
    read_wrapped(fcb, capacity, lsn, &mut image)?;
    LogBlock::decode(image)
}

fn read_wrapped(fcb: &dyn Fcb, capacity: u64, lsn: Lsn, buf: &mut [u8]) -> Result<()> {
    let pos = lsn.offset() % capacity;
    let first = ((capacity - pos) as usize).min(buf.len());
    fcb.read_at(pos, &mut buf[..first])?;
    if first < buf.len() {
        fcb.read_at(0, &mut buf[first..])?;
    }
    Ok(())
}
