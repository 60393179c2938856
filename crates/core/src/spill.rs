//! `NN_Reln` spill: persisting the Phase-1 relation to heap-file storage.
//!
//! On corpora that outgrow RAM the materialized neighbor relation is the
//! largest Phase-1 artifact after the index itself, and the paper's
//! architecture already assumes `NN_Reln` lives in the database ("the
//! partitioning phase runs as relational queries" over it). This module
//! gives the relation a storage-resident form: entries serialize into
//! [`HeapFile`] records whose pages flow through the buffer pool.
//!
//! The pipeline uses it as a round trip that caps nothing yet: it spills
//! a relation it built whole in memory, drops it, and reads it back whole
//! with [`read_nn_reln`] before Phase 2, so peak memory holds the whole
//! relation either way; a bounded pool backed by a
//! [`FileDisk`](fuzzydedup_storage::FileDisk) bounds only the pages
//! resident during the round trip. Making the spill a memory bound is
//! ROADMAP items 7(c) and 13.
//!
//! # Record format (little-endian)
//!
//! One logical entry per tuple, chunked when its neighbor list outgrows a
//! page:
//!
//! ```text
//! id: u32 | ng: f64 | count: u32 | count × (neighbor_id: u32 | dist: f64)
//! ```
//!
//! Entries are written in id order; an entry whose neighbor list exceeds
//! [`Page::max_record_size`] splits into consecutive records that repeat
//! the `id`/`ng` header, and the reader re-concatenates consecutive
//! same-id records (neighbor order — ascending `(dist, id)` — is
//! preserved by the split). [`read_nn_reln`] therefore round-trips
//! [`spill_nn_reln`] bit-exactly.

use fuzzydedup_metrics::{incr, Counter};
use fuzzydedup_relation::Neighbor;
use fuzzydedup_storage::{HeapFile, Page, StorageError, StorageResult};

use crate::nnreln::{NnEntry, NnReln};

/// Serialized size of the per-record header (`id`, `ng`, `count`).
const HEADER_BYTES: usize = 4 + 8 + 4;
/// Serialized size of one neighbor (`id`, `dist`).
const NEIGHBOR_BYTES: usize = 4 + 8;

/// Write the whole relation into `file` in id order, incrementing
/// [`Counter::SpillEntries`] per tuple and [`Counter::SpillBytes`] per
/// serialized byte. The file should be freshly created — records are
/// appended.
pub fn spill_nn_reln(reln: &NnReln, file: &HeapFile) -> StorageResult<()> {
    let bytes = write_nn_reln(reln, file)?;
    incr(Counter::SpillEntries, reln.len() as u64);
    incr(Counter::SpillBytes, bytes);
    Ok(())
}

/// The one page encoder of `NN_Reln` — what [`spill_nn_reln`] counts and
/// what the relational Phase 2 reads its lists from. Returns the bytes
/// written.
pub(crate) fn write_nn_reln(reln: &NnReln, file: &HeapFile) -> StorageResult<u64> {
    // Leave headroom so a full chunk's record always fits a fresh page.
    let max_neighbors = (Page::max_record_size() - HEADER_BYTES) / NEIGHBOR_BYTES;
    let mut buf: Vec<u8> = Vec::new();
    let mut bytes = 0u64;
    for entry in reln.entries() {
        let mut chunks = entry.neighbors.chunks(max_neighbors);
        // An empty neighbor list still needs its header record.
        let first: &[Neighbor] = chunks.next().unwrap_or(&[]);
        for chunk in std::iter::once(first).chain(chunks) {
            write_chunk(entry, chunk, &mut buf);
            file.insert(&buf)?;
            bytes += buf.len() as u64;
        }
    }
    Ok(bytes)
}

fn write_chunk(entry: &NnEntry, neighbors: &[Neighbor], buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&entry.id.to_le_bytes());
    buf.extend_from_slice(&entry.ng.to_le_bytes());
    buf.extend_from_slice(&(neighbors.len() as u32).to_le_bytes());
    for n in neighbors {
        buf.extend_from_slice(&n.id.to_le_bytes());
        buf.extend_from_slice(&n.dist.to_le_bytes());
    }
}

/// Read a relation previously written by [`spill_nn_reln`] back into
/// memory, merging chunked entries. A record whose length disagrees with
/// its own header is a [`StorageError::CorruptPage`].
///
/// # Panics
/// Panics if the decoded ids are not dense `0..n` ([`NnReln::new`]).
pub fn read_nn_reln(file: &HeapFile) -> StorageResult<NnReln> {
    let mut entries: Vec<NnEntry> = Vec::new();
    scan_nn_reln(file, |entry| {
        entries.push(entry);
        Ok(())
    })?;
    Ok(NnReln::new(entries))
}

/// The one page decoder of `NN_Reln`: visit the entries of a file written
/// by [`write_nn_reln`] in storage order, one whole entry (continuation
/// chunks merged) in memory at a time.
pub(crate) fn scan_nn_reln(
    file: &HeapFile,
    mut visit: impl FnMut(NnEntry) -> StorageResult<()>,
) -> StorageResult<()> {
    let mut pending: Option<NnEntry> = None;
    file.try_scan(|at, bytes| {
        let (id, ng, neighbors) =
            read_chunk(bytes).ok_or(StorageError::CorruptPage(at.page, "NN_Reln record length"))?;
        match &mut pending {
            // Continuation chunk of the previous entry.
            Some(last) if last.id == id => last.neighbors.extend(neighbors),
            _ => {
                if let Some(done) = pending.replace(NnEntry::new(id, neighbors, ng)) {
                    visit(done)?;
                }
            }
        }
        Ok(())
    })?;
    pending.map_or(Ok(()), visit)
}

fn read_chunk(bytes: &[u8]) -> Option<(u32, f64, Vec<Neighbor>)> {
    let (id, rest) = bytes.split_first_chunk::<4>()?;
    let (ng, rest) = rest.split_first_chunk::<8>()?;
    let (count, rest) = rest.split_first_chunk::<4>()?;
    if Some(rest.len()) != (u32::from_le_bytes(*count) as usize).checked_mul(NEIGHBOR_BYTES) {
        return None;
    }
    let neighbors = rest
        .chunks_exact(NEIGHBOR_BYTES)
        .map(|nb| {
            let (id, dist) = nb.split_first_chunk::<4>()?;
            Some(Neighbor::new(u32::from_le_bytes(*id), f64::from_le_bytes(dist.try_into().ok()?)))
        })
        .collect::<Option<Vec<_>>>()?;
    Some((u32::from_le_bytes(*id), f64::from_le_bytes(*ng), neighbors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
    use std::sync::Arc;

    fn heap(frames: usize) -> HeapFile {
        HeapFile::create(Arc::new(BufferPool::new(
            BufferPoolConfig::with_capacity(frames),
            Arc::new(InMemoryDisk::new()),
        )))
    }

    fn entry(id: u32, neighbors: &[(u32, f64)], ng: f64) -> NnEntry {
        NnEntry::new(id, neighbors.iter().map(|&(i, d)| Neighbor::new(i, d)).collect(), ng)
    }

    #[test]
    fn round_trips_bit_exactly() {
        let reln = NnReln::new(vec![
            entry(0, &[(1, 0.125), (2, 0.5)], 2.0),
            entry(1, &[(0, 0.125)], 3.5),
            entry(2, &[], 1.0),
            entry(3, &[(0, 0.5), (1, 0.5), (2, 0.75)], 4.0),
        ]);
        let file = heap(16);
        spill_nn_reln(&reln, &file).unwrap();
        assert_eq!(read_nn_reln(&file).unwrap(), reln);
    }

    #[test]
    fn empty_relation_round_trips() {
        let file = heap(4);
        spill_nn_reln(&NnReln::new(vec![]), &file).unwrap();
        assert!(read_nn_reln(&file).unwrap().is_empty());
    }

    #[test]
    fn oversized_neighbor_lists_chunk_across_records() {
        // A neighbor list far beyond one page's record capacity forces the
        // continuation path; distances keep full f64 precision.
        let neighbors: Vec<(u32, f64)> =
            (0..5000u32).map(|i| (i + 1, f64::from(i) * 0.001 + 0.1)).collect();
        let reln = NnReln::new(vec![entry(0, &neighbors, 5000.0)]);
        let file = heap(64);
        spill_nn_reln(&reln, &file).unwrap();
        assert!(file.len() > 1, "entry must span multiple records");
        assert_eq!(read_nn_reln(&file).unwrap(), reln);
    }

    #[test]
    fn malformed_record_is_a_typed_error() {
        // A record one byte short of what its header promises, and one too
        // short to hold a header at all.
        let reln = NnReln::new(vec![entry(0, &[(1, 0.25)], 2.0), entry(1, &[(0, 0.25)], 2.0)]);
        let mut record = Vec::new();
        write_chunk(reln.entry(0), &reln.entry(0).neighbors, &mut record);
        for bad in [&record[..record.len() - 1], &record[..7]] {
            let file = heap(4);
            spill_nn_reln(&reln, &file).unwrap();
            file.insert(bad).unwrap();
            let e = read_nn_reln(&file).unwrap_err();
            assert!(matches!(e, StorageError::CorruptPage(_, _)), "{e}");
        }
    }

    #[test]
    fn spill_counters_account_entries_and_bytes() {
        let reln = NnReln::new(vec![entry(0, &[(1, 0.25)], 2.0), entry(1, &[(0, 0.25)], 2.0)]);
        let file = heap(8);
        let (spilled, d) = fuzzydedup_metrics::scoped(|| spill_nn_reln(&reln, &file));
        spilled.unwrap();
        assert_eq!(d.get(Counter::SpillEntries), 2);
        assert_eq!(d.get(Counter::SpillBytes), 2 * (HEADER_BYTES + NEIGHBOR_BYTES) as u64);
    }
}
