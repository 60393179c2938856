//! Hash equi-join: the engine behind the CSPairs self-join.
//!
//! The paper's CSPairs construction step is a self-join of `NN_Reln` "on
//! the predicate that a tuple NN_Reln.ID is less than NN_Reln2.ID and that
//! it is in the K-nearest neighbor set of NN_Reln2.ID and vice-versa". Our
//! [`hash_join`] implements the generic equi-join core (build + probe); the
//! non-equi residual predicates (`ID < ID2`) are applied by the caller's
//! `emit` callback, mirroring how a database would evaluate residual
//! predicates on top of the join.

use std::collections::HashMap;
use std::hash::Hash;

use fuzzydedup_storage::{HeapFile, StorageError, StorageResult};

/// Hash-join `build` and `probe` on equality of their keys, invoking
/// `emit(key, build row, probe row)` for each matching pair. Each side's
/// decoder turns a record into its join key and whatever else of the row
/// `emit` needs (`None` for a record that is not one of that side's); the
/// smaller side should be `build`, which is held in memory while `probe`
/// streams through the buffer pool.
pub fn hash_join<K: Hash + Eq, L, R>(
    build: &HeapFile,
    probe: &HeapFile,
    build_row: impl Fn(&[u8]) -> Option<(K, L)>,
    probe_row: impl Fn(&[u8]) -> Option<(K, R)>,
    mut emit: impl FnMut(&K, &L, &R) -> StorageResult<()>,
) -> StorageResult<()> {
    const WHY: &str = "record does not decode to a join row";
    let mut table: HashMap<K, Vec<L>> = HashMap::new();
    build.try_scan(|at, rec| {
        let (key, row) = build_row(rec).ok_or(StorageError::CorruptPage(at.page, WHY))?;
        table.entry(key).or_default().push(row);
        Ok(())
    })?;
    probe.try_scan(|at, rec| {
        let (key, row) = probe_row(rec).ok_or(StorageError::CorruptPage(at.page, WHY))?;
        for matched in table.get(&key).into_iter().flatten() {
            emit(&key, matched, &row)?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
    use std::sync::Arc;

    /// A file of `key: u32 | text` records.
    fn file_with(rows: &[(u32, &str)]) -> HeapFile {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(4), disk));
        let file = HeapFile::create(pool);
        for (k, v) in rows {
            file.insert(&[&k.to_le_bytes(), v.as_bytes()].concat()).unwrap();
        }
        file
    }

    fn row(rec: &[u8]) -> Option<(u32, String)> {
        let (key, text) = rec.split_first_chunk::<4>()?;
        Some((u32::from_le_bytes(*key), String::from_utf8(text.to_vec()).ok()?))
    }

    fn joined(l: &HeapFile, r: &HeapFile) -> Vec<(String, String)> {
        let mut pairs = Vec::new();
        hash_join(l, r, row, row, |_, a, b| {
            pairs.push((a.clone(), b.clone()));
            Ok(())
        })
        .unwrap();
        pairs.sort();
        pairs
    }

    #[test]
    fn inner_join_matches() {
        let l = file_with(&[(1, "a"), (2, "b"), (3, "c")]);
        let r = file_with(&[(2, "x"), (3, "y"), (4, "z")]);
        assert_eq!(joined(&l, &r), vec![("b".into(), "x".into()), ("c".into(), "y".into())]);
    }

    #[test]
    fn duplicate_keys_produce_cross_product() {
        let l = file_with(&[(1, "a1"), (1, "a2")]);
        let r = file_with(&[(1, "b1"), (1, "b2")]);
        assert_eq!(joined(&l, &r).len(), 4);
    }

    #[test]
    fn self_join_with_residual_predicate() {
        // The CSPairs pattern: self-join on a blocking key, residual
        // predicate applied in the emit callback.
        let t = file_with(&[(7, "p"), (7, "q"), (7, "r")]);
        let pairs: Vec<_> = joined(&t, &t).into_iter().filter(|(x, y)| x < y).collect();
        assert_eq!(pairs.len(), 3); // (p,q), (p,r), (q,r)
    }

    #[test]
    fn empty_sides() {
        let l = file_with(&[]);
        let r = file_with(&[(1, "x")]);
        assert!(joined(&l, &r).is_empty());
        assert!(joined(&r, &l).is_empty());
    }

    #[test]
    fn undecodable_record_and_failing_emit_are_typed_errors() {
        let good = file_with(&[(1, "x")]);
        let short = file_with(&[(1, "x")]);
        short.insert(b"no").unwrap();
        for (l, r) in [(&short, &good), (&good, &short)] {
            let e = hash_join(l, r, row, row, |_, _, _| Ok(())).unwrap_err();
            assert!(matches!(e, StorageError::CorruptPage(_, _)), "{e}");
        }
        let e = hash_join(&good, &good, row, row, |_, _, _| Err(StorageError::BufferPoolFull));
        assert!(matches!(e, Err(StorageError::BufferPoolFull)));
    }
}
