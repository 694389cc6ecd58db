//! Property tests: blobs against a byte-array model, and snapshot
//! isolation under arbitrary interleavings of writes and snapshots.

use proptest::prelude::*;
use socrates_common::fault::FaultRegistry;
use socrates_xstore::{XStore, XStoreConfig};

#[derive(Clone, Debug)]
enum Op {
    Append(Vec<u8>),
    RewriteExtent(usize, u8),
    Snapshot,
    Read(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => proptest::collection::vec(any::<u8>(), 1..128).prop_map(Op::Append),
        2 => (any::<usize>(), any::<u8>()).prop_map(|(i, b)| Op::RewriteExtent(i, b)),
        1 => Just(Op::Snapshot),
        3 => (any::<usize>(), 1usize..64).prop_map(|(o, l)| Op::Read(o, l)),
    ]
}

proptest! {
    #[test]
    fn blob_matches_model_and_snapshots_freeze(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let store = XStore::new(XStoreConfig::instant(), FaultRegistry::disabled());
        let blob = store.create_blob("b").unwrap();
        let mut model: Vec<u8> = Vec::new();
        // Extent bookkeeping so RewriteExtent hits exact boundaries.
        let mut extents: Vec<(u64, usize)> = Vec::new();
        let mut snaps: Vec<(socrates_xstore::SnapshotId, Vec<u8>)> = Vec::new();

        for op in ops {
            match op {
                Op::Append(bytes) => {
                    let off = store.append(blob, &bytes).unwrap();
                    prop_assert_eq!(off, model.len() as u64);
                    extents.push((off, bytes.len()));
                    model.extend_from_slice(&bytes);
                }
                Op::RewriteExtent(i, fill) => {
                    if extents.is_empty() { continue; }
                    let (off, len) = extents[i % extents.len()];
                    let data = vec![fill; len];
                    store.write_at(blob, off, &data).unwrap();
                    model[off as usize..off as usize + len].copy_from_slice(&data);
                }
                Op::Snapshot => {
                    let sid = store.snapshot(blob).unwrap();
                    snaps.push((sid, model.clone()));
                }
                Op::Read(off, len) => {
                    if model.is_empty() { continue; }
                    let off = off % model.len();
                    let len = len.min(model.len() - off);
                    if len == 0 { continue; }
                    let got = store.read_at(blob, off as u64, len).unwrap();
                    prop_assert_eq!(&got[..], &model[off..off + len]);
                }
            }
        }
        // Every snapshot restores to exactly the bytes at snapshot time.
        for (i, (sid, frozen)) in snaps.iter().enumerate() {
            let restored = store.restore_snapshot(*sid, &format!("r{i}")).unwrap();
            prop_assert_eq!(store.blob_len(restored).unwrap(), frozen.len() as u64);
            if !frozen.is_empty() {
                let got = store.read_at(restored, 0, frozen.len()).unwrap();
                prop_assert_eq!(&got, frozen);
            }
        }
    }

    #[test]
    fn partial_overlap_is_always_rejected(
        a_len in 2usize..64,
        b_off_frac in 0.01f64..0.99,
        b_len in 2usize..64,
    ) {
        let store = XStore::new(XStoreConfig::instant(), FaultRegistry::disabled());
        let blob = store.create_blob("b").unwrap();
        store.write_at(blob, 0, &vec![1; a_len]).unwrap();
        let b_off = ((a_len as f64 * b_off_frac) as u64).max(1);
        // Overlapping-but-not-identical writes must be rejected unless they
        // are an exact extent replacement.
        if (b_off as usize) < a_len && !(b_off == 0 && b_len == a_len) {
            prop_assert!(store.write_at(blob, b_off, &vec![2; b_len]).is_err());
        }
    }
}
