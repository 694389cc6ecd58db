//! Crash recovery (ADR) and point-in-time restore across the whole stack.

use socrates::{Socrates, SocratesConfig};
use socrates_common::{Error, Lsn, PageId, TxnId};
use socrates_engine::recovery::{find_last_checkpoint, Analyzer};
use socrates_engine::txn::TxnCheckpointMeta;
use socrates_engine::value::{ColumnType, Schema, Value};
use socrates_engine::TxnManager;
use socrates_wal::record::{LogPayload, SequencedRecord};
use socrates_xlog::PULL_BATCH_BYTES;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

fn schema() -> Schema {
    Schema::new(vec![("id".into(), ColumnType::Int), ("v".into(), ColumnType::Int)], 1)
}

fn row(id: i64, v: i64) -> Vec<Value> {
    vec![Value::Int(id), Value::Int(v)]
}

/// A page image with its checksum field zeroed: the CRC is only maintained
/// at I/O boundaries, so two reads of the same version may differ there
/// depending on which tier served them.
fn canon(p: &socrates_storage::Page) -> Vec<u8> {
    let mut b = p.as_bytes().to_vec();
    b[4..8].fill(0);
    b
}

#[test]
fn failover_after_checkpoint_and_more_commits() {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    let p = sys.primary().unwrap();
    let db = p.db();
    db.create_table("t", schema()).unwrap();
    let h = db.begin();
    for i in 0..50 {
        db.insert(&h, "t", &row(i, 1)).unwrap();
    }
    db.commit(h).unwrap();
    sys.checkpoint().unwrap();
    // Work after the checkpoint (the analysis tail).
    let h = db.begin();
    for i in 50..80 {
        db.insert(&h, "t", &row(i, 2)).unwrap();
    }
    db.commit(h).unwrap();
    // A transaction that never commits.
    let open = db.begin();
    db.update(&open, "t", &row(0, -999)).unwrap();
    p.pipeline().flush().unwrap();

    sys.kill_primary();
    let p2 = sys.failover().unwrap();
    let db2 = p2.db();
    let r = db2.begin();
    assert_eq!(db2.scan_table(&r, "t", usize::MAX).unwrap().len(), 80);
    assert_eq!(
        db2.get(&r, "t", &[Value::Int(0)]).unwrap(),
        Some(row(0, 1)),
        "uncommitted update must be invisible after recovery (ADR)"
    );
    // The dead transaction's id is in the aborted map: new writers skip
    // its version.
    let h = db2.begin();
    db2.update(&h, "t", &row(0, 7)).unwrap();
    db2.commit(h).unwrap();
    let r = db2.begin();
    assert_eq!(db2.get(&r, "t", &[Value::Int(0)]).unwrap(), Some(row(0, 7)));
    sys.shutdown();
}

#[test]
fn repeated_failovers_keep_allocator_and_clock_consistent() {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    sys.primary().unwrap().db().create_table("t", schema()).unwrap();
    let mut expected = 0i64;
    for round in 0..4 {
        let p = sys.primary().unwrap();
        let db = p.db();
        let h = db.begin();
        for i in 0..40 {
            db.insert(&h, "t", &row(round * 40 + i, round)).unwrap();
            expected += 1;
        }
        db.commit(h).unwrap();
        if round % 2 == 0 {
            sys.checkpoint().unwrap();
        }
        sys.kill_primary();
        sys.failover().unwrap();
    }
    let p = sys.primary().unwrap();
    let r = p.db().begin();
    assert_eq!(p.db().scan_table(&r, "t", usize::MAX).unwrap().len(), expected as usize);
    sys.shutdown();
}

#[test]
fn pitr_restores_each_era() {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    let p = sys.primary().unwrap();
    let db = p.db();
    db.create_table("t", schema()).unwrap();

    // Era A: ids 0..30.
    let h = db.begin();
    for i in 0..30 {
        db.insert(&h, "t", &row(i, 0)).unwrap();
    }
    db.commit(h).unwrap();
    sys.checkpoint().unwrap();
    let backup = sys.backup().unwrap();
    let lsn_a = p.pipeline().hardened_lsn();

    // Era B: ids 30..60 and updates to era A.
    let h = db.begin();
    for i in 30..60 {
        db.insert(&h, "t", &row(i, 0)).unwrap();
    }
    for i in 0..10 {
        db.update(&h, "t", &row(i, 100)).unwrap();
    }
    db.commit(h).unwrap();
    let lsn_b = p.pipeline().hardened_lsn();

    // Era C: delete everything below 20.
    let h = db.begin();
    for i in 0..20 {
        db.delete(&h, "t", &[Value::Int(i)]).unwrap();
    }
    db.commit(h).unwrap();
    let lsn_c = p.pipeline().hardened_lsn();

    // Restore to A: 30 rows, none updated.
    let at_a = sys.restore_pitr(&backup, lsn_a).unwrap();
    let ra = at_a.primary().unwrap();
    let r = ra.db().begin();
    let rows = ra.db().scan_table(&r, "t", usize::MAX).unwrap();
    assert_eq!(rows.len(), 30);
    assert_eq!(ra.db().get(&r, "t", &[Value::Int(0)]).unwrap(), Some(row(0, 0)));
    at_a.shutdown();

    // Restore to B: 60 rows, first 10 updated.
    let at_b = sys.restore_pitr(&backup, lsn_b).unwrap();
    let rb = at_b.primary().unwrap();
    let r = rb.db().begin();
    assert_eq!(rb.db().scan_table(&r, "t", usize::MAX).unwrap().len(), 60);
    assert_eq!(rb.db().get(&r, "t", &[Value::Int(5)]).unwrap(), Some(row(5, 100)));
    at_b.shutdown();

    // Restore to C: 40 rows.
    let at_c = sys.restore_pitr(&backup, lsn_c).unwrap();
    let rc = at_c.primary().unwrap();
    let r = rc.db().begin();
    assert_eq!(rc.db().scan_table(&r, "t", usize::MAX).unwrap().len(), 40);
    assert!(rc.db().get(&r, "t", &[Value::Int(5)]).unwrap().is_none());
    at_c.shutdown();
    sys.shutdown();
}

#[test]
fn pitr_excludes_transactions_in_flight_at_target() {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    let p = sys.primary().unwrap();
    let db = p.db();
    db.create_table("t", schema()).unwrap();
    let h = db.begin();
    db.insert(&h, "t", &row(1, 1)).unwrap();
    db.commit(h).unwrap();
    sys.checkpoint().unwrap();
    let backup = sys.backup().unwrap();

    // A transaction is mid-flight at the restore target...
    let open = db.begin();
    db.insert(&open, "t", &row(2, 2)).unwrap();
    p.pipeline().flush().unwrap();
    let target = p.pipeline().hardened_lsn();
    // ...and commits later (after the target).
    db.commit(open).unwrap();

    let restored = sys.restore_pitr(&backup, target).unwrap();
    let rp = restored.primary().unwrap();
    let r = rp.db().begin();
    assert!(rp.db().get(&r, "t", &[Value::Int(1)]).unwrap().is_some());
    assert!(
        rp.db().get(&r, "t", &[Value::Int(2)]).unwrap().is_none(),
        "a txn uncommitted at the PITR point must not be visible"
    );
    restored.shutdown();
    sys.shutdown();
}

/// A restored deployment shares the source's XStore service. Building its
/// fabric must leave the store's fault registry alone: the store belongs
/// to the deployment that created it, whose `xstore.*` rules, counters and
/// `nth:`/`first:` schedules keep running.
#[test]
fn pitr_restore_leaves_the_shared_xstore_on_the_source_fault_registry() {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    let p = sys.primary().unwrap();
    p.db().create_table("t", schema()).unwrap();
    let h = p.db().begin();
    p.db().insert(&h, "t", &row(1, 1)).unwrap();
    p.db().commit(h).unwrap();
    sys.checkpoint().unwrap();
    let backup = sys.backup().unwrap();
    let restored = sys.restore_pitr(&backup, p.pipeline().hardened_lsn()).unwrap();

    let site = socrates_common::fault::sites::XSTORE_GET;
    let source = sys.fabric();
    source.faults.install_spec(&format!("{site}@always=error:unavailable")).unwrap();
    let pid = source.partition_ids()[0];
    let (data_blob, _) = source.partition(pid).unwrap().servers[0].blobs();
    let read = source.xstore.read_at(data_blob, 0, socrates_storage::page::PAGE_SIZE);
    let err = read.map(|bytes| bytes.len()).unwrap_err();
    source.faults.clear();
    assert!(matches!(err, Error::Unavailable(_)), "source rule did not fire: {err}");
    assert!(source.faults.fired_count(site) > 0);
    assert_eq!(restored.fabric().faults.fired_count(site), 0);
    restored.shutdown();
    sys.shutdown();
}

#[test]
fn page_server_loss_and_replacement_preserves_data() {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    let p = sys.primary().unwrap();
    let db = p.db();
    db.create_table("t", schema()).unwrap();
    let h = db.begin();
    for i in 0..200 {
        db.insert(&h, "t", &row(i, i)).unwrap();
    }
    db.commit(h).unwrap();
    let lsn = p.pipeline().hardened_lsn();
    sys.checkpoint().unwrap();

    let fabric = sys.fabric();
    for pid in fabric.partition_ids() {
        let old = fabric.kill_partition(pid).unwrap();
        let (data, meta) = old.servers[0].blobs();
        drop(old);
        let origin = socrates::ServerOrigin::Blobs { data, meta, replay: None };
        let server = fabric.spawn_server(pid, origin).unwrap();
        fabric.install_partition(pid, vec![server]).unwrap();
    }
    fabric.wait_applied(lsn, Duration::from_secs(10)).unwrap();

    // Force a cold read path through the replacements.
    sys.kill_primary();
    let p2 = sys.failover().unwrap();
    let r = p2.db().begin();
    let rows = p2.db().scan_table(&r, "t", usize::MAX).unwrap();
    assert_eq!(rows.len(), 200);
    let _ = Lsn::ZERO;
    sys.shutdown();
}

#[test]
fn partition_replica_serves_reads() {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    let p = sys.primary().unwrap();
    let db = p.db();
    db.create_table("t", schema()).unwrap();
    let h = db.begin();
    for i in 0..100 {
        db.insert(&h, "t", &row(i, i)).unwrap();
    }
    db.commit(h).unwrap();
    let fabric = sys.fabric();
    let pid = fabric.partition_ids()[0];
    fabric.add_partition_replica(pid).unwrap();
    assert_eq!(fabric.partition(pid).unwrap().servers.len(), 2);
    // Cold primary → reads route through the replica set.
    sys.kill_primary();
    let p2 = sys.failover().unwrap();
    let r = p2.db().begin();
    assert_eq!(p2.db().scan_table(&r, "t", usize::MAX).unwrap().len(), 100);
    sys.shutdown();
}

/// Time travel through the layered page-version store, end to end: every
/// workload frontier stays resolvable at its exact bytes across
/// checkpoints and an L0→L1 compaction, and history the retention GC
/// retires fails with a clean error naming the horizon.
#[test]
fn get_page_at_time_travels_across_checkpoints_and_gc() {
    // Tiny L0 seal so each round banks sealed history; the background
    // compaction trigger is parked so the explicit pass below is the only
    // one. A small retention window lets filler commits push the GC
    // horizon past the compaction cutoff at the end.
    let config = SocratesConfig::fast_test()
        .with_layer_knobs(256, usize::MAX >> 1)
        .with_retention_window(4096);
    let sys = Socrates::launch(config).unwrap();
    let p = sys.primary().unwrap();
    let db = p.db();
    db.create_table("t", schema()).unwrap();
    let h = db.begin();
    for i in 0..20 {
        db.insert(&h, "t", &row(i, 0)).unwrap();
    }
    db.commit(h).unwrap();
    let fabric = sys.fabric();
    let pid = fabric.partition_ids()[0];
    let spec = fabric.partition_spec(pid);
    let ps = Arc::clone(&fabric.partition(pid).unwrap().servers[0]);

    // Six rounds of updates; checkpoint between every other pair so the
    // retained history straddles checkpoint images. At each round's
    // frontier, snapshot the bytes of every page the store can resolve.
    type FrontierSnap = Vec<(PageId, Vec<u8>)>;
    let mut frontiers: Vec<(Lsn, FrontierSnap)> = Vec::new();
    for round in 0..6i64 {
        let h = db.begin();
        for i in 0..20 {
            db.update(&h, "t", &row(i, round + 1)).unwrap();
        }
        db.commit(h).unwrap();
        if round % 2 == 0 {
            sys.checkpoint().unwrap();
        }
        let lsn = p.pipeline().hardened_lsn();
        fabric.wait_applied(lsn, Duration::from_secs(10)).unwrap();
        let mut snap = Vec::new();
        for off in 0..spec.span {
            let page = PageId::new(spec.base_page + off);
            if let Ok(img) = ps.get_page_at(page, lsn) {
                snap.push((page, canon(&img)));
            }
        }
        assert!(!snap.is_empty(), "round {round}: nothing resolvable at its own frontier");
        frontiers.push((lsn, snap));
    }

    // At least one page (the rows' home) must carry a distinct version at
    // every frontier, or the per-frontier probes below are vacuous.
    let versioned = |page: &PageId| {
        let versions: Vec<&Vec<u8>> = frontiers
            .iter()
            .filter_map(|(_, snap)| snap.iter().find(|(q, _)| q == page).map(|(_, b)| b))
            .collect();
        versions.len() == frontiers.len() && versions.windows(2).all(|w| w[0] != w[1])
    };
    assert!(
        frontiers[0].1.iter().any(|(page, _)| versioned(page)),
        "no page carries a distinct version at every frontier"
    );

    // Fold the sealed L0 history into a merged delta layer + L1 image,
    // then re-resolve every (page, frontier) pair byte-for-byte.
    assert!(ps.compact_blocking().unwrap(), "seven commits sealed no compaction input");
    for (lsn, snap) in &frontiers {
        for (page, want) in snap {
            let got = ps.get_page_at(*page, *lsn).unwrap_or_else(|e| {
                panic!("({page}, {lsn}) lost after checkpoints + compaction: {e}")
            });
            assert_eq!(canon(&got), *want, "version at ({page}, {lsn}) diverged");
        }
    }

    // Filler commits march the applied frontier until the retention
    // horizon passes the compaction cutoff and GC retires old layers.
    let mut floor = Lsn::ZERO;
    for attempt in 0.. {
        assert!(attempt < 200, "GC never found anything to retire");
        let h = db.begin();
        for i in 0..20 {
            db.update(&h, "t", &row(i, 99)).unwrap();
        }
        db.commit(h).unwrap();
        let lsn = p.pipeline().hardened_lsn();
        fabric.wait_applied(lsn, Duration::from_secs(10)).unwrap();
        // The floor only moves once the horizon passes an image boundary;
        // keep marching until it clears the oldest frontier.
        if let Some(f) = ps.gc().unwrap() {
            if f > frontiers[0].0 {
                floor = f;
                break;
            }
        }
    }
    assert_eq!(ps.gc_floor_lsn(), floor);

    // Retired history errors cleanly; retained history still resolves.
    for (lsn, snap) in &frontiers {
        for (page, want) in snap {
            if *lsn < floor {
                match ps.get_page_at(*page, *lsn) {
                    Err(Error::InvalidArgument(msg)) => assert!(
                        msg.contains("GC horizon"),
                        "retired read failed without naming the horizon: {msg}"
                    ),
                    other => panic!("({page}, {lsn}) is below floor {floor}: got {other:?}"),
                }
            } else {
                let got = ps.get_page_at(*page, *lsn).unwrap();
                assert_eq!(canon(&got), *want, "retained ({page}, {lsn}) diverged");
            }
        }
    }
    // And the present is unaffected: the frontier read serves the latest
    // version of every live page.
    let now = ps.applied_lsn();
    let (page, _) = &frontiers[0].1[0];
    assert_eq!(
        ps.get_page_at(*page, now).unwrap().page_lsn(),
        ps.get_page(*page, now).unwrap().page_lsn()
    );
    sys.shutdown();
}

/// Failover after the log has wrapped the landing zone many times, with
/// hot tiers too small to hold the tail: analysis streams two pull
/// batches and more back from the long-term archive, and every
/// acknowledged commit reads back.
#[test]
fn failover_streams_analysis_from_the_archive_after_the_lz_wraps() {
    let lz_capacity: u64 = 128 << 10;
    let mut config = SocratesConfig::fast_test();
    config.lz_capacity = lz_capacity;
    config.xlog.sequence_map_bytes = 4 << 10;
    config.xlog.ssd_cache_bytes = 64 << 10;
    let sys = Socrates::launch(config).unwrap();
    let p = sys.primary().unwrap();
    let db = p.db();
    let bytes_schema =
        Schema::new(vec![("id".into(), ColumnType::Int), ("v".into(), ColumnType::Bytes)], 1);
    db.create_table("t", bytes_schema).unwrap();
    sys.checkpoint().unwrap();
    let mut acked = BTreeSet::new();
    let mut id = 0i64;
    while p.pipeline().hardened_lsn().offset() < 2 * PULL_BATCH_BYTES as u64 {
        let h = db.begin();
        let batch: Vec<i64> = (id..id + 8).collect();
        for &k in &batch {
            db.upsert(&h, "t", &[Value::Int(k), Value::Bytes(vec![k as u8; 1600])]).unwrap();
        }
        db.commit(h).unwrap();
        acked.extend(batch);
        id += 8;
    }
    // One writer dies with the primary.
    let open = db.begin();
    db.upsert(&open, "t", &[Value::Int(0), Value::Bytes(vec![0xEE; 16])]).unwrap();
    p.pipeline().flush().unwrap();
    let xlog = &sys.fabric().xlog;
    assert!(sys.fabric().lz.tail().offset() >= 3 * lz_capacity, "the LZ wrapped 3 times");

    sys.kill_primary();
    let lt_before = xlog.metrics().served_from_lt.get();
    let p2 = sys.failover().unwrap();
    assert!(xlog.metrics().served_from_lt.get() > lt_before, "analysis read the LT");
    let db2 = p2.db();
    let r = db2.begin();
    let rows = db2.scan_table(&r, "t", usize::MAX).unwrap();
    let found: BTreeSet<i64> = rows
        .iter()
        .map(|row| match row[0] {
            Value::Int(k) => k,
            ref other => panic!("bad key {other:?}"),
        })
        .collect();
    assert_eq!(found, acked);
    assert_eq!(
        db2.get(&r, "t", &[Value::Int(0)]).unwrap().unwrap()[1],
        Value::Bytes(vec![0; 1600]),
        "the dead writer's update stays invisible"
    );
    // The recovered allocator and clock keep working.
    let h = db2.begin();
    db2.upsert(&h, "t", &[Value::Int(-1), Value::Bytes(vec![1; 1600])]).unwrap();
    db2.commit(h).unwrap();
    sys.shutdown();
}

/// The analysis recovery ran before it streamed, kept as an oracle: find
/// the last checkpoint in the materialized log, start from its meta,
/// replay every record, abort the survivors.
fn slice_analysis(records: &[SequencedRecord]) -> (TxnManager, u64, Vec<TxnId>) {
    let meta = match find_last_checkpoint(records).unwrap() {
        Some((_, _, meta)) => meta,
        None => TxnCheckpointMeta::default(),
    };
    let tm = TxnManager::new();
    tm.absorb_meta(&meta);
    let mut next_page_id = meta.next_page_id;
    for rec in records {
        match &rec.record.payload {
            LogPayload::TxnBegin => tm.apply_begin(rec.record.txn),
            LogPayload::TxnCommit { commit_ts } => tm.apply_commit(rec.record.txn, *commit_ts),
            LogPayload::TxnAbort => tm.apply_abort(rec.record.txn),
            LogPayload::AllocPages { first, count } => {
                next_page_id = next_page_id.max(first.raw() + count);
            }
            _ => {}
        }
    }
    let died = tm.finish_analysis();
    (tm, next_page_id, died)
}

#[test]
fn streaming_analysis_matches_the_slice_oracle() {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    let p = sys.primary().unwrap();
    let db = p.db();
    // Before the checkpoint: DDL (page allocation), commits, an abort and
    // a transaction left open across it.
    db.create_table("t", schema()).unwrap();
    for i in 0..30 {
        let h = db.begin();
        db.insert(&h, "t", &row(i, i)).unwrap();
        if i % 7 == 3 {
            db.abort(h);
        } else {
            db.commit(h).unwrap();
        }
    }
    let straddler = db.begin();
    let straddler_id = straddler.id;
    db.update(&straddler, "t", &row(1, -1)).unwrap();
    sys.checkpoint().unwrap();
    // After it: more of the same, a second table, and writers that die.
    db.create_table("u", schema()).unwrap();
    for i in 0..400 {
        let h = db.begin();
        db.insert(&h, "u", &row(i, i)).unwrap();
        if i % 5 == 0 {
            db.abort(h);
        } else {
            db.commit(h).unwrap();
        }
    }
    db.commit(straddler).unwrap();
    let open = db.begin();
    db.insert(&open, "u", &row(1000, 0)).unwrap();
    p.pipeline().flush().unwrap();

    let pull = sys.fabric().xlog.pull_blocks(Lsn::ZERO, usize::MAX, None).unwrap();
    let log: Vec<SequencedRecord> = pull.blocks.iter().flat_map(|b| b.records().unwrap()).collect();
    let ckpt = log
        .iter()
        .position(|r| matches!(r.record.payload, LogPayload::Checkpoint { .. }))
        .expect("the log holds the checkpoint");
    let (before, from_ckpt) = log.split_at(ckpt);
    assert!(find_last_checkpoint(before).unwrap().is_none());
    // Every transaction the log names, and a few it never saw.
    let mut txns: BTreeSet<u64> = log.iter().map(|r| r.record.txn.raw()).collect();
    let last = *txns.last().unwrap();
    txns.extend(last + 1..last + 4);

    for (name, records, dies) in
        [("no checkpoint", before, straddler_id), ("begins at its checkpoint", from_ckpt, open.id)]
    {
        let (oracle, oracle_next_page, oracle_died) = slice_analysis(records);
        let tm = TxnManager::new();
        let mut analyzer = Analyzer::new(&tm);
        for rec in records {
            analyzer.feed(rec).unwrap();
        }
        let a = analyzer.into_analysis();
        assert_eq!(a.next_page_id, oracle_next_page, "{name}: next_page_id");
        assert_eq!(a.died, oracle_died, "{name}: died");
        assert_eq!(tm.table_len(), oracle.table_len(), "{name}: table size");
        for &t in &txns {
            let (got, want) = (tm.resolve(TxnId::new(t)), oracle.resolve(TxnId::new(t)));
            assert_eq!(got, want, "{name}: txn {t}");
        }
        assert!(a.died.contains(&dies), "{name}: the writer left open dies");
        assert!(a.next_page_id > 0, "{name}: the log allocates pages");
    }
    sys.shutdown();
}
