//! Acceptance properties of the layered page-version store.
//!
//! Two end-to-end claims ride on the L0/L1 layer design:
//!
//! 1. Resolution is path-independent: over random interleavings of writes,
//!    checkpoints, compactions, and GC passes, `GetPage(X, lsn)` answers
//!    for any LSN between the GC horizon and the applied frontier exactly
//!    as a replacement server re-deriving the partition from XStore + log
//!    would answer — images and merged deltas are an optimization, never
//!    a semantic. Every checkpoint along the way leaves the data blob
//!    exactly the partition as of the checkpointed LSN. The property runs
//!    once with the default retention (GC finds nothing to retire) and
//!    once with a window small enough that GC retires layers mid-run.
//! 2. Branches are zero-copy and isolated: a branch created at `lsn_b`
//!    serves all pre-branch history from the parent's own layer `Arc`s,
//!    keeps serving it after the parent is crashed mid-compaction, and
//!    divergent writes never leak in either direction.

use socrates::{Socrates, SocratesConfig};
use socrates_common::fault::sites;
use socrates_common::{Error, Lsn, PageId};
use socrates_engine::value::{ColumnType, Schema, Value};
use socrates_pageserver::PageServer;
use socrates_storage::pageops::PageOp;
use socrates_storage::{Page, PAGE_SIZE};
use socrates_xstore::XStore;
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

/// How a probe resolved: a canonical page image, or which error class.
#[derive(PartialEq, Debug)]
enum Probe {
    Version(Lsn, Vec<u8>),
    NoVersion,
}

fn probe(ps: &PageServer, page: PageId, lsn: Lsn) -> Probe {
    match ps.get_page_at(page, lsn) {
        Ok(p) => Probe::Version(p.page_lsn(), canon(&p)),
        Err(Error::NotFound(_)) => Probe::NoVersion,
        Err(e) => panic!("probe ({page}, {lsn}) failed unexpectedly: {e}"),
    }
}

/// The data blob is exactly the partition as of the checkpointed LSN:
/// each page's blob copy is its version at that LSN, and a page with no
/// version there is an all-zero hole.
fn assert_blob_is_exact(xstore: &XStore, ps: &PageServer, seed: u64) {
    let at = ps.checkpointed_lsn();
    let spec = ps.spec();
    let (data_blob, _) = ps.blobs();
    let len = xstore.blob_len(data_blob).unwrap();
    for off in 0..spec.span {
        let page = PageId::new(spec.base_page + off);
        let pos = off * PAGE_SIZE as u64;
        let bytes = if pos + PAGE_SIZE as u64 <= len {
            xstore.read_at(data_blob, pos, PAGE_SIZE).unwrap()
        } else {
            vec![0; PAGE_SIZE]
        };
        let shipped = if bytes.iter().all(|&b| b == 0) {
            Probe::NoVersion
        } else {
            let p = Page::from_io_bytes(page, &bytes).unwrap();
            Probe::Version(p.page_lsn(), canon(&p))
        };
        assert_eq!(
            shipped,
            probe(ps, page, at),
            "seed {seed}: the blob copy of {page} is not its version at the checkpointed {at}"
        );
    }
}

/// One seeded run of the interleaving property; `retention` overrides
/// the default retention window.
fn interleaving_resolves_like_replay(seed: u64, retention: Option<u64>) {
    let mut config = SocratesConfig::fast_test().with_layer_knobs(256, usize::MAX >> 1);
    if let Some(window) = retention {
        config = config.with_retention_window(window);
    }
    let sys = Socrates::launch(config).unwrap();
    let p = sys.primary().unwrap();
    let db = p.db();
    db.create_table("t", schema()).unwrap();
    let h = db.begin();
    for i in 0..30 {
        db.insert(&h, "t", &row(i, 0)).unwrap();
    }
    db.commit(h).unwrap();
    let fabric = sys.fabric();
    let pid = fabric.partition_ids()[0];
    let spec = fabric.partition_spec(pid);
    let ps = Arc::clone(&fabric.partition(pid).unwrap().servers[0]);
    let mut rng = socrates_common::rng::Rng::new(seed);

    // Random interleaving: mostly writes, with checkpoints, explicit
    // compaction passes, and GC passes mixed in. At the default retention
    // GC exercises the no-op edge; with a small window it retires layers,
    // and every witnessed version at or above the new floor must still
    // resolve to the same bytes.
    let mut compactions = 0;
    let mut recorded: Vec<(PageId, Lsn, Probe)> = Vec::new();
    for _ in 0..40 {
        match rng.gen_range(10) {
            0..=5 => {
                let h = db.begin();
                for _ in 0..=rng.gen_range(8) {
                    let id = rng.gen_range(30) as i64;
                    db.update(&h, "t", &row(id, rng.gen_range(1 << 20) as i64)).unwrap();
                }
                db.commit(h).unwrap();
                let lsn = p.pipeline().hardened_lsn();
                fabric.wait_applied(lsn, Duration::from_secs(10)).unwrap();
                // Witness this frontier on a handful of random pages.
                for _ in 0..4 {
                    let page = PageId::new(spec.base_page + rng.gen_range(48));
                    recorded.push((page, lsn, probe(&ps, page, lsn)));
                }
            }
            6 | 7 => {
                sys.checkpoint().unwrap();
                assert_blob_is_exact(&fabric.xstore, &ps, seed);
            }
            8 => compactions += usize::from(ps.compact_blocking().unwrap()),
            _ => {
                let retired = ps.gc().unwrap();
                if retention.is_none() {
                    assert_eq!(retired, None, "seed {seed}: the default window retired history");
                }
                let floor = ps.gc_floor_lsn();
                for (page, lsn, want) in recorded.iter().filter(|r| r.1 >= floor) {
                    assert_eq!(
                        probe(&ps, *page, *lsn),
                        *want,
                        "seed {seed}: ({page}, {lsn}) changed across a GC to floor {floor}"
                    );
                }
            }
        }
    }
    if retention.is_some() {
        assert!(
            ps.metrics().gc_layers_dropped.get() > 0,
            "seed {seed}: GC never retired a layer; the retention run is vacuous"
        );
    }
    if compactions == 0 {
        // The draw can miss the compaction op; run one so every seed
        // exercises resolution through an L1 image.
        compactions += usize::from(ps.compact_blocking().unwrap());
    }
    assert!(compactions > 0, "seed {seed}: nothing sealed, nothing compacted");
    let frontier = ps.applied_lsn();

    // Random historical probes across the whole retained range.
    let floor = ps.gc_floor_lsn().offset().max(1);
    for _ in 0..200 {
        let page = PageId::new(spec.base_page + rng.gen_range(48));
        let lsn = Lsn::new(floor + rng.gen_range(frontier.offset() + 1 - floor));
        recorded.push((page, lsn, probe(&ps, page, lsn)));
    }

    // Replace the server: the successor re-derives everything from the
    // checkpoint blobs plus the log. Its history floor is the checkpoint
    // watermark — log below it is insulated away — so versions at or
    // above the watermark must resolve identically; older ones may be
    // gone, but must never resolve to different bytes.
    let wm = ps.checkpointed_lsn();
    assert!(fabric.kill_partition(pid).is_some());
    fabric.restart_partition(pid).unwrap();
    fabric.wait_applied(frontier, Duration::from_secs(15)).unwrap();
    let replay = Arc::clone(&fabric.partition(pid).unwrap().servers[0]);
    let mut strict = 0;
    for (page, lsn, want) in &recorded {
        let got = probe(&replay, *page, *lsn);
        if *lsn >= wm {
            strict += 1;
            assert_eq!(
                got, *want,
                "seed {seed}: ({page}, {lsn}) resolves differently after re-derivation"
            );
        } else if matches!(got, Probe::Version(..)) {
            assert_eq!(got, *want, "seed {seed}: pre-watermark ({page}, {lsn}) rewrote history");
        }
    }
    assert!(strict > 0, "seed {seed}: no probe landed above the checkpoint watermark");
    sys.shutdown();
}

#[test]
fn random_interleavings_resolve_like_replay() {
    for seed in [11, 29, 47] {
        interleaving_resolves_like_replay(seed, None);
    }
}

#[test]
fn random_interleavings_resolve_like_replay_while_gc_retires_layers() {
    for seed in [11, 29, 47] {
        interleaving_resolves_like_replay(seed, Some(2048));
    }
}

/// The branch acceptance story, end to end through the fabric: zero-copy
/// sharing, two-way isolation, and survival of the parent's
/// mid-compaction crash.
#[test]
fn fabric_branches_share_history_and_survive_parent_crash() {
    let mut config = SocratesConfig::fast_test().with_layer_knobs(256, usize::MAX >> 1);
    config.fault_seed = 0xB4A9C;
    let sys = Socrates::launch(config).unwrap();
    let p = sys.primary().unwrap();
    let db = p.db();
    db.create_table("t", schema()).unwrap();
    for round in 0..4i64 {
        let h = db.begin();
        for i in 0..20 {
            db.insert(&h, "t", &row(round * 20 + i, round)).unwrap();
        }
        db.commit(h).unwrap();
    }
    let branch_point = p.pipeline().hardened_lsn();
    let fabric = sys.fabric();
    fabric.wait_applied(branch_point, Duration::from_secs(10)).unwrap();
    let pid = fabric.partition_ids()[0];
    let spec = fabric.partition_spec(pid);
    let parent = Arc::clone(&fabric.partition(pid).unwrap().servers[0]);

    let branch = fabric.branch_partition(pid, branch_point).unwrap();
    // Zero-copy: every branch layer is literally the parent's allocation.
    let branch_deltas = branch.layers().delta_layers();
    assert!(!branch_deltas.is_empty(), "the branch carried no history");
    for bl in &branch_deltas {
        assert!(
            parent.layers().delta_layers().iter().any(|pl| Arc::ptr_eq(pl, bl)),
            "branch delta layer not shared with parent"
        );
    }
    for bi in &branch.layers().image_layers() {
        assert!(parent.layers().image_layers().iter().any(|pi| Arc::ptr_eq(pi, bi)));
    }

    // Pre-branch history answers identically from both sides.
    let mut rng = socrates_common::rng::Rng::new(0xB7);
    let mut witnessed = Vec::new();
    for _ in 0..60 {
        let page = PageId::new(spec.base_page + rng.gen_range(48));
        let lsn = Lsn::new(1 + rng.gen_range(branch_point.offset()));
        let from_branch = probe(&branch, page, lsn);
        assert_eq!(probe(&parent, page, lsn), from_branch, "({page}, {lsn}) differs on branch");
        witnessed.push((page, lsn, from_branch));
    }

    // Divergence: the branch ingests a write the parent never sees, and
    // the parent's post-branch commits never reach the branch.
    let own_page = PageId::new(spec.base_page + spec.span - 1);
    let ingest_lsn = Lsn::new(branch_point.offset() + 1);
    branch
        .ingest(
            own_page,
            &PageOp::Format { ptype: socrates_storage::PageType::BTreeLeaf },
            ingest_lsn,
        )
        .unwrap();
    assert!(branch.get_page_at(own_page, ingest_lsn).is_ok());
    assert!(
        matches!(parent.get_page_at(own_page, parent.applied_lsn()), Err(Error::NotFound(_))),
        "divergent branch write leaked into the parent"
    );
    let h = db.begin();
    db.insert(&h, "t", &row(500, 500)).unwrap();
    db.commit(h).unwrap();
    let post = p.pipeline().hardened_lsn();
    fabric.wait_applied(post, Duration::from_secs(10)).unwrap();
    assert_eq!(
        branch.applied_lsn(),
        ingest_lsn,
        "parent commits moved the branch frontier; isolation is broken"
    );

    // Crash the parent mid-compaction. The branch holds its own Arcs to
    // the shared layers, so every witnessed version keeps serving.
    fabric.faults.install_spec("ps.compact.merge@always=crash").unwrap();
    assert!(matches!(parent.compact_blocking(), Err(Error::Unavailable(_))));
    assert_eq!(fabric.faults.fired_count(sites::PS_COMPACT_MERGE), 1);
    fabric.faults.clear();
    for (page, lsn, want) in &witnessed {
        assert_eq!(
            probe(&branch, *page, *lsn),
            *want,
            "({page}, {lsn}) lost on the branch after the parent crashed"
        );
    }

    // The parent's replacement re-derives its history; the branch's
    // divergent page stays its own.
    assert!(fabric.kill_partition(pid).is_some());
    fabric.restart_partition(pid).unwrap();
    fabric.wait_applied(post, Duration::from_secs(15)).unwrap();
    let revived = Arc::clone(&fabric.partition(pid).unwrap().servers[0]);
    for (page, lsn, want) in &witnessed {
        assert_eq!(probe(&revived, *page, *lsn), *want);
    }
    assert!(matches!(
        revived.get_page_at(own_page, revived.applied_lsn()),
        Err(Error::NotFound(_))
    ));

    // Dropping the branch releases the parent layers it pinned (and its
    // metrics-node gauges, which hold strong Arcs to the branch).
    let pinned = Arc::clone(&branch_deltas[0]);
    let before = Arc::strong_count(&pinned);
    assert!(fabric.drop_branch(&branch));
    assert!(!fabric.drop_branch(&branch), "double drop must be a no-op");
    drop(branch);
    drop(branch_deltas);
    assert!(
        Arc::strong_count(&pinned) < before,
        "dropping the branch released none of the layers it pinned"
    );
    sys.shutdown();
}
