//! Everything that touches the product: set-up, the op executor, the
//! drain that ends a repetition, and the durability check. Only the API
//! surface listed in README.md is used.

use crate::client::{run_client, Exec, Samples};
use crate::gen::{key_range, Kind, Op};
use crate::spec::{Role, Workload, CLIENTS, LOAD_BATCH, PAD_LEN, SCAN_LEN, TABLE};
use crate::trace::{
    now_ns, OpTrace, Tracer, ENGINE_EXEC, ENGINE_GET, ENGINE_SCAN, WAL_COMMIT_CALL,
};
use socrates::{Primary, Secondary, Socrates};
use socrates_common::Lsn;
use socrates_engine::{ColumnType, Database, Row, Schema, TxnHandle, Value};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest any single wait on the product may take.
const WAIT: Duration = Duration::from_secs(120);

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The `v` column of row `k`: the key in hex, padded to [`PAD_LEN`] bytes,
/// so a row served under the wrong key is caught.
fn pad(k: u32) -> String {
    let mut s = String::with_capacity(PAD_LEN);
    s.push_str(&format!("{k:08x}"));
    s.extend(std::iter::repeat_n('x', PAD_LEN - 8));
    s
}

/// Whether `v` is [`pad`]`(k)`, without building it.
fn is_pad(v: &str, k: u32) -> bool {
    v.len() == PAD_LEN
        && v.is_char_boundary(8)
        && u32::from_str_radix(&v[..8], 16) == Ok(k)
        && v.bytes().skip(8).all(|b| b == b'x')
}

fn row(k: u32, n: u32) -> [Value; 3] {
    [Value::Int(k as i64), Value::Str(pad(k)), Value::Int(n as i64)]
}

/// Check a row read back for key `k` and return its `n`.
fn check_row(row: Option<&Row>, k: u32, min_n: u32) -> Res<u32> {
    match row.map(|r| r.as_slice()) {
        Some([Value::Int(key), Value::Str(v), Value::Int(n)])
            if *key == k as i64 && is_pad(v, k) && *n >= min_n as i64 =>
        {
            Ok(*n as u32)
        }
        other => Err(format!("key {k}: expected n >= {min_n} with an intact pad, got {other:?}")),
    }
}

/// A key and the range its `n` must lie in after the run.
pub struct Expect {
    pub key: u32,
    pub min_n: u32,
    pub max_n: u32,
}

/// One client's connection to the deployment and what it remembers.
pub struct DbExec {
    role: Role,
    primary: Arc<Primary>,
    secondary: Option<Arc<Secondary>>,
    /// The reader's one snapshot on the primary.
    snapshot: Option<TxnHandle>,
    first_key: u32,
    /// Writer: the last `n` sent per key of its range. Readers: the last `n` seen per key.
    last_n: Vec<u32>,
    /// Keys with a failed update: their `n` may or may not have advanced.
    unsure: HashSet<u32>,
}

impl DbExec {
    fn new(w: &Workload, c: usize, sys: &Socrates) -> Res<DbExec> {
        let role = w.roles[c];
        let primary = sys.primary().map_err(err("primary"))?;
        let secondary = match role {
            Role::SecondaryReader => Some(sys.secondary(0).map_err(err("secondary"))?),
            _ => None,
        };
        let snapshot = (role == Role::Reader).then(|| primary.db().begin());
        let (first_key, count) = key_range(w, c);
        Ok(DbExec {
            role,
            primary,
            secondary,
            snapshot,
            first_key,
            last_n: vec![0; count as usize],
            unsure: HashSet::new(),
        })
    }

    fn slot(&mut self, k: u32) -> &mut u32 {
        &mut self.last_n[(k - self.first_key) as usize]
    }

    fn update(&mut self, k: u32, t: &mut OpTrace) -> Res<()> {
        let n = *self.slot(k) + 1;
        *self.slot(k) = n;
        let db = self.primary.db();
        let a = t.mark();
        let h = db.begin();
        let updated = db.update(&h, TABLE, &row(k, n));
        let b = t.mark();
        t.child(ENGINE_EXEC, a, b);
        let committed = db.commit(h);
        t.child(WAL_COMMIT_CALL, b, t.mark());
        match (updated, committed) {
            (Ok(true), Ok(())) => Ok(()),
            (u, c) => {
                self.unsure.insert(k);
                Err(format!("update of key {k}: update {u:?}, commit {c:?}"))
            }
        }
    }

    fn read(&mut self, op: &Op, t: &mut OpTrace) -> Res<()> {
        let db: &Database = match &self.secondary {
            Some(s) => s.db(),
            None => self.primary.db(),
        };
        let fresh = self.snapshot.is_none().then(|| db.begin());
        let h = fresh.as_ref().or(self.snapshot.as_ref()).expect("a snapshot or a fresh txn");
        let a = t.mark();
        let rows = if op.kind == Kind::Scan {
            let (lo, hi) = (Value::Int(op.key as i64), Value::Int((op.key + SCAN_LEN) as i64));
            let r = db.scan_range(h, TABLE, &[lo], &[hi], SCAN_LEN as usize);
            t.child(ENGINE_SCAN, a, t.mark());
            r.map_err(err("scan_range"))?
        } else {
            let r = db.get(h, TABLE, &[Value::Int(op.key as i64)]);
            t.child(ENGINE_GET, a, t.mark());
            r.map_err(err("get"))?.into_iter().collect()
        };
        if let Some(h) = fresh {
            db.commit(h).map_err(err("read commit"))?;
        }
        let want = if op.kind == Kind::Scan { SCAN_LEN } else { 1 };
        if rows.len() != want as usize {
            return Err(format!(
                "{:?} at key {}: {} rows, not {want}",
                op.kind,
                op.key,
                rows.len()
            ));
        }
        for (k, r) in (op.key..).zip(&rows) {
            let seen = *self.slot(k);
            *self.slot(k) = check_row(Some(r), k, seen)?;
        }
        Ok(())
    }

    /// What a fresh primary must return after the run: exactly the last
    /// acknowledged `n` for every key a writer touched, and nothing older
    /// than what a reader saw (checked on a strided sample of ~2000 keys).
    fn expectations(&self) -> Vec<Expect> {
        let keys = (self.first_key..).zip(&self.last_n);
        match self.role {
            Role::Writer => keys
                .filter(|(_, &n)| n > 0)
                .map(|(key, &n)| {
                    let min_n = if self.unsure.contains(&key) { 0 } else { n };
                    Expect { key, min_n, max_n: n }
                })
                .collect(),
            Role::Reader | Role::SecondaryReader => keys
                .step_by(self.last_n.len().div_ceil(2000))
                .map(|(key, &n)| Expect { key, min_n: n, max_n: u32::MAX })
                .collect(),
        }
    }
}

impl Exec for DbExec {
    fn exec(&mut self, op: &Op, t: &mut OpTrace) -> Res<()> {
        match op.kind {
            Kind::Update => self.update(op.key, t),
            Kind::Get | Kind::Scan => self.read(op, t),
        }
    }
}

/// How long the parts of one set-up took.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    pub total_s: f64,
    pub launch_ms: f64,
    pub load_rows_per_s: f64,
}

/// A loaded, settled and warmed-up deployment with its two clients.
pub struct Deployment {
    pub sys: Socrates,
    pub clients: Vec<DbExec>,
}

/// Launch, create and load the table, wait until every tier has caught
/// up, and run the warm-up ops.
pub fn set_up(
    w: &Workload,
    seed: u64,
    warmup: &[Vec<Op>; CLIENTS],
) -> Res<(Deployment, SetupTimes)> {
    let t0 = Instant::now();
    let sys = Socrates::launch(w.config(seed)).map_err(err("launch"))?;
    let launch_ms = t0.elapsed().as_secs_f64() * 1e3;
    let primary = sys.primary().map_err(err("primary"))?;
    let db = primary.db();
    let columns = vec![
        ("k".to_string(), ColumnType::Int),
        ("v".to_string(), ColumnType::Str),
        ("n".to_string(), ColumnType::Int),
    ];
    db.create_table(TABLE, Schema::new(columns, 1)).map_err(err("create_table"))?;
    let t_load = Instant::now();
    for first in (0..w.rows).step_by(LOAD_BATCH as usize) {
        let h = db.begin();
        for k in first..(first + LOAD_BATCH).min(w.rows) {
            db.insert(&h, TABLE, &row(k, 0)).map_err(err("insert"))?;
        }
        db.commit(h).map_err(err("load commit"))?;
    }
    let load_rows_per_s = w.rows as f64 / t_load.elapsed().as_secs_f64();
    drain(&sys)?;
    let mut clients =
        (0..CLIENTS).map(|c| DbExec::new(w, c, &sys)).collect::<Res<Vec<DbExec>>>()?;
    let warm = run_rep(&mut clients, warmup, false, u64::MAX, None);
    if let Some(e) = warm.iter().find_map(|s| s.first_error.clone()) {
        return Err(format!("warm-up: {e}"));
    }
    drain(&sys)?;
    let times = SetupTimes { total_s: t0.elapsed().as_secs_f64(), launch_ms, load_rows_per_s };
    Ok((Deployment { sys, clients }, times))
}

/// Run one repetition: both clients start together on their own threads.
/// `limit_ns` bounds how long ops keep being sent.
pub fn run_rep(
    clients: &mut [DbExec],
    ops: &[Vec<Op>; CLIENTS],
    open: bool,
    limit_ns: u64,
    tracers: Option<&mut [Tracer]>,
) -> Vec<Samples> {
    // A short lead so that both threads are waiting when the clock starts.
    let start_ns = now_ns() + 2_000_000;
    let deadline_ns = start_ns.saturating_add(limit_ns);
    let mut tracers: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => clients.iter().map(|_| None).collect(),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(ops)
            .zip(tracers.drain(..))
            .map(|((exec, ops), tracer)| {
                scope.spawn(move || {
                    let now = now_ns();
                    if now < start_ns {
                        std::thread::sleep(Duration::from_nanos(start_ns - now));
                    }
                    run_client(ops, open, start_ns, deadline_ns, exec, tracer)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

/// How far each consumer of the log is behind the primary's hardened LSN, in bytes.
#[derive(Clone, Copy, Default, Debug)]
pub struct Lags {
    pub apply: u64,
    pub destage: u64,
    pub secondary: u64,
}

/// Read the lags through the watermark accessors.
pub fn lags(sys: &Socrates) -> Res<Lags> {
    let hardened = sys.primary().map_err(err("primary"))?.pipeline().hardened_lsn();
    let behind = |lsn: Lsn| hardened.offset().saturating_sub(lsn.offset());
    let fabric = sys.fabric();
    let mut applied = Lsn::MAX;
    for p in fabric.partition_ids() {
        if let Some(h) = fabric.partition(p) {
            for s in &h.servers {
                applied = applied.min(s.applied_lsn());
            }
        }
    }
    Ok(Lags {
        apply: behind(applied),
        destage: behind(fabric.xlog.destaged_lsn()),
        secondary: sys.secondary(0).map_or(0, |s| behind(s.applied_lsn())),
    })
}

/// How long the tiers took to catch up after the last acknowledged op.
#[derive(Clone, Copy, Default, Debug)]
pub struct Drain {
    pub apply_ms: f64,
    pub destage_ms: f64,
}

/// Wait until page servers have applied, XLOG has destaged and the
/// secondary has applied everything the primary has hardened.
pub fn drain(sys: &Socrates) -> Res<Drain> {
    let t0 = Instant::now();
    let mut out = Drain::default();
    let (mut applied, mut destaged) = (false, false);
    loop {
        let l = lags(sys)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if !applied && l.apply == 0 {
            (applied, out.apply_ms) = (true, ms);
        }
        if !destaged && l.destage == 0 {
            (destaged, out.destage_ms) = (true, ms);
        }
        if applied && destaged && l.secondary == 0 {
            return Ok(out);
        }
        if t0.elapsed() > WAIT {
            return Err(format!("tiers did not catch up within {WAIT:?}: {l:?}"));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Kill the primary, fail over, and read every expected key back from
/// the new primary. Returns `(failover_ms, deployment, keys checked)`.
pub fn fail_over_and_verify(dep: Deployment) -> Res<(f64, Socrates, usize)> {
    let Deployment { sys, clients } = dep;
    let expect: Vec<Expect> = clients.iter().flat_map(DbExec::expectations).collect();
    // The clients hold the old primary; it must be gone before the kill.
    drop(clients);
    let t0 = Instant::now();
    sys.kill_primary();
    let primary = sys.failover().map_err(err("failover"))?;
    let failover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let db = primary.db();
    let h = db.begin();
    for e in &expect {
        let got = db.get(&h, TABLE, &[Value::Int(e.key as i64)]).map_err(err("read-back"))?;
        let n = check_row(got.as_ref(), e.key, e.min_n)?;
        if n > e.max_n {
            return Err(format!("key {}: n = {n} after failover, last sent {}", e.key, e.max_n));
        }
    }
    db.commit(h).map_err(err("read-back commit"))?;
    Ok((failover_ms, sys, expect.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pad_names_its_key() {
        for k in [0, 7, 199_999, u32::MAX] {
            assert_eq!(pad(k).len(), PAD_LEN);
            assert!(is_pad(&pad(k), k));
            assert!(!is_pad(&pad(k), k.wrapping_add(1)));
        }
        assert!(!is_pad(&pad(5)[1..], 5));
        assert!(!is_pad(&pad(5).replace('x', "y"), 5));
        assert!(check_row(Some(&row(5, 3).to_vec()), 5, 3).is_ok());
        assert!(check_row(Some(&row(5, 2).to_vec()), 5, 3).is_err());
        assert!(check_row(Some(&row(6, 3).to_vec()), 5, 3).is_err());
        assert!(check_row(None, 5, 0).is_err());
    }
}
