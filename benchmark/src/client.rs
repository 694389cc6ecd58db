//! The load loop of one client thread: issue pre-generated ops in a
//! closed or an open loop, time each one, count failures.

use crate::gen::{Kind, Op};
use crate::trace::{now_ns, OpTrace, Tracer, OP};
use std::time::Duration;

/// Executes one op against the system under test (or a mock, in tests).
pub trait Exec {
    /// Run `op`, marking layer boundaries on `t`. `Err` counts the op as failed.
    fn exec(&mut self, op: &Op, t: &mut OpTrace) -> Result<(), String>;
}

/// One completed op.
#[derive(Clone, Copy, Debug)]
pub struct Done {
    pub kind: Kind,
    /// What the user waited: from the scheduled time in an open loop,
    /// from the send time in a closed loop.
    pub user_ns: u64,
    /// From the actual send time.
    pub service_ns: u64,
    /// How late the generator sent the op (open loop only).
    pub late_ns: u64,
    /// Whether harness spans were recorded around this op.
    pub traced: bool,
    /// When the op returned, on the [`now_ns`] clock.
    pub end_ns: u64,
}

/// What one client did in one repetition.
#[derive(Default, Debug)]
pub struct Samples {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub done: Vec<Done>,
}

/// Issue `ops` from `start_ns` (on the [`now_ns`] clock). In an open loop
/// each op waits for its scheduled time and its latency counts from that
/// time. No op is sent at or after `deadline_ns`; ops not sent are not
/// counted as attempted. With a tracer, every second op is traced, so the
/// traced and untraced halves of one run can be compared.
pub fn run_client(
    ops: &[Op],
    open: bool,
    start_ns: u64,
    deadline_ns: u64,
    exec: &mut impl Exec,
    mut tracer: Option<&mut Tracer>,
) -> Samples {
    let mut out = Samples { done: Vec::with_capacity(ops.len()), ..Samples::default() };
    let mut t = OpTrace::new(false);
    for (i, op) in ops.iter().enumerate() {
        let due = start_ns + op.due_ns;
        let mut begin = now_ns();
        if open && begin < due {
            std::thread::sleep(Duration::from_nanos(due - begin));
            begin = now_ns();
        }
        if begin >= deadline_ns {
            break;
        }
        let traced = tracer.is_some() && i % 2 == 0;
        t.arm(traced);
        out.attempted += 1;
        let result = exec.exec(op, &mut t);
        let end = now_ns();
        if let (true, Some(tr)) = (traced, tracer.as_deref_mut()) {
            tr.record(OP, begin, end, &mut t);
        }
        match result {
            Ok(()) => out.done.push(Done {
                kind: op.kind,
                user_ns: end - if open { due } else { begin },
                service_ns: end - begin,
                late_ns: if open { begin - due } else { 0 },
                traced,
                end_ns: end,
            }),
            Err(e) => {
                out.failed += 1;
                out.first_error.get_or_insert(e);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;

    /// Returns at once, except for one op that stalls.
    struct Mock {
        calls: usize,
        stall_at: usize,
        stall: Duration,
    }

    impl Exec for Mock {
        fn exec(&mut self, _: &Op, _: &mut OpTrace) -> Result<(), String> {
            self.calls += 1;
            if self.calls == self.stall_at {
                std::thread::sleep(self.stall);
            }
            Ok(())
        }
    }

    fn p99(samples: &Samples, f: impl Fn(&Done) -> u64) -> u64 {
        let mut v: Vec<u64> = samples.done.iter().map(f).collect();
        v.sort_unstable();
        percentile(&v, 99).unwrap()
    }

    #[test]
    fn a_stall_raises_intended_latency_but_not_service_latency() {
        // 400 ops, one per millisecond; op 50 stalls for 50 ms, so the
        // ~50 ops scheduled behind it are sent late.
        let ops: Vec<Op> =
            (0..400).map(|i| Op { due_ns: i * 1_000_000, kind: Kind::Get, key: 0 }).collect();
        let mut mock = Mock { calls: 0, stall_at: 50, stall: Duration::from_millis(50) };
        let s = run_client(&ops, true, now_ns(), u64::MAX, &mut mock, None);
        assert_eq!((s.attempted, s.failed, s.done.len()), (400, 0, 400));
        let intended = p99(&s, |d| d.user_ns);
        let service = p99(&s, |d| d.service_ns);
        assert!(intended > 30_000_000, "intended p99 {intended} ns does not show the stall");
        assert!(service < 10_000_000, "service p99 {service} ns should hide the stall");
        assert!(p99(&s, |d| d.late_ns) > 30_000_000);
    }

    #[test]
    fn closed_loop_failures_are_counted_and_carry_no_latency() {
        struct FailEveryThird(u64);
        impl Exec for FailEveryThird {
            fn exec(&mut self, _: &Op, _: &mut OpTrace) -> Result<(), String> {
                self.0 += 1;
                if self.0.is_multiple_of(3) {
                    Err("boom".into())
                } else {
                    Ok(())
                }
            }
        }
        let ops = vec![Op { due_ns: 0, kind: Kind::Update, key: 1 }; 9];
        let mut tracer = Tracer::new(0);
        let s =
            run_client(&ops, false, now_ns(), u64::MAX, &mut FailEveryThird(0), Some(&mut tracer));
        assert_eq!((s.attempted, s.failed, s.done.len()), (9, 3, 6));
        assert_eq!(s.first_error.as_deref(), Some("boom"));
        assert!(s.done.iter().all(|d| d.user_ns == d.service_ns && d.late_ns == 0));
        assert_eq!(tracer.spans.len(), 5); // ops 0, 2, 4, 6, 8
    }

    #[test]
    fn nothing_is_sent_after_the_deadline() {
        let ops = vec![Op { due_ns: 0, kind: Kind::Get, key: 0 }; 5];
        let mut mock = Mock { calls: 0, stall_at: 0, stall: Duration::ZERO };
        let s = run_client(&ops, false, now_ns(), 0, &mut mock, None);
        assert_eq!((s.attempted, mock.calls), (0, 0));
    }
}
