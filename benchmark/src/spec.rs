//! The fixed part of the benchmark: the workloads and their sizes. Nothing
//! here is derived from the host at run time.

use socrates::SocratesConfig;

/// Load threads per workload. The host this was sized on has 2 vCPUs;
/// the number is a constant so that two hosts run the same experiment.
pub const CLIENTS: usize = 2;
/// The one table every workload uses: `bench(k INT pk, v STR, n INT)`.
pub const TABLE: &str = "bench";
/// Length of the `v` pad column in bytes.
pub const PAD_LEN: usize = 200;
/// Rows per load transaction during set-up.
pub const LOAD_BATCH: u32 = 500;
/// Keys a `scan_range` op covers.
pub const SCAN_LEN: u32 = 100;
/// Back-to-back repetitions of the measured phase on one deployment; every
/// figure is that of the median repetition, so one burst of interference
/// or one stall does not decide a run.
pub const REPS: usize = 3;
/// Set-ups timed per run: `setup_s` is their median. Only the last one
/// runs in the measuring process; see `other_setups` in main.rs.
pub const SETUPS: usize = 3;
/// `--seconds` when the flag is absent (`run_seconds` in BENCHMARK.json).
pub const DEFAULT_SECONDS: u64 = 30;

/// What one load thread does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// `begin` + `update` of one key in the client's stripe + `commit`, on the primary.
    Writer,
    /// `get` of one key on the primary, under one snapshot opened in set-up
    /// (a `begin` on the primary appends a log record; this keeps the log idle).
    Reader,
    /// `begin` + (`get` | `scan_range`) + `commit` on secondary 0.
    SecondaryReader,
}

/// How ops are issued.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Pacing {
    /// Each client sends its next op when the previous one returned. The
    /// op count per client is `ops_per_s × --seconds`, split over the
    /// repetitions: fixed work, sized so that the measured phase lasts
    /// about `--seconds` at the commit that added the benchmark.
    Closed { ops_per_s: u32 },
    /// Each client follows its own Poisson schedule at `rate_hz` for
    /// `--seconds`; latency counts from the scheduled time.
    Open { rate_hz: u32 },
}

/// One workload.
pub struct Workload {
    pub name: &'static str,
    pub rows: u32,
    pub roles: [Role; CLIENTS],
    pub pacing: Pacing,
    /// Warm-up ops per client, part of set-up.
    pub warmup_ops: u32,
    /// Writers draw keys from the first `1/hot_div` of their stripe.
    pub hot_div: u32,
    config: fn(u64) -> SocratesConfig,
}

impl Workload {
    /// The deployment configuration, from presets and builder methods only.
    pub fn config(&self, seed: u64) -> SocratesConfig {
        (self.config)(seed)
    }

    /// Whether the deployment has a secondary.
    pub fn has_secondary(&self) -> bool {
        self.roles.contains(&Role::SecondaryReader)
    }
}

/// The workloads. The first [`GATED`] are the ones `/BENCHMARK.json` names:
/// every latency they report is dominated by a modelled device that is
/// waited out, so it repeats on a shared host. The rest run the same code
/// on instant devices, where every figure is CPU time on 2 contended
/// vCPUs; they are for paired comparisons by hand (`tool.py aa`), not for
/// the driver. Sizes and the reason for each are in README.md.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "commit_xio",
        rows: 20_000,
        roles: [Role::Writer, Role::Writer],
        pacing: Pacing::Closed { ops_per_s: 200 },
        warmup_ops: 100,
        hot_div: 1,
        config: |seed| SocratesConfig::realistic(seed).with_secondaries(0).with_cache(16384, 0),
    },
    Workload {
        name: "read_remote",
        rows: 20_000,
        roles: [Role::Reader, Role::Reader],
        pacing: Pacing::Closed { ops_per_s: 2_000 },
        warmup_ops: 1_000,
        hot_div: 1,
        config: |seed| SocratesConfig::realistic(seed).with_secondaries(0).with_cache(64, 128),
    },
    Workload {
        name: "mixed_open",
        rows: 20_000,
        roles: [Role::Writer, Role::SecondaryReader],
        pacing: Pacing::Open { rate_hz: 100 },
        warmup_ops: 100,
        hot_div: 100,
        config: |seed| SocratesConfig::realistic(seed).with_secondaries(1).with_cache(64, 256),
    },
    Workload {
        name: "commit_instant",
        rows: 100_000,
        roles: [Role::Writer, Role::Writer],
        pacing: Pacing::Closed { ops_per_s: 6_500 },
        warmup_ops: 4_000,
        hot_div: 1,
        config: |_| SocratesConfig::fast_test().with_cache(16384, 0),
    },
    Workload {
        name: "read_instant",
        rows: 200_000,
        roles: [Role::Reader, Role::Reader],
        pacing: Pacing::Closed { ops_per_s: 7_000 },
        warmup_ops: 4_000,
        hot_div: 1,
        config: |_| SocratesConfig::fast_test().with_cache(256, 1024),
    },
];

/// How many of [`WORKLOADS`], from the front, `/BENCHMARK.json` names.
pub const GATED: usize = 3;

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_exactly_the_gated_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        for (i, w) in WORKLOADS.iter().enumerate() {
            let named = json.contains(&format!("\"name\": \"{}\"", w.name));
            assert_eq!(named, i < GATED, "{}", w.name);
        }
        assert!(json.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }
}
