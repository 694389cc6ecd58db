//! The fault registry's control plane: binding a hub, arming and
//! disarming rules, and parsing rule specs. Tests and operators run it
//! between phases, never on an I/O path, so unlike its parent module it
//! is not `soclint:hot`.

use super::*;

impl FaultRegistry {
    /// Bind a metrics hub: every site with rules (present and future)
    /// registers a `fault_injected_total.<site>` counter under `node`.
    pub fn bind_hub(&self, hub: &MetricsHub, node: NodeId) {
        // Lock order (soclint lock-order): `install` nests sites → hub,
        // so the hub guard must be released before `sites` is taken —
        // holding both in the opposite order here would be a deadlock. A
        // concurrent `install` between the two statements at worst
        // re-registers the same shared counter, which the hub's
        // keep-first semantics make a no-op.
        *self.inner.hub.lock() = Some((hub.clone(), node));
        for (name, site) in self.inner.sites.read().iter() {
            hub.register_counter(node, &format!("fault_injected_total.{name}"), site.fired());
        }
    }

    /// Arm `rule`. Rules at one site are evaluated in install order; the
    /// first whose schedule matches a call fires (one fault per call).
    pub fn install(&self, rule: FaultRule) {
        let mut sites = self.inner.sites.write();
        let n_sites = sites.len() as u64;
        let site = sites.entry(rule.site.clone()).or_insert_with(|| {
            let state = Arc::new(SiteState {
                calls: AtomicU64::new(0),
                fired: Arc::new(Counter::new()),
                rules: Vec::new(),
            });
            if let Some((hub, node)) = self.inner.hub.lock().as_ref() {
                hub.register_counter(
                    *node,
                    &format!("fault_injected_total.{}", rule.site),
                    Arc::clone(&state.fired),
                );
            }
            state
        });
        // Per-rule RNG seeded from (registry seed, site hash, rule index):
        // draws at one site never perturb another site's sequence, so the
        // schedule is deterministic per-site regardless of cross-site
        // interleaving.
        let mut h = 0xcbf29ce484222325u64; // FNV-1a over the site name
        for b in rule.site.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        let rule_seed = self
            .inner
            .seed
            .wrapping_add(h)
            .wrapping_add((site.rules.len() as u64) << 32)
            .wrapping_add(n_sites);
        let state = Arc::new(RuleState { rule, rng: Mutex::new(Rng::new(rule_seed)) });
        // SiteState is shared behind Arc; rebuild with the extra rule so
        // concurrent `check` calls see a consistent snapshot.
        let mut rules = site.rules.clone();
        rules.push(state);
        let replacement = Arc::new(SiteState {
            // ordering: relaxed — statistic carried across a spec reinstall
            calls: AtomicU64::new(site.calls.load(Ordering::Relaxed)),
            fired: Arc::clone(&site.fired),
            rules,
        });
        *site = replacement;
        self.inner.armed.fetch_add(1, Ordering::Relaxed); // ordering: relaxed — see is_armed
    }

    /// Disarm every rule (call counters, fired counters, and the event log
    /// survive so post-window assertions still see the history).
    pub fn clear(&self) {
        let mut sites = self.inner.sites.write();
        let mut disarmed = 0usize;
        for site in sites.values_mut() {
            disarmed += site.rules.len();
            let replacement = Arc::new(SiteState {
                // ordering: relaxed — statistic carried across a spec reinstall
                calls: AtomicU64::new(site.calls.load(Ordering::Relaxed)),
                fired: Arc::clone(&site.fired),
                rules: Vec::new(),
            });
            *site = replacement;
        }
        self.inner.armed.fetch_sub(disarmed, Ordering::Relaxed); // ordering: relaxed — see is_armed
    }

    /// Install rules from a spec string: `site@schedule=action` clauses
    /// separated by `;`. Returns the number of rules installed.
    ///
    /// Schedules: `nth:N`, `every:N`, `first:N`, `p:0.01`,
    /// `lsn:FROM..TO`, `always`. Actions: `error:unavailable`,
    /// `error:timeout`, `error:io`, `latency:500us` (or `ms`/`s`),
    /// `drop`, `crash`.
    pub fn install_spec(&self, spec: &str) -> Result<usize> {
        let mut n = 0;
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            self.install(parse_clause(clause)?);
            n += 1;
        }
        Ok(n)
    }
}

fn parse_clause(clause: &str) -> Result<FaultRule> {
    let bad = |what: &str| Error::InvalidArgument(format!("fault spec '{clause}': {what}"));
    let (site, rest) =
        clause.split_once('@').ok_or_else(|| bad("expected site@schedule=action"))?;
    let (sched, action) = rest.split_once('=').ok_or_else(|| bad("expected schedule=action"))?;
    let schedule = match sched.split_once(':') {
        Some(("nth", n)) => FaultSchedule::Nth(n.parse().map_err(|_| bad("bad nth count"))?),
        Some(("every", n)) => {
            FaultSchedule::EveryNth(n.parse().map_err(|_| bad("bad every count"))?)
        }
        Some(("first", n)) => FaultSchedule::FirstN(n.parse().map_err(|_| bad("bad first count"))?),
        Some(("p", p)) => {
            let p: f64 = p.parse().map_err(|_| bad("bad probability"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(bad("probability outside [0, 1]"));
            }
            FaultSchedule::Probability(p)
        }
        Some(("lsn", range)) => {
            let (from, to) = range.split_once("..").ok_or_else(|| bad("bad lsn range"))?;
            FaultSchedule::LsnWindow {
                from: Lsn::new(from.parse().map_err(|_| bad("bad lsn range start"))?),
                to: Lsn::new(to.parse().map_err(|_| bad("bad lsn range end"))?),
            }
        }
        None if sched == "always" => FaultSchedule::Always,
        _ => return Err(bad("unknown schedule")),
    };
    let action = match action.split_once(':') {
        Some(("error", kind)) => FaultAction::Error(match kind {
            "unavailable" => FaultErrorKind::Unavailable,
            "timeout" => FaultErrorKind::Timeout,
            "io" => FaultErrorKind::Io,
            _ => return Err(bad("unknown error kind")),
        }),
        Some(("latency", dur)) => {
            let us = if let Some(v) = dur.strip_suffix("us") {
                v.parse::<u64>().map_err(|_| bad("bad latency"))?
            } else if let Some(v) = dur.strip_suffix("ms") {
                v.parse::<u64>().map_err(|_| bad("bad latency"))? * 1_000
            } else if let Some(v) = dur.strip_suffix('s') {
                v.parse::<u64>().map_err(|_| bad("bad latency"))? * 1_000_000
            } else {
                return Err(bad("latency needs a us/ms/s suffix"));
            };
            FaultAction::Latency(LatencyModel::fixed(us))
        }
        None if action == "drop" => FaultAction::Drop,
        None if action == "crash" => FaultAction::Crash,
        _ => return Err(bad("unknown action")),
    };
    Ok(FaultRule { site: site.trim().to_string(), schedule, action })
}
