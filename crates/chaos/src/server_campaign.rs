//! The live-load serving campaign: closed-loop clients with timeouts
//! and backoff retries against a [`ServerCore`] whose batch windows run
//! on the [`StripedRuntime`] — and power failures landing mid-flight in
//! the stripe, in the control region, and inside recovery passes.
//!
//! The property under test is **durable linearizability from the
//! client's chair**: across every crash/recover cycle a client observes
//! only `Done`/`Retry`/`Overloaded` responses, every operation it
//! completes took effect **exactly once** in the store, and no ack is
//! ever lost (the campaign terminates with every client finished — the
//! server's answers are durable before they are visible, so a crash
//! between execution and delivery only costs a retry, never an effect).
//!
//! The harness is a discrete-event simulation on the crate's virtual
//! clock ([`VirtualClock`]): client timeouts, backoff jitter and the
//! per-iteration service tick are all virtual nanoseconds, so a whole
//! campaign — schedules, kills, recoveries, SLO percentiles — is
//! reproducible from its seed. A power failure is modeled exactly as
//! the paper's whole-system crash (§2.2): the first region to trip its
//! fail-point takes every other region down, the wire loses all
//! in-flight frames ([`ChannelHub::reset`]), and the clients experience
//! a connection reset ([`ClientSim::on_crash`]) — they back off and
//! retransmit under the retry contract, never abandoning a request.
//!
//! The verdict is built from the **clients' own observations** (their
//! completed ops, tagged `(pid = client_id, seq = req_id)`) against the
//! store's published chain witnesses — the server-side request tables
//! recycle answered slots, so only the clients hold the full history.
//! [`check_kv_sharded_gen`] then enforces exactly-once effects: a
//! duplicated mutation would publish two records under one tag, a lost
//! effect would leave an acked mutation without its record.

use pstack_core::{FunctionRegistry, PError, StripedRuntime};
use pstack_kv::{KvVariant, ShardedKvStore};
use pstack_nvram::{PMemBuilder, PMemStripe};
use pstack_server::{
    serve_round, ChannelConn, ChannelHub, ClientConfig, ClientSim, ClientStats, Clock,
    KvServeFunction, OpClass, ServerCore, VirtualClock,
};
use pstack_verify::{KvShardedHistory, KvVerdict, KvWitnessRecord};

use crate::cycle::{self, Cx, Policy, Stacked, Striped, Tally, Workload};
use crate::sharded_kv_campaign::{attach_stripe, sharded_verdict, ANSWER_REPLAY_FUSE};

const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Shards (independent regions) behind the server.
const SHARDS: usize = 4;
/// Runtime worker threads: one keeps the whole campaign deterministic
/// per seed (more would stay correct but reorder window execution).
const WORKERS: usize = 1;
/// NVRAM region length per shard.
const REGION_LEN: usize = 1 << 21;
/// Shadow every region with the persist-order sanitizer.
const PSAN: bool = cfg!(feature = "psan");
/// Keys are zipfian ranks over `0..KEY_SPACE`.
const KEY_SPACE: u64 = 16;
/// Zipf skew of the client key distributions.
const ZIPF_S: f64 = 0.99;
/// Put/cas values are drawn from `-VALUE_RANGE..=VALUE_RANGE`.
const VALUE_RANGE: i64 = 100;
/// Relative weights of (put, get, delete, cas) per client.
const OP_MIX: [u32; 4] = [4, 3, 2, 1];
/// Batch-window size: requests per group commit.
const BATCH: usize = 4;
/// Per-shard request-table slots — the bound on outstanding or unacked
/// requests per shard.
const TABLE_CAP: u32 = 64;
/// Virtual nanoseconds one serve iteration (admission + batch windows +
/// delivery) takes — the clock clients measure latency on.
const SERVICE_TICK_NS: u64 = 100_000;
/// Virtual nanoseconds a reboot + recovery costs the clients — crash
/// cycles show up in the SLO tail, as they would in production.
const REBOOT_PENALTY_NS: u64 = 3_000_000;

/// Configuration of one serving crash campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerCampaignConfig {
    /// Closed-loop clients (ids `1..=clients`).
    pub clients: usize,
    /// Operations each client must complete (done **and** acked).
    pub ops_per_client: usize,
    /// Master seed; campaigns are deterministic given the seed (at
    /// `workers == 1`).
    pub seed: u64,
    /// Correct NSRL recovery or the no-scan bug (negative control).
    pub variant: KvVariant,
    /// Per-shard admission-queue capacity; excess load sheds as
    /// explicit `Overloaded` responses.
    pub queue_capacity: usize,
    /// Crashes stop after this many, so the campaign terminates
    /// (recovery kills get their own budget of the same size).
    pub max_crashes: usize,
    /// Fail-point countdowns are drawn uniformly from this event
    /// window — smaller than a batch window's event footprint, so
    /// kills land mid-window.
    pub crash_window: (u64, u64),
    /// Probability a given shard region is armed in a given boot.
    pub crash_prob: f64,
    /// Probability of arming a kill inside each recovery pass.
    pub recovery_crash_prob: f64,
}

impl ServerCampaignConfig {
    /// Defaults: 4 shards served in batch windows of 4 over a
    /// 64-slot-per-shard request table, one deterministic worker, and
    /// kills armed aggressively while the crash budget lasts.
    #[must_use]
    pub fn new(clients: usize, ops_per_client: usize, seed: u64) -> Self {
        ServerCampaignConfig {
            clients,
            ops_per_client,
            seed,
            variant: KvVariant::Nsrl,
            queue_capacity: 64,
            max_crashes: 8,
            crash_window: (8, 60),
            crash_prob: 0.5,
            recovery_crash_prob: 0.3,
        }
    }

    /// Selects the recovery variant.
    #[must_use]
    pub fn variant(mut self, variant: KvVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Selects the admission-queue capacity.
    #[must_use]
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }
}

/// p50/p99/p999 of one op class within one crash cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloStat {
    /// The op class the percentiles describe.
    pub class: OpClass,
    /// Operations of this class completed in the cycle.
    pub count: u64,
    /// Median latency (virtual ns, first send → `Done`).
    pub p50_ns: u64,
    /// 99th percentile latency.
    pub p99_ns: u64,
    /// 99.9th percentile latency.
    pub p999_ns: u64,
}

/// The SLO summary of one crash cycle (the ops completed between two
/// consecutive power failures; the last entry covers the tail after
/// the final crash).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleSlo {
    /// Cycle index: `0..crashes` are inter-crash windows, the final
    /// entry is the post-recovery tail.
    pub cycle: usize,
    /// Per-class percentiles, in [`OpClass::ALL`] order, classes with
    /// no completions omitted.
    pub ops: Vec<SloStat>,
}

/// Outcome of one serving crash campaign.
#[derive(Debug, Clone)]
pub struct ServerCampaignReport {
    /// Boots (as `rounds`: one per crash cycle plus the boot that found
    /// every client finished), power failures during serving and inside
    /// stack-driven recovery passes, recovered frames, the region that
    /// tripped each crash, NVRAM statistics, sanitizer findings
    /// (expected empty) and the flight-recorder summary.
    pub tally: Tally,
    /// Boots of the serving stack (`tally.rounds`).
    pub boots: usize,
    /// The client-observed execution plus the store's chain witnesses.
    pub history: KvShardedHistory,
    /// The sharded exactly-once/linearizability verdict.
    pub verdict: KvVerdict,
    /// Client counters summed over the population.
    pub client_stats: ClientStats,
    /// Requests admitted into shard queues, summed over all boots.
    pub admitted: u64,
    /// Requests shed as explicit `Overloaded`, summed over all boots.
    pub shed: u64,
    /// Per-cycle SLO summaries (p50/p99/p999 per op class).
    pub slo: Vec<CycleSlo>,
    /// Virtual time the campaign spanned.
    pub virtual_duration_ns: u64,
}
cycle::report_derefs_to_tally!(ServerCampaignReport);

impl ServerCampaignReport {
    /// `true` if the client-observed execution passed the sharded
    /// exactly-once check.
    #[must_use]
    pub fn is_linearizable(&self) -> bool {
        self.verdict.is_linearizable()
    }

    /// Renders the per-cycle SLO table (the form the campaign test
    /// prints under `--nocapture`).
    #[must_use]
    pub fn render_slo(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<7} {:<8} {:>7} {:>12} {:>12} {:>12}",
            "cycle", "class", "count", "p50", "p99", "p999"
        );
        for cycle in &self.slo {
            for s in &cycle.ops {
                let _ = writeln!(
                    out,
                    "  {:<7} {:<8} {:>7} {:>9.2}ms {:>9.2}ms {:>9.2}ms",
                    cycle.cycle,
                    s.class.label(),
                    s.count,
                    s.p50_ns as f64 / 1e6,
                    s.p99_ns as f64 / 1e6,
                    s.p999_ns as f64 / 1e6,
                );
            }
        }
        out
    }
}

/// Exact order statistic from a sorted latency vector.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Folds the latencies each client recorded since its mark into one
/// per-class SLO entry, advancing the marks.
fn capture_cycle_slo(cycle: usize, clients: &[ClientSim], marks: &mut [usize]) -> Option<CycleSlo> {
    let mut by_class: Vec<Vec<u64>> = vec![Vec::new(); OpClass::ALL.len()];
    for (c, mark) in clients.iter().zip(marks.iter_mut()) {
        let lat = c.latencies();
        for &(class, ns) in &lat[*mark..] {
            let i = OpClass::ALL
                .iter()
                .position(|&k| k == class)
                .expect("every class is in ALL");
            by_class[i].push(ns);
        }
        *mark = lat.len();
    }
    let ops: Vec<SloStat> = by_class
        .into_iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(i, mut v)| {
            v.sort_unstable();
            SloStat {
                class: OpClass::ALL[i],
                count: v.len() as u64,
                p50_ns: percentile(&v, 0.5),
                p99_ns: percentile(&v, 0.99),
                p999_ns: percentile(&v, 0.999),
            }
        })
        .collect();
    (!ops.is_empty()).then_some(CycleSlo { cycle, ops })
}

fn transport_err(e: std::io::Error) -> PError {
    PError::Task(format!("serving transport: {e}"))
}

/// The serving workload: a population of closed-loop clients, their
/// wire and the virtual clock — everything volatile that outlives a
/// boot of the server.
struct Serving<'a> {
    cfg: &'a ServerCampaignConfig,
    clock: VirtualClock,
    hub: ChannelHub,
    clients: Vec<ClientSim>,
    conns: Vec<ChannelConn>,
    admitted: u64,
    shed: u64,
    /// The crash cycle being served (crashes seen so far).
    cycle: usize,
    slo: Vec<CycleSlo>,
    /// Per client, the latencies already folded into `slo`.
    marks: Vec<usize>,
}

impl Serving<'_> {
    /// Folds the ops completed since the last power failure into the
    /// current cycle's SLO entry.
    fn close_slo_cycle(&mut self) {
        let entry = capture_cycle_slo(self.cycle, &self.clients, &mut self.marks);
        self.slo.extend(entry);
    }

    /// One boot's serving loop: jump the virtual clock to the next
    /// client wake, move frames through the hub, serve them a round
    /// ([`serve_round`]: admit, drain, batch windows on the runtime,
    /// answers), deliver. Ends when every client finished, or with the
    /// crash error of the power failure that took the system down —
    /// inside a window or under a descriptor on the admission path, one
    /// outcome: every region is down, the machine attributes it.
    fn serve(&mut self, core: &ServerCore, rt: &StripedRuntime) -> Result<(), PError> {
        // Jump to the earliest instant any client acts.
        while let Some(wake) = self.clients.iter().filter_map(ClientSim::next_wake).min() {
            self.clock.advance_to(wake);
            let now = self.clock.now_ns();

            // Clients transmit (fresh ops, retransmissions, acks).
            for (c, conn) in self.clients.iter_mut().zip(&self.conns) {
                if let Some(req) = c.poll(now) {
                    conn.send(&req);
                }
            }
            let mut requests = Vec::new();
            while let Some(req) = self.hub.poll_request().map_err(transport_err)? {
                requests.push(req);
            }

            // One window per non-idle shard runs through the persistent
            // stack. A crash here lands on a staged descriptor, inside a
            // group commit, an answer persist, or the stack discipline.
            for resp in serve_round(core, rt, &requests)? {
                self.hub.respond(&resp);
            }

            // Service time passes, then responses land.
            self.clock.advance(SERVICE_TICK_NS);
            let now = self.clock.now_ns();
            for (c, conn) in self.clients.iter_mut().zip(&self.conns) {
                while let Some(resp) = conn.try_recv().map_err(transport_err)? {
                    c.deliver(now, &resp);
                }
            }
        }
        Ok(())
    }
}

impl Workload<Striped> for Serving<'_> {
    type Attached = KvServeFunction;
    type Work = ();

    fn attach(
        &mut self,
        stripe: &PMemStripe,
    ) -> Result<(FunctionRegistry, KvServeFunction), PError> {
        attach_stripe(stripe, self.cfg.variant, 1)
    }

    /// There is work while any client has an op or an ack outstanding.
    /// The first boot after a power failure starts with what only this
    /// harness has to do: the ops completed before the failure close
    /// that cycle's SLO entry, and the wire died with the machine — the
    /// clients see a reset, back off, and retransmit under the contract.
    fn enqueue(&mut self, _: &KvServeFunction, cx: &mut Cx) -> Result<Option<()>, PError> {
        if self.cycle < cx.tally.crashes {
            self.close_slo_cycle();
            self.cycle = cx.tally.crashes;
            self.hub.reset();
            self.clock.advance(REBOOT_PENALTY_NS);
            let now = self.clock.now_ns();
            for c in &mut self.clients {
                c.on_crash(now);
            }
        }
        let work = self.clients.iter().any(|c| c.next_wake().is_some());
        Ok(work.then_some(()))
    }

    /// The front end is rebuilt every boot: queues are volatile by
    /// design, and the clients' retries re-drive anything lost.
    fn run(
        &mut self,
        (_, rt, exec): (&Striped, &StripedRuntime, &KvServeFunction),
        (): (),
        _: &Cx,
    ) -> Result<bool, PError> {
        let core = ServerCore::new(exec.clone(), self.cfg.queue_capacity, BATCH);
        let outcome = self.serve(&core, rt);
        self.admitted += core.admitted();
        self.shed += core.shed();
        outcome.map(|()| false)
    }

    fn recover(
        &mut self,
        (m, rt, exec): (&Striped, &StripedRuntime, &KvServeFunction),
    ) -> Result<usize, PError> {
        m.replay(rt, Some(exec.store()))
    }
}

/// Runs one live-load serving crash campaign. Deterministic per
/// configuration at `workers == 1`.
///
/// # Errors
///
/// Propagates setup failures; power failures and their recoveries are
/// the experiment, not errors.
///
/// # Panics
///
/// Panics if a runtime worker thread panics.
///
/// # Example
///
/// ```
/// use pstack_chaos::{run_server_campaign, ServerCampaignConfig};
///
/// # fn main() -> Result<(), pstack_core::PError> {
/// let report = run_server_campaign(&ServerCampaignConfig::new(2, 6, 11))?;
/// assert!(report.is_linearizable());
/// assert_eq!(report.client_stats.completed, 12);
/// # Ok(())
/// # }
/// ```
pub fn run_server_campaign(cfg: &ServerCampaignConfig) -> Result<ServerCampaignReport, PError> {
    cycle::traced(cfg!(feature = "telemetry"), || {
        run_server_campaign_inner(cfg)
    })
}

fn run_server_campaign_inner(cfg: &ServerCampaignConfig) -> Result<ServerCampaignReport, PError> {
    assert!(cfg.clients > 0, "at least one client");
    assert!(cfg.ops_per_client > 0, "clients need work");
    assert!(cfg.queue_capacity > 0, "admission queues need room");

    let mut cx = Cx::new(
        cfg.seed,
        Policy {
            max_crashes: cfg.max_crashes,
            crash_window: cfg.crash_window,
            crash_prob: cfg.crash_prob,
            recovery_crash_prob: cfg.recovery_crash_prob,
            recovery_fuse: ANSWER_REPLAY_FUSE,
        },
    );
    let total_ops = (cfg.clients * cfg.ops_per_client) as u64;
    // Every op publishes at most one record; crash orphans add at most
    // one staged batch per window source per cycle (both budgets).
    let log_cap = total_ops * 2 + (cfg.max_crashes as u64 * 2 + 1) * (BATCH as u64 + 1) * 2 + 64;
    let nbuckets = KEY_SPACE.max(4);

    // Buffered regions: descriptor persists are line-atomic and batch
    // windows group-commit, so kills land inside real multi-op windows.
    let stripe = PMemBuilder::new()
        .len(REGION_LEN)
        .psan(PSAN)
        .build_striped(SHARDS);
    let store = ShardedKvStore::format(stripe.regions(), nbuckets, log_cap, cfg.variant)?;
    KvServeFunction::format(store, TABLE_CAP)?;
    let mut machine = Striped::format(stripe, WORKERS, PSAN)?;

    // The client population and its wire.
    let hub = ChannelHub::new();
    let clients: Vec<ClientSim> = (0..cfg.clients)
        .map(|i| {
            ClientSim::new(ClientConfig {
                client_id: i as u32 + 1,
                n_ops: cfg.ops_per_client,
                key_space: KEY_SPACE,
                zipf_s: ZIPF_S,
                value_range: VALUE_RANGE,
                mix: OP_MIX,
                seed: cfg.seed ^ (i as u64 + 1).wrapping_mul(PHI),
                ..ClientConfig::default()
            })
        })
        .collect();
    let mut serving = Serving {
        cfg,
        clock: VirtualClock::new(),
        conns: (1..=cfg.clients as u32).map(|id| hub.connect(id)).collect(),
        hub,
        marks: vec![0; clients.len()],
        clients,
        admitted: 0,
        shed: 0,
        cycle: 0,
        slo: Vec::new(),
    };
    let exec = cycle::cycle(&mut machine, &mut serving, &mut cx)?;
    // The tail since the last crash closes the SLO table.
    serving.close_slo_cycle();

    let store = exec.store();
    let shards: Vec<Vec<Vec<KvWitnessRecord>>> = store
        .snapshot_sharded()?
        .into_iter()
        .map(|chains| {
            chains
                .into_iter()
                .map(|chain| chain.into_iter().map(KvWitnessRecord::from).collect())
                .collect()
        })
        .collect();
    let clients = &serving.clients;
    let ops = clients
        .iter()
        .flat_map(|c| c.observations().iter().cloned());
    let history = KvShardedHistory {
        ops: ops.collect(),
        shards,
    };
    let mut client_stats = ClientStats::default();
    for c in clients {
        let s = c.stats();
        client_stats.completed += s.completed;
        client_stats.retransmits += s.retransmits;
        client_stats.overloads += s.overloads;
        client_stats.retry_signals += s.retry_signals;
        client_stats.acks_sent += s.acks_sent;
        client_stats.stale_signals += s.stale_signals;
    }
    Ok(ServerCampaignReport {
        boots: cx.tally.rounds,
        tally: cx.tally,
        verdict: sharded_verdict(&history, store)?,
        history,
        client_stats,
        admitted: serving.admitted,
        shed: serving.shed,
        slo: serving.slo,
        virtual_duration_ns: serving.clock.now_ns(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::StatsSnapshot;

    #[test]
    fn server_campaign_exactly_once_under_live_load() {
        let report = run_server_campaign(&ServerCampaignConfig::new(4, 20, 33)).unwrap();
        assert!(report.is_linearizable(), "verdict: {:?}", report.verdict);
        assert!(report.crashes > 0, "kills must land under live load");
        // Zero lost acks: the campaign only terminates quiescent, and
        // every client completed its full quota.
        assert_eq!(report.client_stats.completed, 80);
        assert_eq!(report.history.ops.len(), 80);
        assert!(
            report.client_stats.acks_sent >= report.client_stats.completed,
            "acks are at-least-once"
        );
        assert!(
            report.client_stats.retry_signals > 0,
            "crashes must be client-visible only as Retry signals"
        );
        assert!(
            report.psan_violations.is_empty(),
            "sanitizer findings: {:?}",
            report.psan_violations
        );
        assert!(!report.slo.is_empty(), "per-cycle SLO summaries expected");
        assert!(
            report.slo.iter().all(|c| !c.ops.is_empty()),
            "every reported cycle carries percentiles"
        );
        println!(
            "server campaign: {} boots, {} crashes (+{} in recovery), {} admitted, {} shed",
            report.boots, report.crashes, report.recovery_crashes, report.admitted, report.shed
        );
        println!("{}", report.render_slo());
    }

    #[test]
    fn server_campaign_two_hundred_live_load_cycles() {
        // The acceptance gate: ≥ 200 live-load crash/recover cycles
        // across seeds — zero lost acks, zero duplicate effects, zero
        // PSan violations, SLO percentiles present in every campaign.
        // Reads are answered at admission and descriptors persist at
        // the drain, so kills land on staged descriptors, on the
        // drain's flights and on a window's record and log-tail
        // flights too.
        let mut cycles = 0usize;
        let mut campaigns = 0usize;
        let mut recovery_kills = 0usize;
        let mut stats = StatsSnapshot::default();
        for seed in 0u64.. {
            let cfg = ServerCampaignConfig::new(4, 16, 4000 + seed);
            let report = run_server_campaign(&cfg).unwrap();
            let at = format!("seed {seed}");
            assert!(report.is_linearizable(), "{at}: {:?}", report.verdict);
            assert_eq!(report.client_stats.completed, 64, "{at}: lost acks");
            assert!(
                report.psan_violations.is_empty(),
                "{at}: sanitizer findings: {:?}",
                report.psan_violations
            );
            assert!(!report.slo.is_empty(), "{at}: no SLO summary");
            cycles += report.total_crashes();
            recovery_kills += report.recovery_crashes;
            campaigns += 1;
            stats = stats + report.stats;
            if cycles >= 200 {
                break;
            }
        }
        assert!(
            recovery_kills > 0,
            "kills must land inside recovery passes too"
        );
        assert!(stats.async_flushes > 0, "no window ever issued a flight");
        assert!(
            stats.flights_cut > 0,
            "no kill ever landed with a flight still queued"
        );
        println!("server campaign gate: {cycles} cycles across {campaigns} campaigns");
    }

    #[test]
    fn server_campaigns_are_deterministic_per_seed() {
        let cfg = ServerCampaignConfig::new(3, 12, 77);
        let a = run_server_campaign(&cfg).unwrap();
        let b = run_server_campaign(&cfg).unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.slo, b.slo);
        assert_eq!(a.client_stats, b.client_stats);
        assert_eq!(a.virtual_duration_ns, b.virtual_duration_ns);
    }

    #[test]
    fn server_campaign_sheds_overload_explicitly() {
        // A queue of 1 under 6 clients: load must shed as Overloaded
        // responses the clients observe — never a drop, never a panic —
        // and still complete exactly once.
        let cfg = ServerCampaignConfig::new(6, 10, 5).queue_capacity(1);
        let report = run_server_campaign(&cfg).unwrap();
        assert!(report.is_linearizable(), "verdict: {:?}", report.verdict);
        assert!(report.shed > 0, "tiny queue must shed");
        assert!(
            report.client_stats.overloads > 0,
            "sheds must surface as Overloaded responses"
        );
        assert_eq!(report.client_stats.completed, 60, "sheds lose nothing");
    }

    #[test]
    fn noscan_server_campaign_is_caught() {
        // Negative control: with the evidence scan removed, a replayed
        // window double-applies mutations whose records were already
        // published — the client-observed history then carries
        // duplicate tags and the checker must say so. Detection is
        // probabilistic per seed, so scan a crash-heavy configuration.
        let mut detected = 0usize;
        let mut runs = 0usize;
        for seed in 0u64..24 {
            if detected >= 2 {
                break;
            }
            let cfg = ServerCampaignConfig {
                max_crashes: 16,
                crash_prob: 0.8,
                crash_window: (4, 40),
                recovery_crash_prob: 0.5,
                ..ServerCampaignConfig::new(4, 16, 6000 + seed)
            }
            .variant(KvVariant::NoScan);
            let report = run_server_campaign(&cfg).unwrap();
            runs += 1;
            if !report.is_linearizable() {
                detected += 1;
            }
        }
        assert!(
            detected > 0,
            "no exactly-once violation detected in {runs} no-scan runs"
        );
    }
}
