//! Crash-injection harness reproducing the paper's §5.2 experiments.
//!
//! The paper tests the persistent-stack runtime by running randomly
//! generated recoverable-CAS workloads on emulated NVRAM, killing the
//! system at random moments, restarting it in recovery mode, and
//! finally checking the collected execution for serializability:
//!
//! > 1. Generate an initial integer value of the register; 2. generate
//! > {newᵢ} and {oldᵢ} … uniformly sampled from some range: either wide
//! > (`[-10⁵, 10⁵]`) or narrow (`[-10, 10]`); 3. start the system in
//! > the normal mode, add descriptors … in random order; 4. run 4
//! > working threads; 5. at a random moment, emulate system failure …;
//! > 6. restart the system in the recovery mode …; 7. restart the
//! > system in the normal mode, add all remaining descriptors …;
//! > 8. run steps 4–7 until all operations are completed; 9. get
//! > answers …, get the final value …, verify the execution for
//! > serializability.
//!
//! That loop exists once, in `cycle.rs`: seeded fail-point arming, crash
//! accounting, reopen, recover-until-a-pass-completes under a
//! recovery-kill budget, and one [`Tally`] in every report. It runs
//! over three **machines** — how the system runs and dies, each running
//! its tasks on persistent stacks:
//!
//! * one region + `Runtime`, `kill` emulated by deterministic
//!   fail-points (seeded, reproducible, CI-friendly);
//! * control region + stripe + `StripedRuntime`: a crash in any region
//!   trips them all, restart is `reopen_all` + stack-driven recovery;
//! * the real thing (`run_kill_campaign`, `kill-harness` feature):
//!   worker **processes** over a file-backed image, SIGKILLed by a
//!   driver process at random wall-clock moments (the `kill_campaign`
//!   binary drives it) —
//!
//! and four **workloads** — what is under test. The condition a harness
//! checks is a property of its workload's verify step, never of the
//! loop it runs in:
//!
//! | workload | entry point | machine | `verify` checks |
//! |---|---|---|---|
//! | recoverable CAS | [`run_campaign`], `run_kill_campaign` | one region; processes | §5.1 serializability (`check_serializability`, witness replayed) |
//! | recoverable queue | [`run_queue_campaign`], `run_kill_campaign` | one region; processes | FIFO against the slot witness (`check_fifo`) |
//! | KV store: 1 … n shards, group commits, compaction | [`run_kv_campaign`] | control + stripe | `check_kv_sharded_gen`: per-shard chains across generations, unique tags, key routing, carry-overs |
//! | served KV | [`run_server_campaign`] | control + stripe | `check_kv_sharded_gen` on the clients' own observations: exactly-once |
//!
//! The module also provides [`enumerate_crash_points`], the exhaustive
//! single-operation crash harness used across the test suites.

mod campaign;
// `compaction_campaign` and `sharded_kv_campaign` are test modules
// holding rows of the KV campaign's scenario table, apart so their
// gates keep their names and CI filters.
mod compaction_campaign;
mod crashpoints;
mod cycle;
mod kv_campaign;
mod sharded_kv_campaign;
// The real-kill(1) harness spawns and SIGKILLs OS processes: unix-only
// and inherently nondeterministic, so it is opt-in via the
// `kill-harness` feature. Default builds and `cargo test -q` stay
// deterministic.
#[cfg(all(unix, feature = "kill-harness"))]
mod killharness;
mod queue_campaign;
mod server_campaign;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport};
pub use crashpoints::{enumerate_crash_points, CrashScenario, EnumerationReport};
pub use cycle::Tally;
#[cfg(all(unix, feature = "kill-harness"))]
pub use killharness::{
    child_recover, child_run, collect_report, format_image, run_kill_campaign, ChildOutcome,
    KillCampaignConfig, KillCampaignReport, KillOutcome, KillWorkload,
};
pub use kv_campaign::{run_kv_campaign, KvCampaignConfig, KvCampaignReport, ShardLogUsage};
pub use queue_campaign::{run_queue_campaign, QueueCampaignConfig, QueueCampaignReport};
pub use server_campaign::{
    run_server_campaign, CycleSlo, ServerCampaignConfig, ServerCampaignReport, SloStat,
};
