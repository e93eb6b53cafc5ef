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
//! That experiment is one campaign: a [`CampaignConfig`] is a row of its
//! scenario table, [`run_campaign`] runs it and a [`CampaignReport`] says
//! what it found. The loop exists once, in `cycle.rs`: seeded kill
//! placement, crash accounting, reopen, recover-until-a-pass-completes
//! under a recovery-kill budget, and one [`Tally`] in every report. Every
//! row runs its tasks on persistent stacks over a control region beside a
//! stripe of data regions, the §5 objects in a stripe of one. A row's two
//! main columns are what runs and how it dies; the condition it checks is
//! a property of its workload, never of the kill policy:
//!
//! | workload | [`Kill::FailPoints`]: seeded, in process | [`Kill::Processes`]: `kill(1)` over image files | [`Execution`] checks |
//! |---|---|---|---|
//! | [`Workload::Cas`] | ✓ | ✓ | §5.1 serializability (`check_serializability`, witness replayed) |
//! | [`Workload::Queue`] | ✓ | ✓ | FIFO against the slot witness (`check_fifo`) |
//! | [`Workload::Kv`]: 1 … n shards, group commits, compaction | ✓ | — | `check_kv_sharded_gen`: per-shard chains across generations, unique tags, key routing, carry-overs |
//! | [`Workload::Served`] | ✓ | — | `check_kv_sharded_gen` on the clients' own observations: exactly-once |
//!
//! Fail-point rows are deterministic per seed with one worker. kill(1)
//! rows (`kill-harness` feature, unix) SIGKILL worker processes — the
//! `kill_campaign` binary's child modes, [`child_run`] and
//! [`child_recover`] — at the event count the row's crash window draws,
//! as each child reports it; a KV or served row there is
//! [`pstack_core::PError::InvalidConfig`].
//!
//! The exhaustive single-operation crash sweep is not here: it is
//! `pstack_nvram::sweep`, beside the fail-points it arms, where every
//! crate's tests can reach it.

mod campaign;
// `compaction_campaign` and `sharded_kv_campaign` are test modules
// holding rows of the campaign's scenario table, apart so their gates
// keep their names and CI filters.
mod compaction_campaign;
mod cycle;
mod header;
// The real-kill(1) policy spawns and SIGKILLs OS processes: unix-only
// and inherently nondeterministic, so it is opt-in via the
// `kill-harness` feature. Default builds and `cargo test -q` stay
// deterministic.
#[cfg(all(unix, feature = "kill-harness"))]
mod killharness;
mod kv_campaign;
mod queue_campaign;
mod server_campaign;
mod sharded_kv_campaign;

pub use campaign::{
    run_campaign, CampaignConfig, CampaignReport, Execution, Kill, Object, Workload,
};
pub use cycle::Tally;
pub use header::KillHeader;
#[cfg(all(unix, feature = "kill-harness"))]
pub use killharness::{child_recover, child_run};
pub use kv_campaign::{KvWorkload, ShardLogUsage};
pub use server_campaign::{CycleSlo, ServedStats, SloStat};
