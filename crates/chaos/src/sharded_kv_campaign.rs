//! The sharded rows of the KV scenario table (tests only): four shards
//! in group commits with kills inside batch windows, the multi-region
//! crash-point enumeration, and the sharded verifier's negative controls
//! — no-scan recovery, an early publish, a misrouted and a skipped
//! recovery scan.

#[cfg(test)]
mod tests {
    use pstack_core::{
        CrashRegion, FunctionRegistry, PError, RecoveryMode, RuntimeConfig, StripedRuntime,
    };
    use pstack_kv::{
        shard_of, KvApplied, KvBatchOp, KvServeFunction, KvTaskOp, KvVariant, ShardedKvStore,
    };
    use pstack_nvram::{FailPlan, PMem, PMemBuilder, PMemStripe, Survivors, Sweep};
    use pstack_verify::{KvAnswer, KvOp, KvOpKind};

    use crate::campaign::table::{caught, duplicate_application, gate, sharded, with_kv};
    use crate::kv_campaign::attach_stripe;
    use crate::{run_campaign, CampaignConfig};

    #[test]
    fn sharded_campaign_is_linearizable_and_crashes_in_batch_windows() {
        // Three seeds: a window's frame is durable only with its level,
        // so a kill inside a window leaves none to replay, and one
        // seed's kills, under the scheduler's interleaving of four
        // workers, may all land there.
        let mut frames = 0;
        for seed in [21, 22, 23] {
            frames += sharded_row(seed);
        }
        // The batch windows ran as persistent-stack tasks: frames were
        // replayed.
        assert!(frames > 0, "stack-driven recovery should replay frames");
    }

    /// One seed of the sharded row, every per-report check; the frames
    /// its recoveries replayed.
    fn sharded_row(seed: u64) -> usize {
        let report = run_campaign(&sharded(80, seed)).unwrap();
        assert!(report.is_consistent(), "{:?}", report.execution);
        assert!(report.crashes > 0, "campaign should experience crashes");
        let shard_kills = report.crash_sites.len() - report.kills_in(CrashRegion::Runtime);
        assert!(shard_kills > 0, "fail-points should actually fire");
        assert_eq!(report.log_usage.len(), 4);
        assert!(report.rounds > 1);
        assert!(report.log_had_headroom(), "{}", report.tightest_shard());
        assert!(
            report.log_usage.iter().any(|u| u.reserved > 0),
            "group commits should have completed: {:?}",
            report.log_usage
        );
        assert!(
            report.stats.coalesced_lines > 0,
            "group commits should coalesce persists: {:?}",
            report.stats
        );
        assert!(
            report.psan_violations.is_empty(),
            "sanitizer findings: {:?}",
            report.psan_violations
        );
        // Every cycle is attributed to the region that tripped it.
        assert!(!report.crash_sites.is_empty());
        assert!(report.crash_sites.len() <= report.total_crashes());
        for site in &report.crash_sites {
            match site.region {
                CrashRegion::Shard(s) => assert!(s < 4, "shard index in range: {site}"),
                CrashRegion::Runtime => {}
            }
            assert!(
                site.events > 0,
                "the op counter freezes at the kill: {site}"
            );
        }
        // Every crash→recovery cycle that completed was timed.
        assert_eq!(report.recovery_durations.len(), report.crashes);
        assert!(report.recovery_durations.iter().all(|d| d.as_nanos() > 0));
        let telemetry = &report.telemetry;
        // The stack-driven recovery path exercises the reopen, the
        // per-shard evidence scan, the frame replay, and the
        // recover duals — the timeline must attribute at least
        // three distinct phases with durations.
        assert!(
            telemetry.distinct_recovery_phases() >= 3,
            "timeline:\n{}",
            telemetry.render()
        );
        assert!(!telemetry.timeline.is_empty());
        assert!(
            telemetry.ops.iter().any(|op| op.count > 0),
            "spans should have latencies: {:?}",
            telemetry.ops
        );
        println!("{}", telemetry.render());
        report.recovered_frames
    }

    #[test]
    fn sharded_campaigns_are_deterministic_per_seed() {
        // One worker: more would run a round's windows in an order the
        // scheduler picks.
        let cfg = CampaignConfig {
            workers: 1,
            ..sharded(48, 5)
        };
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a.execution, b.execution);
        assert_eq!(a.tally, b.tally);
    }

    #[test]
    fn group_commit_cuts_persists_per_mutation() {
        // Same workload, no crashes: the batched campaign must spend
        // far fewer persist round-trips per mutation than windows of
        // one — measured straight from the stripe's PMem counters.
        let quiet = |batch| {
            let cfg = CampaignConfig {
                max_crashes: 0,
                ..sharded(200, 3)
            };
            let cfg = with_kv(cfg, |kv| {
                kv.key_space = 64;
                kv.group_commit = batch;
            });
            run_campaign(&cfg).unwrap()
        };
        let batched = quiet(16);
        let per_op = quiet(1);
        assert!(batched.is_consistent() && per_op.is_consistent());
        assert_eq!(batched.mutations, per_op.mutations);
        assert!(
            batched.persists_per_mutation() * 2.0 < per_op.persists_per_mutation(),
            "batched {:.2} vs per-op {:.2} persists/mutation",
            batched.persists_per_mutation(),
            per_op.persists_per_mutation(),
        );
    }

    #[test]
    fn single_hot_shard_headroom_is_detected_per_shard() {
        // One key → one hot shard. With a tiny per-shard log the hot
        // shard fills while the others stay empty: the per-shard
        // report must expose it (a global sum would hide it behind
        // three idle shards' headroom).
        let cfg = CampaignConfig {
            max_crashes: 0,
            ..sharded(60, 11)
        };
        let cfg = with_kv(cfg, |kv| {
            kv.key_space = 1;
            kv.op_mix = (1.0, 0.0, 0.0); // all puts
            kv.log_cap_per_shard = Some(8);
        });
        let report = run_campaign(&cfg).unwrap();
        assert!(
            report.is_consistent(),
            "capacity-rejected puts are legal answers: {:?}",
            report.execution
        );
        assert!(!report.log_had_headroom(), "hot shard must be flagged");
        let hot = shard_of(0, 4);
        for usage in &report.log_usage {
            assert_eq!(
                usage.has_headroom(),
                usage.shard != hot,
                "only the hot shard fills: {usage}"
            );
            // The trigger signal: 0.0 for the full shard, a healthy
            // fraction for the idle ones.
            if usage.shard == hot {
                assert_eq!(usage.headroom_fraction(), 0.0, "{usage}");
            } else {
                assert!(usage.headroom_fraction() > 0.5, "{usage}");
            }
        }
        assert_eq!(report.tightest_shard().shard, hot);
        // The report names the shard that should trigger compaction.
        assert_eq!(report.compaction_candidate(0.25), Some(hot));
        assert_eq!(
            report.compaction_candidate(0.0),
            None,
            "threshold 0 never fires"
        );
    }

    #[test]
    fn two_hundred_sharded_crash_recover_cycles_lose_nothing() {
        // The sharded acceptance gate: ≥ 200 crash/recover cycles with
        // every window a persistent-stack task, kills landing inside
        // group-commit batch windows (including between flight issue
        // and await, while tickets are still queued on the device),
        // under the stack's own persists and inside recovery passes,
        // every crash tripping the whole system and every campaign
        // recovering all shards in parallel — keeping exactly the
        // completed-flight prefix — and verifying against the
        // sequential spec: zero lost or torn updates.
        let g = gate(|seed| CampaignConfig {
            max_crashes: 14,
            crash_prob: 0.8,
            recovery_crash_prob: 0.5,
            ..sharded(60, 4000 + seed)
        });
        assert!(
            g.recovery_kills > 0,
            "kills must land inside recovery passes too"
        );
        assert!(
            g.shard_kills > 0,
            "kills must land inside shard batch windows"
        );
        assert!(g.frames > 0, "recovery must replay interrupted frames");
        assert!(g.async_flushes > 0, "no campaign ever issued a flight");
        assert!(
            g.flights_cut > 0,
            "no kill ever landed with a flight still queued"
        );
    }

    #[test]
    fn pipelined_campaigns_are_deterministic_per_seed() {
        // The async flush pipeline must not leak scheduling into the
        // campaign's observable history: no device thread exists, so
        // two runs of the same seed on one worker retire identical
        // flights and crash at identical event counts.
        let cfg = CampaignConfig {
            workers: 1,
            ..sharded(48, 5)
        };
        let cfg = with_kv(cfg, |kv| kv.group_commit = 16);
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a.execution, b.execution);
        assert_eq!(a.tally, b.tally);
        assert!(a.stats.async_flushes > 0, "no group commit issued a flight");
    }

    #[test]
    fn psan_flags_the_early_publish_variant_and_names_the_shard() {
        // The seeded persist-order bug as a campaign-level negative
        // control: group commits publish their bucket heads without
        // persisting the staged records first. Without a crash the
        // execution is semantically flawless — the verifier passes —
        // but the sanitizer must flag every buggy publish and attribute
        // it to the home shard and the group-commit op.
        use pstack_nvram::PsanViolationKind;
        let cfg = CampaignConfig {
            max_crashes: 0, // deterministic: violations fire at publish time
            ..sharded(60, 13)
        };
        let cfg = with_kv(cfg, |kv| kv.variant = KvVariant::EarlyPublish);
        let report = run_campaign(&cfg).unwrap();
        assert!(
            report.is_consistent(),
            "without crashes the bug is invisible to the verifier: {:?}",
            report.execution
        );
        let early: Vec<_> = report
            .psan_violations
            .iter()
            .filter(|v| matches!(v.kind, PsanViolationKind::EarlyPublish { .. }))
            .collect();
        assert!(
            !early.is_empty(),
            "the sanitizer must catch what the verifier cannot: {:?}",
            report.psan_violations
        );
        for v in &early {
            assert!(
                v.region.starts_with("shard-"),
                "violation names its home shard: {v:?}"
            );
            assert_eq!(
                v.op_label, "kv.apply_batch",
                "violation names the group-commit op: {v:?}"
            );
        }
    }

    /// The NoScan row: recovery duals that skip the per-shard evidence
    /// scan re-execute already-published operations, and the verifier
    /// must flag the duplicates. `recovery_crash_prob` is the row's one
    /// free column.
    fn noscan(recovery_crash_prob: f64) -> impl Fn(u64) -> CampaignConfig {
        move |seed| {
            let cfg = CampaignConfig {
                max_crashes: 30,
                crash_prob: 0.9,
                crash_window: (5, 60),
                recovery_crash_prob,
                ..sharded(80, seed)
            };
            with_kv(cfg, |kv| {
                kv.key_space = 4;
                kv.variant = KvVariant::NoScan;
            })
        }
    }

    #[test]
    fn runtime_driven_noscan_is_caught() {
        // With kills inside the recovery passes too. Detection is
        // probabilistic per run, so scan seeds.
        let detected = caught(noscan(0.6), duplicate_application);
        assert!(detected > 0, "no duplicate application in no-scan runs");
    }

    // ---- multi-region crash-point enumeration -------------------------

    /// Formats a deterministic 2-shard runtime-driven system: buffered
    /// stripe, one store + preloaded request table per shard (table
    /// bases in the shard roots), and a 1-worker runtime over a fresh
    /// control region.
    fn build_enum_system(ops: &[KvTaskOp]) -> (PMem, PMemStripe) {
        let stripe = PMemBuilder::new().len(1 << 19).psan(true).build_striped(2);
        let store = ShardedKvStore::format(stripe.regions(), 8, 128, KvVariant::Nsrl).unwrap();
        KvServeFunction::preload(store, ops).unwrap();
        let control = PMemBuilder::new().len(1 << 20).build_in_memory();
        let stub = FunctionRegistry::new();
        StripedRuntime::format(
            control.clone(),
            stripe.clone(),
            RuntimeConfig::new(1).stack_capacity(8 * 1024),
            &stub,
        )
        .unwrap();
        (control, stripe)
    }

    /// Re-attaches executor and runtime to the current boot.
    fn attach_enum_system(
        control: &PMem,
        stripe: &PMemStripe,
    ) -> (KvServeFunction, StripedRuntime) {
        let (registry, exec) = attach_stripe(stripe, KvVariant::Nsrl).unwrap();
        let rt = StripedRuntime::open(control.clone(), stripe.clone(), &registry).unwrap();
        (exec, rt)
    }

    /// Runs the 1-worker system to quiescence with no fail-points
    /// (recovering first, since the caller may hand over a state with
    /// an interrupted frame) and checks the execution: verifier-clean,
    /// every key holding its submitted value.
    fn drain_and_check(control: &PMem, stripe: &PMemStripe, ops: &[KvTaskOp], label: &str) {
        for _ in 0..16 {
            let (exec, rt) = attach_enum_system(control, stripe);
            rt.recover(RecoveryMode::Parallel).unwrap();
            let tasks = exec.pending_tasks(4).unwrap();
            if tasks.is_empty() {
                let (_, verdict) = exec.store().check(exec.ops().unwrap()).unwrap();
                assert!(verdict.is_linearizable(), "{label}: {verdict:?}");
                let contents = exec.store().contents().unwrap();
                for op in ops {
                    if let KvTaskOp::Put { key, value } = op {
                        assert_eq!(contents.get(key), Some(value), "{label}: key {key}");
                    }
                }
                let violations = stripe.psan_violations();
                assert!(violations.is_empty(), "{label}: sanitizer: {violations:?}");
                return;
            }
            let report = rt.run_tasks(tasks);
            assert!(!report.crashed, "{label}: no fail-points are armed");
        }
        panic!("{label}: system failed to drain in 16 rounds");
    }

    #[test]
    fn enumerated_shard_crash_times_recovery_step_boundaries() {
        // The multi-region enumeration: for a 2-shard stripe, crash
        // shard 0's region at *every* event boundary of its batch
        // window, then crash the recovery pass at *every* event
        // boundary of every region — and from each (crash-moment ×
        // recovery-step) state, recovery must converge with per-bucket
        // all-or-nothing effects and no re-run frames. (Ten puts: eight
        // would walk fewer boundaries than this sweep is meant to.)
        let ops: Vec<KvTaskOp> = (0..10u64)
            .map(|key| KvTaskOp::Put {
                key,
                value: key as i64 + 10,
            })
            .collect();
        let target = 0usize;
        // The control region, then the stripe: shard 0 is region 1. One
        // worker, unshuffled tasks: fully deterministic. The events are
        // counted from the attach on: the store's open persists its
        // header first.
        let setup = || {
            let (control, stripe) = build_enum_system(&ops);
            let (exec, rt) = attach_enum_system(&control, &stripe);
            (control, stripe, (exec, rt))
        };
        // The kill must trip the whole system and be blamed on the
        // armed region.
        let run =
            |(_, _, (exec, rt)): &mut (PMem, PMemStripe, (KvServeFunction, StripedRuntime))| {
                let report = rt.run_tasks(exec.pending_tasks(4).unwrap());
                if !report.crashed {
                    return Ok(());
                }
                assert!(rt.all_crashed(), "whole system down");
                assert_eq!(
                    report.crash_site.map(|s| s.region),
                    Some(CrashRegion::Shard(target)),
                    "kill attributed to the armed shard"
                );
                Err("the power failed")
            };
        // Every dirty line lost only, in both sweeps: with each cut's
        // recovery swept in turn, the full set would run this test ~36×
        // longer.
        let armed = [1 + target];
        let lost = Sweep::new().survivors(&[Survivors::None]).regions(&armed);
        let recovering = Sweep::new().survivors(&[Survivors::None]);
        let events = lost.run(setup, run, |(_, stripe, _), cut| {
            // Per-bucket all-or-nothing after the crash: every published
            // record carries an untorn tag and value from the workload.
            let store = ShardedKvStore::open(stripe.regions(), KvVariant::Nsrl).unwrap();
            for chains in store.snapshot_sharded().unwrap() {
                for rec in chains.iter().flatten() {
                    assert!(rec.key < 10, "{cut}: phantom key {}", rec.key);
                    assert_eq!(rec.value, rec.key as i64 + 10, "{cut}: torn record value");
                }
            }

            // From this state, crash the recovery pass at every event
            // of every region: the system converges from each. (A frame
            // whose window's level was awaited replays without touching
            // a shard: only its pop is left, in the control region.)
            recovering.run(
                || {
                    let (control, stripe, _) = cut.replay(setup, run);
                    let (_, rt) = attach_enum_system(&control, &stripe);
                    (control, stripe, rt)
                },
                |(_, _, rt)| {
                    // A crash during recovery trips the whole system too.
                    let tripped = |e: &PError| {
                        assert!(e.is_crash(), "{e}");
                        assert!(rt.all_crashed(), "recovery crash must trip all regions");
                    };
                    let rep = rt.recover(RecoveryMode::Parallel).inspect_err(tripped)?;
                    // No re-run frames: a completed recovery pass leaves
                    // nothing for a second one.
                    assert!(rep.total_frames() <= 1, "one worker, one frame");
                    let again = rt.recover(RecoveryMode::Serial).inspect_err(tripped)?;
                    assert_eq!(again.total_frames(), 0, "recovered frames must not re-run");
                    Ok::<_, PError>(())
                },
                |(control, stripe, _), step| {
                    drain_and_check(&control, &stripe, &ops, &format!("{cut}, recovery {step}"));
                },
            );
        });
        assert!(events[1 + target] >= 3, "a window must span several events");
    }

    // ---- negative controls: deliberately broken recovery --------------

    #[test]
    fn recovery_into_the_wrong_shard_is_flagged_as_misrouted() {
        use pstack_verify::KvViolation;
        // Crash a put mid-flight in its home shard, then "recover" it
        // by skipping the home shard's evidence scan and re-executing
        // in the *other* shard's store — the striping invariant breaks
        // and the sharded verifier must say exactly that.
        let stripe = PMemBuilder::new().len(1 << 18).build_striped(2);
        let kv = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).unwrap();
        let key = 0u64;
        let home = kv.shard_of(key);
        let wrong = 1 - home;
        stripe.region(home).arm_failpoint(FailPlan::after_events(1));
        assert!(kv.put(1, 1, key, 42).unwrap_err().is_crash());
        stripe.crash_all(3, 0.0);
        let stripe2 = stripe.reopen_all().unwrap();
        let kv2 = ShardedKvStore::open(stripe2.regions(), KvVariant::Nsrl).unwrap();
        // The bug: recovery re-executes in a shard the router never
        // picked, instead of scanning the home shard.
        let put = KvBatchOp::Put {
            pid: 1,
            seq: 1,
            key,
            value: 42,
        };
        let out = kv2.shard(wrong).recover_batch(&[put]).unwrap();
        assert_eq!(out, [KvApplied::Applied]);

        let (_, verdict) = kv2
            .check(vec![KvOp {
                pid: 1,
                seq: 1,
                kind: KvOpKind::Put,
                key,
                value: 42,
                expected: 0,
                answer: KvAnswer::Stored(true),
            }])
            .unwrap();
        match verdict.violation() {
            Some(KvViolation::MisroutedKey { shard, home: h, .. }) => {
                assert_eq!(*shard, wrong);
                assert_eq!(*h, home);
            }
            other => panic!("expected MisroutedKey, got {other:?}"),
        }
    }

    #[test]
    fn skipping_the_recovery_scan_entirely_is_flagged_as_lost_update() {
        use pstack_verify::KvViolation;
        // Crash a put before anything publishes, then "recover" by
        // declaring it done without scanning or re-executing — the
        // answer claims success, no record exists anywhere, and the
        // verifier must report the lost update.
        let stripe = PMemBuilder::new().len(1 << 18).build_striped(2);
        let kv = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).unwrap();
        let key = 3u64;
        let home = kv.shard_of(key);
        stripe.region(home).arm_failpoint(FailPlan::after_events(0));
        assert!(kv.put(2, 9, key, 77).unwrap_err().is_crash());
        stripe.crash_all(5, 0.0);
        let stripe2 = stripe.reopen_all().unwrap();
        let kv2 = ShardedKvStore::open(stripe2.regions(), KvVariant::Nsrl).unwrap();

        let (_, verdict) = kv2
            .check(vec![KvOp {
                pid: 2,
                seq: 9,
                kind: KvOpKind::Put,
                key,
                value: 77,
                expected: 0,
                answer: KvAnswer::Stored(true), // the skipped-scan lie
            }])
            .unwrap();
        match verdict.violation() {
            Some(KvViolation::LostUpdate { tag }) => assert_eq!(*tag, (2, 9)),
            other => panic!("expected LostUpdate, got {other:?}"),
        }
    }

    #[test]
    fn sharded_noscan_is_caught() {
        // The sharded analogue of the §5.2 matrix-removal experiment,
        // with kills in normal rounds only: every replay that
        // re-executes an operation whose record already published in
        // its home shard is one a run kill left behind.
        let detected = caught(noscan(0.0), duplicate_application);
        assert!(detected > 0, "no duplicate application in no-scan runs");
    }
}
