//! The compacting rows of the KV scenario table (tests only): §5.2's
//! kill-and-recover methodology aimed at the **generational log
//! rewrite**. Two shards with deliberately tiny logs take sustained
//! traffic, a shard whose headroom falls under the threshold is compacted
//! by a `KvCompactFunction` task ahead of the round's windows, and kills
//! land inside the rewrite, at the root swap and inside the recovery
//! passes that replay the interrupted frame. Every
//! campaign must end with a shard having absorbed strictly more lifetime
//! mutations than its formatted capacity, verifier-clean.

#[cfg(test)]
mod tests {
    use pstack_kv::{shard_of, KvVariant};

    use crate::campaign::table::{compacting, gate, with_kv};
    use crate::{run_campaign, CampaignConfig};

    #[test]
    fn compaction_campaign_outlives_capacity_and_verifies() {
        let report = run_campaign(&compacting(300, 21)).unwrap();
        assert!(report.is_consistent(), "{:?}", report.execution);
        assert!(
            report.outlived_original_capacity(),
            "published {:?} vs capacity {} — the whole point is to cross it",
            report.published_per_shard(),
            report.log_cap
        );
        assert!(
            report.generations.iter().any(|&g| g > 0),
            "compactions must trigger: generations {:?}",
            report.generations
        );
        assert!(
            report.total_crashes() > 0,
            "the campaign should experience kills"
        );
        assert!(
            report.psan_violations.is_empty(),
            "sanitizer findings: {:?}",
            report.psan_violations
        );
    }

    #[test]
    fn compaction_campaigns_are_deterministic_per_seed() {
        let cfg = compacting(200, 5);
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a.execution, b.execution);
        assert_eq!(a.generations, b.generations);
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.compaction_kills, b.compaction_kills);
    }

    #[test]
    fn disabled_compaction_names_the_shard_that_should_trigger() {
        // threshold 0 disables the compactor; the hot shard fills and
        // the report names it as the candidate.
        let cfg = CampaignConfig {
            max_crashes: 0,
            ..compacting(80, 11)
        };
        let cfg = with_kv(cfg, |kv| {
            kv.compact_threshold = 0.0;
            kv.key_space = 1; // one key → one hot shard
            kv.op_mix = (1.0, 0.0, 0.0); // all puts
            kv.log_cap_per_shard = Some(8);
        });
        let report = run_campaign(&cfg).unwrap();
        assert!(
            report.is_consistent(),
            "capacity-rejected puts are legal answers: {:?}",
            report.execution
        );
        assert_eq!(report.generations, vec![0, 0], "compaction was disabled");
        let hot = shard_of(0, 2);
        assert_eq!(report.compaction_candidate(0.5), Some(hot));
        assert!(!report.outlived_original_capacity());
    }

    #[test]
    fn psan_flags_the_no_persist_before_swap_variant() {
        use pstack_nvram::PsanViolationKind;
        // The seeded bug skips the generation's persist barrier before
        // the root swap. Recovery still converges (the verifier stays
        // green without crashes), but the sanitizer sees the swap
        // publish over dirty lines — the bug the verifier cannot catch.
        let cfg = CampaignConfig {
            max_crashes: 0, // deterministic: violations fire at swap time
            ..compacting(300, 21)
        };
        let cfg = with_kv(cfg, |kv| kv.variant = KvVariant::NoPersistBeforeSwap);
        let report = run_campaign(&cfg).unwrap();
        assert!(
            report.is_consistent(),
            "without crashes the buggy variant still verifies: {:?}",
            report.execution
        );
        assert!(
            report.generations.iter().any(|&g| g > 0),
            "compactions must trigger"
        );
        let unordered: Vec<_> = report
            .psan_violations
            .iter()
            .filter(|v| matches!(v.kind, PsanViolationKind::UnorderedCommit))
            .collect();
        assert!(
            !unordered.is_empty(),
            "the skipped persist barrier must surface as unordered commits: {:?}",
            report.psan_violations
        );
        for v in &unordered {
            assert!(
                v.region.starts_with("shard-"),
                "attribution names the shard region: {v:?}"
            );
            assert_eq!(
                v.op_label, "kv.compact",
                "attribution names the compaction op: {v:?}"
            );
        }
    }

    #[test]
    fn two_hundred_compaction_crash_cycles_lose_nothing() {
        // The compaction gate: ≥ 200 crash/recover cycles across seeds,
        // with kills inside compaction rewrites, at the root swap, and
        // inside the recovery passes that replay the compaction's frame
        // — zero violations of the generation-aware check, and capacity
        // crossed anyway.
        let g = gate(|seed| {
            let cfg = CampaignConfig {
                max_crashes: 18,
                crash_prob: 0.35,
                recovery_crash_prob: 0.5,
                ..compacting(260, 9000 + seed)
            };
            with_kv(cfg, |kv| kv.compaction_crash_prob = 0.7)
        });
        assert!(
            g.compaction_kills > 0,
            "kills must land inside compaction tasks"
        );
        assert!(
            g.compaction_replays > 0,
            "some compaction kill must be settled by replaying its frame"
        );
        assert!(
            g.recovery_kills > 0,
            "kills must land inside recovery passes"
        );
        assert!(
            g.outlived * 10 >= g.campaigns * 9,
            "nearly every campaign should cross its original capacity \
             ({}/{})",
            g.outlived,
            g.campaigns
        );
    }
}
