//! The kill(1) policy: a CAS or queue row ([`Kill::Processes`]) run by
//! separate OS processes over image files, SIGKILLed by a driver.
//!
//! Fail-point rows emulate the kill. This module removes the emulation:
//! the driver ([`crate::run_campaign`]) formats the row's image — a
//! control file for the runtime and one file per stripe region, the
//! header in the control file naming the workload — then repeatedly
//! spawns a **worker** process (`exe child-run <image>`) that runs the
//! pending descriptors on a `StripedRuntime` over the files, and
//! SIGKILLs it — exactly the paper's methodology ("we used UNIX utility
//! `kill` to interrupt the system at random moments"). The kill is
//! placed by the child's own progress: a child reports its persistence
//! events over its stdout, and the driver kills it once the count drawn
//! from the row's crash window is reached, whatever the device costs.
//! The worker's volatile state (its dirty-line cache, threads, volatile
//! stack indexes) genuinely evaporates with the process; only what it
//! flushed reached the files. After each kill the driver runs a
//! **recovery** process (`exe child-recover <image>`), which it may kill
//! too — the paper's repeated-failure scenario — until one recovery pass
//! completes. When every descriptor is done the driver checks the
//! execution on the image.
//!
//! The `kill_campaign` binary is the usual `exe`: see
//! `crates/chaos/src/bin/kill_campaign.rs` for its CLI.

use std::cell::Cell;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use pstack_core::{FunctionRegistry, PError, RecoveryMode, StripedRuntime, Task};
use pstack_kv::ShardedKvStore;
use pstack_nvram::{MemError, PMem, PMemBuilder, PMemStripe};

use crate::campaign::{stripe_file, CampaignConfig, Object, Objects, OBJECT_REGION_LEN};
use crate::cycle::{self, Cx, Machine, Policy, Striped, Tally};
use crate::header::{open_file, KillHeader};

/// Per-line persist latency every child runs under, emulating the
/// paper's slow HDD persists. A child's run then spans enough wall-clock
/// time that the driver's kill, placed by the child's event reports,
/// lands while the work it aimed at is still going on.
const PERSIST_DELAY: Duration = Duration::from_micros(150);
/// How often a child reports its persistence events.
const REPORT_EVERY: Duration = Duration::from_micros(50);

/// Runs a formatted CAS or queue row under kill(1): writes the image's
/// [`KillHeader`] into the control region, then runs §5.2's loop with
/// children as the machine. Returns the quiescent image's objects for
/// step 9.
pub(crate) fn drive(
    formatted: &Striped,
    mut object: Object,
    exe: &Path,
    cfg: &CampaignConfig,
    cx: &mut Cx,
) -> Result<Objects, PError> {
    let image = cfg
        .image
        .as_deref()
        .ok_or_else(|| PError::InvalidConfig("a kill(1) row needs an image".into()))?;
    header(object, formatted.stripe.len()).write(&formatted.control)?;
    let mut machine = Processes {
        exe,
        image,
        stripe: open_image(image, Duration::ZERO)?.1,
        kill_at: Cell::new(None),
    };
    cycle::cycle(&mut machine, &mut object, cx)
}

/// The header of an image holding `object` in `stripe_files` regions.
fn header(object: Object, stripe_files: usize) -> KillHeader {
    KillHeader {
        object,
        stripe_files,
        region_len: OBJECT_REGION_LEN as u64,
    }
}

/// Opens a formatted image: its control region, its stripe and the
/// object its header names. Every region persists under
/// `persist_delay`.
///
/// # Errors
///
/// [`PError::CorruptStack`] if the control file carries no header;
/// [`PError::InvalidConfig`] for an unknown workload tag, or stripe
/// files missing, shorter than the header's region length, or more
/// than it counts; I/O errors as they come.
fn open_image(image: &Path, persist_delay: Duration) -> Result<(PMem, PMemStripe, Object), PError> {
    let builder = PMemBuilder::new().persist_delay(persist_delay);
    let control = open_file(builder.clone(), image, 1)?;
    let KillHeader {
        object,
        stripe_files: files,
        region_len: len,
    } = KillHeader::read(&control)?.ok_or_else(|| {
        PError::CorruptStack(format!(
            "image {} has no kill-harness header",
            image.display()
        ))
    })?;
    if files == 0 || stripe_file(image, files).exists() {
        return Err(PError::InvalidConfig(format!(
            "image {}: its stripe files disagree with the header's count {files}",
            image.display()
        )));
    }
    let regions = (0..files).map(|i| open_file(builder.clone(), &stripe_file(image, i), len));
    let stripe = PMemStripe::from_regions(regions.collect::<Result<_, _>>()?);
    Ok((control, stripe, object))
}

/// Runs `work` while a reporter thread hands `progress` the boot's
/// persistence events (control region and stripe) every
/// [`REPORT_EVERY`].
fn reporting<T>(
    rt: &StripedRuntime,
    progress: &(dyn Fn(u64) + Sync),
    work: impl FnOnce() -> T,
) -> T {
    let done = AtomicBool::new(false);
    let regions = std::iter::once(rt.control()).chain(rt.stripe().regions());
    let regions: Vec<&PMem> = regions.collect();
    let events = || {
        let counts = regions.iter().map(|r| r.stats().snapshot());
        counts
            .map(|s| s.writes + s.lines_persisted + s.cas_ops)
            .sum::<u64>()
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                progress(events());
                std::thread::sleep(REPORT_EVERY);
            }
        });
        let out = work();
        done.store(true, Ordering::Relaxed);
        out
    })
}

/// Normal-mode body of a worker process: attach to the image, enqueue
/// the still-pending descriptors in random order and run them, handing
/// `progress` the events done as it goes. The process is expected to be
/// SIGKILLed at any moment; everything it must not lose is flushed to
/// the files. Returns the tasks it completed (0: nothing was pending).
///
/// # Errors
///
/// A typed error for an image that is not a well-formed kill(1) image
/// (see the module docs), attachment failures, or an in-process crash
/// signal (no fail-point is armed in a worker process).
pub fn child_run(image: &Path, progress: &(dyn Fn(u64) + Sync)) -> Result<usize, PError> {
    let (control, stripe, object) = open_image(image, PERSIST_DELAY)?;
    let (registry, objects) = object.open(&stripe)?;
    let rt = StripedRuntime::open(control, stripe, &registry)?;
    let mut tasks = objects.pending()?;
    // Shuffled from OS entropy: kill timing already makes runs
    // non-reproducible, and distinct processes must not replay one
    // fixed order.
    tasks.shuffle(&mut SmallRng::seed_from_u64(rand::rng().random()));
    let report = reporting(&rt, progress, || rt.run_tasks(tasks));
    if report.crashed {
        let msg = "worker process observed an in-process crash signal";
        return Err(PError::Task(msg.into()));
    }
    Ok(report.completed)
}

/// Recovery-mode body: attach and run one parallel recovery pass over
/// all worker stacks, handing `progress` the events done as it goes.
/// Returns the number of frames recovered.
///
/// # Errors
///
/// As [`child_run`], or recovery failures.
pub fn child_recover(image: &Path, progress: &(dyn Fn(u64) + Sync)) -> Result<usize, PError> {
    let (control, stripe, object) = open_image(image, PERSIST_DELAY)?;
    let (registry, _) = object.open(&stripe)?;
    let rt = StripedRuntime::open(control, stripe, &registry)?;
    let report = reporting(&rt, progress, || rt.recover(RecoveryMode::Parallel))?;
    Ok(report.total_frames())
}

/// Child subcommands the driver spawns; the binary maps these onto
/// [`child_run`] / [`child_recover`].
const CHILD_RUN: &str = "child-run";
const CHILD_RECOVER: &str = "child-recover";

/// The paper's own machine: the system is an OS process over image
/// files, and it dies by SIGKILL once it reports the event count the
/// policy drew.
struct Processes<'a> {
    exe: &'a Path,
    image: &'a Path,
    /// The driver's own handle on the stripe, for the quiescence check
    /// between children. It loads the files at open, so every child
    /// that ran makes it stale.
    stripe: PMemStripe,
    /// Events into the next child at which the driver kills it.
    kill_at: Cell<Option<u64>>,
}

impl Processes<'_> {
    /// Runs one child until it exits or reports the armed event count.
    /// `true` if the driver killed it.
    fn child(&self, mode: &str, what: &str) -> Result<bool, PError> {
        let io_err =
            |context: &str, e: std::io::Error| PError::Task(format!("{context} {what}: {e}"));
        let mut child = Command::new(self.exe)
            .arg(mode)
            .arg(self.image)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| io_err("spawn", e))?;
        let progress = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // §5.2 step 5: the kill lands at the drawn event count; a child
        // that never reports it ran to its end.
        let kill_at = self.kill_at.take().unwrap_or(u64::MAX);
        let mut reports = progress.lines().map_while(Result::ok);
        if reports.any(|line| line.parse::<u64>().is_ok_and(|events| events >= kill_at)) {
            let _ = child.kill();
        }
        let status = child.wait().map_err(|e| io_err("wait for", e))?;
        match (status.success(), status.code()) {
            (true, _) => Ok(false),
            // No exit code: the driver's own SIGKILL, the experiment.
            (false, None) => Ok(true),
            (false, Some(_)) => Err(PError::Task(format!("{what} process failed: {status}"))),
        }
    }

    fn refresh(&mut self) -> Result<(), PError> {
        self.stripe = open_image(self.image, Duration::ZERO)?.1;
        Ok(())
    }
}

impl Machine for Processes<'_> {
    /// Every child opens its own runtime.
    type Runtime = ();

    fn stripe(&self) -> &PMemStripe {
        &self.stripe
    }

    fn open(&self, _: &FunctionRegistry) -> Result<(), PError> {
        Ok(())
    }

    fn arm_run(&self, rng: &mut SmallRng, policy: &Policy) {
        self.kill_at.set(Some(policy.window(rng)));
    }

    fn arm_recovery(&self, rng: &mut SmallRng, policy: &Policy) {
        if policy.recovery_kill(rng) {
            self.kill_at.set(Some(policy.fuse(rng)));
        }
    }

    /// The child exited on its own; the image is what it left.
    fn disarm(&mut self) -> Result<(), PError> {
        self.refresh()
    }

    fn reopen(
        &mut self,
        (): &(),
        _: &mut dyn FnMut(&PMemStripe) -> Result<FunctionRegistry, PError>,
        _: &mut Tally,
    ) -> Result<(), PError> {
        self.refresh()
    }

    fn sweep(&self, _: &mut Tally) {}

    /// The worker process re-derives the pending set from the image and
    /// enqueues it in an order of its own.
    fn run_tasks(&self, (): &(), _: Vec<Task>) -> Result<bool, PError> {
        self.child(CHILD_RUN, "worker")
    }

    fn replay(&self, (): &(), _: Option<&ShardedKvStore>) -> Result<usize, PError> {
        if self.child(CHILD_RECOVER, "recovery")? {
            return Err(MemError::Crashed.into());
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use pstack_recoverable::{QueueVariant, CAS_TASK_FUNC_ID};

    use super::*;
    use crate::{Execution, Workload};

    fn tmp_image(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pstack-kill-{tag}-{}.img", std::process::id()));
        p
    }

    /// Formats `cfg`'s image the way a kill(1) row does.
    fn format(cfg: &CampaignConfig) -> Object {
        KillHeader::format(cfg).unwrap().object
    }

    fn image_row(image: &Path, workload: Workload, n_ops: usize, seed: u64) -> CampaignConfig {
        CampaignConfig {
            image: Some(image.to_path_buf()),
            ..CampaignConfig::new(workload, n_ops, seed)
        }
    }

    fn cas_row(image: &Path, n_ops: usize, seed: u64) -> CampaignConfig {
        CampaignConfig {
            image: Some(image.to_path_buf()),
            ..CampaignConfig::wide(n_ops, seed)
        }
    }

    fn remove(image: &Path) {
        let _ = std::fs::remove_file(stripe_file(image, 0));
        let _ = std::fs::remove_file(image);
    }

    fn no_progress(_: u64) {}

    #[test]
    fn format_then_attach_round_trips_root_record() {
        let image = tmp_image("root");
        assert_eq!(format(&cas_row(&image, 10, 3)), Object::Cas);
        let (_, stripe, object) = open_image(&image, Duration::ZERO).unwrap();
        assert_eq!(object, Object::Cas, "the header names the workload");
        let (registry, objects) = object.open(&stripe).unwrap();
        let Objects::Cas { cas, table, .. } = &objects else {
            panic!("a CAS image");
        };
        assert_eq!(cas.processes(), 4);
        assert_eq!(table.len(), 10);
        assert_eq!(objects.pending().unwrap().len(), 10);
        assert!(registry.contains(CAS_TASK_FUNC_ID));
        remove(&image);
    }

    #[test]
    fn attach_rejects_unformatted_image() {
        // Hostile images answer with a typed error, never a panic or a
        // hang — from the driver's open and from both child bodies.
        let image = tmp_image("bad");
        let rejects = |expect: fn(&PError) -> bool| {
            let err = open_image(&image, Duration::ZERO).map(|_| ()).unwrap_err();
            assert!(expect(&err), "{err:?}");
            assert!(child_run(&image, &no_progress).is_err());
            assert!(child_recover(&image, &no_progress).is_err());
        };
        let invalid = |e: &PError| matches!(e, PError::InvalidConfig(_));
        std::fs::write(&image, vec![0u8; 4096]).unwrap();
        rejects(|e| matches!(e, PError::CorruptStack(_)));

        // A missing stripe file.
        format(&cas_row(&image, 4, 1));
        std::fs::remove_file(stripe_file(&image, 0)).unwrap();
        rejects(invalid);

        // A truncated stripe file.
        format(&cas_row(&image, 4, 1));
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(stripe_file(&image, 0))
            .unwrap();
        file.set_len(OBJECT_REGION_LEN as u64 / 2).unwrap();
        rejects(invalid);

        // More stripe files than the header counts, then fewer.
        format(&cas_row(&image, 4, 1));
        std::fs::write(stripe_file(&image, 1), vec![0u8; 64]).unwrap();
        rejects(invalid);
        std::fs::remove_file(stripe_file(&image, 1)).unwrap();
        let control = PMemBuilder::new()
            .len(cycle::CONTROL_REGION_LEN)
            .build_file(&image)
            .unwrap();
        header(Object::Cas, 2).write(&control).unwrap();
        rejects(invalid);
        remove(&image);
    }

    #[test]
    fn child_run_completes_everything_without_kills() {
        // In-process use of the child bodies: one "worker process" run
        // with no kill must finish all descriptors and report progress,
        // after which another run finds nothing and the image verifies.
        let image = tmp_image("norm");
        let object = format(&cas_row(&image, 12, 5));
        let reports = std::sync::atomic::AtomicUsize::new(0);
        let progress = |_| {
            reports.fetch_add(1, Ordering::Relaxed);
        };
        assert_eq!(child_run(&image, &progress).unwrap(), 12);
        assert!(reports.load(Ordering::Relaxed) > 0, "progress was reported");
        assert_eq!(child_run(&image, &no_progress).unwrap(), 0);
        let (_, stripe, _) = open_image(&image, Duration::ZERO).unwrap();
        let execution = object.open(&stripe).unwrap().1.verify().unwrap();
        assert_eq!(execution.ops(), 12);
        assert!(execution.is_consistent(), "{execution:?}");
        remove(&image);
    }

    #[test]
    fn child_recover_is_idempotent_on_clean_image() {
        let image = tmp_image("rec");
        format(&cas_row(&image, 4, 9));
        assert_eq!(child_recover(&image, &no_progress).unwrap(), 0);
        assert_eq!(child_recover(&image, &no_progress).unwrap(), 0);
        remove(&image);
    }

    #[test]
    fn collect_report_rejects_incomplete_campaign() {
        let image = tmp_image("inc");
        let object = format(&cas_row(&image, 4, 11));
        let (_, stripe, _) = open_image(&image, Duration::ZERO).unwrap();
        let objects = object.open(&stripe).unwrap().1;
        assert!(matches!(objects.verify(), Err(PError::Task(_))));
        remove(&image);
    }

    #[test]
    fn kill_rows_outside_cas_and_queue_are_rejected() {
        let cfg = CampaignConfig {
            kill: crate::Kill::Processes {
                exe: "/nonexistent".into(),
            },
            ..CampaignConfig::served(1, 1, 1)
        };
        let err = crate::run_campaign(&cfg).unwrap_err();
        assert!(matches!(err, PError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn queue_image_round_trips_and_runs_in_process() {
        let image = tmp_image("queue");
        let workload = Workload::Queue(QueueVariant::Nsrl);
        let object = format(&image_row(&image, workload, 14, 8));
        assert_eq!(object, Object::Queue);
        let (_, stripe, _) = open_image(&image, Duration::ZERO).unwrap();
        assert_eq!(object.open(&stripe).unwrap().1.pending().unwrap().len(), 14);
        drop(stripe);
        assert_eq!(child_run(&image, &no_progress).unwrap(), 14);
        let (_, stripe, _) = open_image(&image, Duration::ZERO).unwrap();
        let execution = object.open(&stripe).unwrap().1.verify().unwrap();
        assert!(matches!(execution, Execution::Queue { .. }));
        assert!(execution.is_consistent(), "{execution:?}");
        remove(&image);
    }
}
