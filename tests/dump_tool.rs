//! Integration test for the `pstack-dump` image inspector: build a
//! file-backed system, leave an in-flight frame on a worker stack via a
//! crash, and check the inspector renders it without touching the
//! image; and check it names the workload a kill(1) image's header
//! records, and lists the image's descriptor table.

use std::path::PathBuf;
use std::process::Command;

use pstack::chaos::{CampaignConfig, KillHeader, Object};
use pstack::core::{FunctionRegistry, Runtime, RuntimeConfig, Task};
use pstack::nvram::{FailPlan, PMemBuilder};
use pstack::recoverable::TaskResult;

fn tmp_image(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pstack-dumptest-{tag}-{}.img", std::process::id()));
    p
}

#[test]
fn dump_renders_crashed_image() {
    let image = tmp_image("crashed");
    let _ = std::fs::remove_file(&image);
    {
        let pmem = PMemBuilder::new().len(1 << 20).build_file(&image).unwrap();
        let mut registry = FunctionRegistry::new();
        registry
            .register_pair(
                0xDEAD,
                |ctx, _args| {
                    // Burn persistence events until the fail-point cuts us.
                    for i in 0..1000u64 {
                        ctx.pmem.write_u64(ctx.user_root(), i)?;
                        ctx.pmem.flush(ctx.user_root(), 8)?;
                    }
                    Ok(None)
                },
                |_ctx, _args| Ok(None),
            )
            .unwrap();
        let rt = Runtime::format(pmem.clone(), RuntimeConfig::new(2), &registry).unwrap();
        pmem.arm_failpoint(FailPlan::after_events(60));
        let report = rt.run_tasks(vec![Task::new(0xDEAD, b"payload!".to_vec())]);
        assert!(report.crashed);
        // Process "dies": handles dropped, only the file remains.
    }

    let before = std::fs::read(&image).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pstack-dump"))
        .arg(&image)
        .output()
        .expect("inspector runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("superblock"), "{text}");
    assert!(text.contains("workers:      2"), "{text}");
    assert!(
        text.contains("func 0xdead"),
        "in-flight frame missing: {text}"
    );
    assert!(text.contains("consistency: ok"), "{text}");
    assert!(text.contains("heap:"), "{text}");
    // Read-only: the image is bit-identical after inspection.
    assert_eq!(
        before,
        std::fs::read(&image).unwrap(),
        "inspector must not write"
    );

    let _ = std::fs::remove_file(&image);
}

#[test]
fn dump_rejects_garbage_and_missing_files() {
    let image = tmp_image("garbage");
    std::fs::write(&image, vec![0u8; 4096]).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pstack-dump"))
        .arg(&image)
        .output()
        .unwrap();
    assert!(!out.status.success(), "garbage image must not parse");
    let _ = std::fs::remove_file(&image);

    let out = Command::new(env!("CARGO_BIN_EXE_pstack-dump"))
        .arg("/nonexistent/image.img")
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = Command::new(env!("CARGO_BIN_EXE_pstack-dump"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "usage error code");
}

#[test]
fn dump_names_the_workload_of_a_kill_image() {
    let image = tmp_image("kill");
    let _ = std::fs::remove_file(&image);
    {
        let pmem = PMemBuilder::new().len(1 << 20).build_file(&image).unwrap();
        let stub = FunctionRegistry::new();
        Runtime::format(pmem.clone(), RuntimeConfig::new(1), &stub).unwrap();
        let header = KillHeader {
            object: Object::Queue,
            stripe_files: 3,
            region_len: 1 << 20,
        };
        header.write(&pmem).unwrap();
    }
    let out = Command::new(env!("CARGO_BIN_EXE_pstack-dump"))
        .arg(&image)
        .output()
        .expect("inspector runs");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{text}");
    assert!(text.contains("workload:      Queue"), "{text}");
    assert!(text.contains("stripe files:  3"), "{text}");
    let _ = std::fs::remove_file(&image);
}

#[test]
fn dump_lists_the_descriptor_table_of_a_cas_kill_image() {
    let image = tmp_image("table");
    let stripe0 = {
        let mut p = image.clone().into_os_string();
        p.push(".0");
        PathBuf::from(p)
    };
    let cfg = CampaignConfig {
        image: Some(image.clone()),
        ..CampaignConfig::wide(6, 3)
    };
    let header = KillHeader::format(&cfg).unwrap();
    assert_eq!(header.object, Object::Cas);
    let ops = {
        // Two descriptors answered, as a killed worker leaves them.
        let table = header.descriptor_table(&image).unwrap();
        table.mark_done(1, 2, TaskResult::Swapped(true)).unwrap();
        table.mark_done(4, 0, TaskResult::Swapped(false)).unwrap();
        (0..6).map(|i| table.op(i).unwrap()).collect::<Vec<_>>()
    };
    let before = std::fs::read(&stripe0).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pstack-dump"))
        .arg(&image)
        .output()
        .expect("inspector runs");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{text}");
    assert!(text.contains("workload:      Cas"), "{text}");
    assert!(text.contains("descriptors:   6"), "{text}");
    assert!(text.contains("pending:       4"), "{text}");
    assert!(text.contains("answered:      2"), "{text}");
    for idx in [0, 2, 3, 5] {
        let line = format!("pending #{idx}: {:?}", ops[idx]);
        assert!(text.contains(&line), "{line} missing: {text}");
    }
    assert!(
        !text.contains("pending #1:") && !text.contains("pending #4:"),
        "{text}"
    );
    assert_eq!(
        before,
        std::fs::read(&stripe0).unwrap(),
        "inspector must not write"
    );
    let _ = std::fs::remove_file(&stripe0);
    let _ = std::fs::remove_file(&image);
}
