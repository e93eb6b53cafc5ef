//! Post-mortem inspector for persistent NVRAM images.
//!
//! ```sh
//! pstack-dump <image-file>
//! ```
//!
//! Opens a file-backed NVRAM image (as produced by the runtime on the
//! file backend — e.g. by `examples/file_backed_restart` or the
//! `kill_campaign` harness), and prints:
//!
//! * the runtime superblock (workers, stack layout, heap geometry);
//! * every worker's persistent stack, frame by frame (function ids,
//!   argument previews, return-slot states) — exactly what a recovery
//!   boot would walk;
//! * heap allocator statistics from a consistency-checked block walk;
//! * the kill(1) image header, if the image carries one, and then the
//!   image's descriptor table: its descriptor count, how many are
//!   pending and answered, and each pending descriptor's operation —
//!   what the next worker process would re-enqueue.
//!
//! The inspector never writes to the image: it is safe to point at the
//! artifact of a crashed (killed) run before deciding how to recover it.

use std::path::Path;
use std::process::ExitCode;

use pstack::chaos::KillHeader;
use pstack::core::stack::dump_stack;
use pstack::core::{FunctionRegistry, Runtime};
use pstack::heap::PHeap;
use pstack::nvram::PMemBuilder;

fn dump(path: &Path) -> Result<(), Box<dyn std::error::Error>> {
    let len = std::fs::metadata(path)?.len() as usize;
    println!("image: {} ({} bytes)", path.display(), len);
    let pmem = PMemBuilder::new().len(len).build_file(path)?;

    // The registry is irrelevant for inspection: nothing is invoked.
    let stub = FunctionRegistry::new();
    let rt = Runtime::open(pmem.clone(), &stub)?;
    println!("\nsuperblock:");
    println!("  workers:      {}", rt.workers());
    println!("  stack layout: {}", rt.stack_kind());
    println!("  user root:    {}", rt.user_root()?);

    for pid in 0..rt.workers() {
        match rt.open_stack(pid) {
            Ok(stack) => {
                println!("\nworker {pid}:");
                for line in dump_stack(stack.as_ref())?.lines() {
                    println!("  {line}");
                }
                match stack.check_consistency() {
                    Ok(()) => println!("  consistency: ok"),
                    Err(e) => println!("  consistency: FAILED — {e}"),
                }
            }
            Err(e) => println!("\nworker {pid}: unreadable stack — {e}"),
        }
    }

    println!("\nheap:");
    let heap: &PHeap = rt.heap();
    let stats = heap.stats();
    println!(
        "  blocks:        {} used, {} free",
        stats.used_blocks, stats.free_blocks
    );
    println!(
        "  payload bytes: {} used, {} free",
        stats.used_payload_bytes, stats.free_payload_bytes
    );
    match heap.check_consistency() {
        Ok(()) => println!("  consistency:   ok"),
        Err(e) => println!("  consistency:   FAILED — {e}"),
    }

    if let Some(header) = KillHeader::read(&pmem)? {
        println!("\nkill(1) image header:");
        println!("  workload:      {:?}", header.object);
        println!("  stripe files:  {}", header.stripe_files);
        println!("  region length: {} bytes", header.region_len);
        match header.descriptor_table(path) {
            Ok(table) => {
                let pending = table.pending()?;
                println!("\ndescriptor table:");
                println!("  descriptors:   {}", table.len());
                println!("  pending:       {}", pending.len());
                println!("  answered:      {}", table.len() - pending.len());
                for idx in pending {
                    println!("  pending #{idx}: {:?}", table.op(idx)?);
                }
            }
            Err(e) => println!("\ndescriptor table: unreadable — {e}"),
        }
    }

    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _self = args.next();
    let Some(path) = args.next() else {
        eprintln!("usage: pstack-dump <image-file>");
        return ExitCode::from(2);
    };
    match dump(Path::new(&path)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pstack-dump: {e}");
            ExitCode::from(1)
        }
    }
}
