//! `persist-lint` — a text-based persist-discipline lint.
//!
//! Three rules, all heuristics over the source text (this is a lint,
//! not a verifier — PSan checks the semantics at runtime; this catches
//! the layering and "wrote a commit point, forgot the flush" mistakes
//! at review time, next to fmt and clippy in CI):
//!
//! * `raw-backend` — code outside `crates/nvram` naming the storage
//!   backend (`Backend::`, `.backend`, `.image[`). Every persistent
//!   byte must go through the `PMem` interposition layer or it is
//!   invisible to the stats counters, the fail-point engine and PSan.
//! * `publish-no-persist` — a store whose destination looks like a
//!   commit point (`root`, `head`, `epoch`, `selector`, or a request
//!   slot's identity word `req_id`, in the line) with no
//!   `flush`/`persist`/`fence` in the following ten lines.
//!   Publishing before persisting is the early-publish bug class. (A
//!   store staged on purpose and persisted elsewhere — the request
//!   descriptor, persisted by the drain — carries a waiver naming
//!   where.)
//! * `publish-before-persist` — a CAS (`compare_exchange` /
//!   `fetch_update`) whose call names a commit point with no
//!   `flush`/`persist`/`fence` in the *preceding* ten lines. A
//!   lock-free publish makes its record reachable the instant the CAS
//!   lands, so the evidence (record bytes, log tail) must already be
//!   persistent — flushing after the CAS is too late on a buffered
//!   region.
//! * `await-before-publish` — a commit-point CAS or `RootCell` swap
//!   whose *preceding* ten lines issue an asynchronous flight
//!   (`flush_async`) without any `await_ticket`/`fence`/synchronous
//!   persist between issue and publish. An issued flight is only
//!   *scheduled* durability; publishing against an un-awaited ticket
//!   is the pipelined spelling of the early-publish bug (PSan catches
//!   it at runtime, this catches it at review time).
//!
//! A finding is waived by `// persist-lint: allow(<rule>) <reason>` on
//! the flagged line or the line above it. Waivers are printed so they
//! stay auditable.
//!
//! Exit status: 0 clean (waivers allowed), 1 findings, 2 usage error.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Directories scanned, relative to the repo root. `crates/nvram` is
/// the interposition layer itself and `shims/` emulate volatile crates
/// — neither is subject to the rules.
const ROOTS: &[&str] = &["crates", "src", "examples", "tests"];
const SKIP: &[&str] = &["crates/nvram", "shims", "target"];

const WINDOW: usize = 10;
const STORE_PATTERNS: &[&str] = &[
    ".write_u64(",
    ".write_u32(",
    ".write_i64(",
    ".write_u8(",
    ".write(",
    ".fill(",
];
const PUBLISH_NAMES: &[&str] = &["root", "head", "epoch", "selector", "req_id"];
// `flush(` deliberately does not substring-match `flush_async(`: an
// async issue is not durability evidence, only its await is.
// `await_ticket(` and `.commit(` (a pending batch's await-then-publish
// step) count as persists so pipelined commit paths lint clean.
const PERSIST_PATTERNS: &[&str] = &["flush(", "persist(", "fence(", "await_ticket(", ".commit("];
/// Flight issues: scheduled durability, not durability.
const ASYNC_ISSUE_PATTERNS: &[&str] = &["flush_async("];
// persist-lint: allow(publish-before-persist) the pattern table itself
const CAS_PATTERNS: &[&str] = &[".compare_exchange(", ".fetch_update("];
/// Publish calls the `await-before-publish` rule watches: CASes plus
/// `RootCell::swap` (the compaction commit point).
const PUBLISH_CALL_PATTERNS: &[&str] = &[".compare_exchange(", ".fetch_update(", ".swap("];
/// Lines after a CAS call scanned for publish names — rustfmt splits a
/// call's operands across up to this many continuation lines.
const CAS_SPAN: usize = 3;
// persist-lint: allow(raw-backend) the pattern table itself, not a backend access
const BACKEND_PATTERNS: &[&str] = &["Backend::", ".backend", ".image["];

struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    text: String,
    waived: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.text.trim()
        )
    }
}

/// The code part of a line: everything before a `//` comment.
fn code_of(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

fn contains_any(haystack: &str, needles: &[&str]) -> bool {
    needles.iter().any(|n| haystack.contains(n))
}

/// `true` if the flagged line carries a waiver for `rule` — on the
/// line itself or up to two lines above it (method chains split the
/// receiver and the call across lines).
fn waived(lines: &[&str], idx: usize, rule: &str) -> bool {
    let marker = format!("persist-lint: allow({rule})");
    lines[idx.saturating_sub(2)..=idx]
        .iter()
        .any(|l| l.contains(&marker))
}

fn lint_file(path: &Path, src: &str, out: &mut Vec<Finding>) {
    let lines: Vec<&str> = src.lines().collect();
    for (i, raw) in lines.iter().enumerate() {
        let code = code_of(raw);
        if contains_any(code, BACKEND_PATTERNS) {
            out.push(Finding {
                file: path.to_path_buf(),
                line: i + 1,
                rule: "raw-backend",
                text: (*raw).to_string(),
                waived: waived(&lines, i, "raw-backend"),
            });
        }
        let lower = code.to_ascii_lowercase();
        if contains_any(code, STORE_PATTERNS) && contains_any(&lower, PUBLISH_NAMES) {
            let persisted = lines[i..(i + 1 + WINDOW).min(lines.len())]
                .iter()
                .any(|l| contains_any(code_of(l), PERSIST_PATTERNS));
            if !persisted {
                out.push(Finding {
                    file: path.to_path_buf(),
                    line: i + 1,
                    rule: "publish-no-persist",
                    text: (*raw).to_string(),
                    waived: waived(&lines, i, "publish-no-persist"),
                });
            }
        }
        if contains_any(code, CAS_PATTERNS) {
            let span: String = lines[i..(i + 1 + CAS_SPAN).min(lines.len())]
                .iter()
                .map(|l| code_of(l).to_ascii_lowercase())
                .collect::<Vec<_>>()
                .join("\n");
            if contains_any(&span, PUBLISH_NAMES) {
                let persisted_before = lines[i.saturating_sub(WINDOW)..i]
                    .iter()
                    .any(|l| contains_any(code_of(l), PERSIST_PATTERNS));
                if !persisted_before {
                    out.push(Finding {
                        file: path.to_path_buf(),
                        line: i + 1,
                        rule: "publish-before-persist",
                        text: (*raw).to_string(),
                        waived: waived(&lines, i, "publish-before-persist"),
                    });
                }
            }
        }
        if contains_any(code, PUBLISH_CALL_PATTERNS) {
            let span: String = lines[i..(i + 1 + CAS_SPAN).min(lines.len())]
                .iter()
                .map(|l| code_of(l).to_ascii_lowercase())
                .collect::<Vec<_>>()
                .join("\n");
            if contains_any(&span, PUBLISH_NAMES) {
                let before = &lines[i.saturating_sub(WINDOW)..i];
                let issued = before
                    .iter()
                    .any(|l| contains_any(code_of(l), ASYNC_ISSUE_PATTERNS));
                let awaited = before
                    .iter()
                    .any(|l| contains_any(code_of(l), PERSIST_PATTERNS));
                if issued && !awaited {
                    out.push(Finding {
                        file: path.to_path_buf(),
                        line: i + 1,
                        rule: "await-before-publish",
                        text: (*raw).to_string(),
                        waived: waived(&lines, i, "await-before-publish"),
                    });
                }
            }
        }
    }
}

fn walk(dir: &Path, repo: &Path, out: &mut Vec<Finding>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let rel = path.strip_prefix(repo).unwrap_or(&path);
        if SKIP.iter().any(|s| rel == Path::new(s)) {
            continue;
        }
        if path.is_dir() {
            walk(&path, repo, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path)?;
            lint_file(rel, &src, out);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let repo = PathBuf::from(args.next().unwrap_or_else(|| ".".to_string()));
    if args.next().is_some() {
        eprintln!("usage: persist-lint [repo-root]");
        return ExitCode::from(2);
    }

    let mut findings = Vec::new();
    for root in ROOTS {
        let dir = repo.join(root);
        if !dir.is_dir() {
            continue;
        }
        if let Err(e) = walk(&dir, &repo, &mut findings) {
            eprintln!("persist-lint: {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    let mut hard = 0usize;
    for f in &findings {
        if f.waived {
            println!("waived  {f}");
        } else {
            println!("FINDING {f}");
            hard += 1;
        }
    }
    println!(
        "persist-lint: {} finding(s), {} waived",
        hard,
        findings.len() - hard
    );
    if hard > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The fixtures assemble each trigger pattern from fragments so the
    // lint — which scans this very file — never sees a literal match
    // inside the test strings. `call("flush", "_async")` produces the
    // source line the tests exercise without spelling it out here.
    fn call(recv: &str, head: &str, tail: &str, args: &str) -> String {
        format!("{recv}.{head}{tail}({args})?;")
    }

    fn issue() -> String {
        format!("let t = {}", call("pmem", "flush", "_async", "off, len"))
    }

    fn src_of(lines: &[String]) -> String {
        let mut src = lines.join("\n");
        src.push('\n');
        src
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        let mut findings = Vec::new();
        lint_file(Path::new("x.rs"), src, &mut findings);
        findings
            .iter()
            .filter(|f| !f.waived)
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn publish_against_unawaited_flight_is_flagged() {
        let src = src_of(&[
            issue(),
            call("head_cell", "compare", "_exchange", "old_head, new_head"),
        ]);
        // The issue is not persist evidence, so the CAS trips both the
        // sync rule and the pipelined one.
        assert_eq!(
            rules_of(&src),
            vec!["publish-before-persist", "await-before-publish"]
        );
    }

    #[test]
    fn awaited_flight_before_publish_is_clean() {
        let src = src_of(&[
            issue(),
            call("pmem", "await", "_ticket", "&t"),
            call("head_cell", "compare", "_exchange", "old_head, new_head"),
        ]);
        assert_eq!(rules_of(&src), Vec::<&str>::new());
    }

    #[test]
    fn root_swap_against_unawaited_flight_is_flagged() {
        let src = src_of(&[issue(), call("cell", "sw", "ap", "&guard, root.get()")]);
        assert_eq!(rules_of(&src), vec!["await-before-publish"]);
    }

    #[test]
    fn fence_counts_as_await_evidence() {
        let src = src_of(&[
            issue(),
            call("pmem", "fen", "ce", ""),
            call("cell", "sw", "ap", "&guard, root.get()"),
        ]);
        assert_eq!(rules_of(&src), Vec::<&str>::new());
    }

    #[test]
    fn waiver_silences_the_rule_but_stays_visible() {
        let waiver = format!(
            "// persist-lint: {}(await-before-publish) test double",
            "allow"
        );
        let src = src_of(&[
            issue(),
            waiver,
            call("cell", "sw", "ap", "&guard, root.get()"),
        ]);
        let mut findings = Vec::new();
        lint_file(Path::new("x.rs"), &src, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].waived);
    }
}
