//! CLI shell for `coterie-lint`.
//!
//! ```text
//! coterie-lint [--root DIR] [--deny] [--format human|json] [--report PATH]
//!              [--write-baseline] [--explain RULE]
//! ```
//!
//! * `--root DIR` — workspace root to scan (default: nearest ancestor of
//!   the current directory containing a root `Cargo.toml`, falling back
//!   to `.`).
//! * `--deny` — exit non-zero if any finding is produced (the tier-1 CI
//!   mode).
//! * `--format json` — print the machine-readable report to stdout
//!   instead of human diagnostics.
//! * `--report PATH` — additionally write the JSON report to `PATH`
//!   (used by tier1.sh to leave `target/lint-report.json` for diffing
//!   finding counts across PRs).
//! * `--write-baseline` — regenerate `crates/lint/baseline.json` from the
//!   scan's used-allow totals (the only sanctioned way to move the
//!   shrink-only ratchet).
//! * `--explain RULE` — print the rationale and a worked example for a
//!   rule family, then exit.

use coterie_lint::diag::render_json_report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Rationale + example per rule family, shown by `--explain`.
const EXPLANATIONS: &[(&str, &str)] = &[
    (
        "determinism",
        "D1 — the engine must be a pure function of its Input stream.\n\
         HashMap/HashSet iteration order is seeded per process, Instant/\n\
         SystemTime read the wall clock, thread_rng draws ambient entropy:\n\
         each one smuggles a hidden input past `ReplicaNode::step`, breaking\n\
         replayability and the explorer's digest dedup.\n\n\
         finding:  let mut held: HashMap<OpId, Lease> = HashMap::new();\n\
         fix:      let mut held: BTreeMap<OpId, Lease> = BTreeMap::new();",
    ),
    (
        "effects",
        "D2 — protocol code describes I/O, it never performs it.\n\
         Naming std::{fs,net,io,process} (or File/TcpStream/...) outside the\n\
         host boundary means some replica behavior exists that the simnet\n\
         cannot schedule, fault-inject, or replay.\n\n\
         finding:  std::fs::write(path, bytes)?;\n\
         fix:      effects.push(Effect::Persist(Box::new(delta)));",
    ),
    (
        "panic",
        "D3 — a panic in one replica is a crash the protocol did not choose.\n\
         .unwrap()/.expect()/panic!-family in live protocol code must carry\n\
         `// lint:allow(panic): <invariant>` so every potential abort is an\n\
         argued invariant, and the total is budgeted in baseline.json.\n\n\
         finding:  let w = self.pending.get(&op).unwrap();\n\
         fix:      let Some(w) = self.pending.get(&op) else { return; };",
    ),
    (
        "surface",
        "P1 — the protocol surface must be total: every Input/Effect/Msg/\n\
         MsgClass/Timer variant constructed somewhere, dispatched on\n\
         somewhere, and consumed by every designated consumer file (for\n\
         Effect: the node shell every host goes through). A wildcard `_`\n\
         arm over a protocol enum silently swallows variants added later —\n\
         exactly the bug class that breaks one host out of three.\n\n\
         finding:  match effect { Effect::Send { .. } => ..., _ => {} }\n\
         fix:      enumerate the remaining variants explicitly:\n\
                   Effect::SetTimer { .. } | Effect::CancelTimer(_) | ... => {}",
    ),
    (
        "lock",
        "P2 — no-wait locking only stays deadlock- and leak-free if every\n\
         acquire is paired with a release, a handoff, or a lease fence on\n\
         every path. A refusal/early-return path that keeps the exclusive\n\
         lock wedges the replica until an operator intervenes.\n\n\
         finding:  self.vol.lock.force_exclusive(op);\n\
                   if self.busy { return; }        // leaks the lock\n\
         fix:      arm a fence first: self.arm_lock_lease(ctx, op);",
    ),
    (
        "arith",
        "P3 — engine/codec.rs and engine/storage.rs parse adversarial bytes\n\
         (torn writes, bit rot), so unchecked arithmetic is a remote panic\n\
         or a wraparound mis-parse. Narrowing `as` casts, raw +/-/* on\n\
         lengths/offsets, and non-literal indexing must use try_from,\n\
         checked_*/saturating_*, and .get(..) so corruption degrades to\n\
         Undecodable/Quarantined.\n\n\
         finding:  let end = self.pos + len;  let b = &buf[pos..end];\n\
         fix:      let end = self.pos.checked_add(len).ok_or(...)?;\n\
                   let b = buf.get(pos..end).ok_or(...)?;",
    ),
    (
        "allow-hygiene",
        "Meta — the escape hatch polices itself. Every `lint:allow` needs a\n\
         reason, unused directives are findings, and used totals must match\n\
         crates/lint/baseline.json exactly: over is a regression, under\n\
         means the baseline must shrink (regenerate via --write-baseline).",
    ),
];

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut deny = false;
    let mut json = false;
    let mut report_path: Option<PathBuf> = None;
    let mut write_baseline = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--deny" => deny = true,
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("human") => json = false,
                other => {
                    eprintln!("coterie-lint: unknown --format {other:?} (want human|json)");
                    return ExitCode::from(2);
                }
            },
            "--report" => report_path = args.next().map(PathBuf::from),
            "--write-baseline" => write_baseline = true,
            "--explain" => {
                let Some(rule) = args.next() else {
                    eprintln!("coterie-lint: --explain needs a rule name (see --help)");
                    return ExitCode::from(2);
                };
                match EXPLANATIONS.iter().find(|(r, _)| *r == rule) {
                    Some((r, text)) => {
                        println!("{r}\n{}\n\n{text}", "=".repeat(r.len()));
                        return ExitCode::SUCCESS;
                    }
                    None => {
                        let known: Vec<&str> = EXPLANATIONS.iter().map(|(r, _)| *r).collect();
                        eprintln!(
                            "coterie-lint: unknown rule {rule:?}; known rules: {}",
                            known.join(", ")
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "coterie-lint [--root DIR] [--deny] [--format human|json] \
                     [--report PATH] [--write-baseline] [--explain RULE]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("coterie-lint: unknown argument {other:?} (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = root.unwrap_or_else(find_workspace_root);
    let outcome = match coterie_lint::run_workspace(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("coterie-lint: scan failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if write_baseline {
        // Start every family at zero so the regenerated file documents the
        // full rule set even when a family currently has no allows.
        let mut rules: Vec<(String, u32)> = EXPLANATIONS
            .iter()
            .filter(|(r, _)| *r != "allow-hygiene")
            .map(|(r, _)| (r.to_string(), 0))
            .collect();
        for (rule, _budgeted, used) in &outcome.baseline {
            match rules.iter_mut().find(|(r, _)| r == rule) {
                Some((_, n)) => *n = *used,
                None => rules.push((rule.clone(), *used)),
            }
        }
        let path = root.join(coterie_lint::BASELINE_REL);
        let text = coterie_lint::budget::render_baseline(&rules);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("coterie-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("coterie-lint: wrote {}", path.display());
    }

    let json_report =
        render_json_report(&outcome.findings, outcome.files_scanned, &outcome.baseline);
    if let Some(path) = &report_path {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(path, &json_report) {
            eprintln!("coterie-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if json {
        print!("{json_report}");
    } else {
        for f in &outcome.findings {
            print!("{}", f.render_human());
        }
        println!(
            "coterie-lint: {} finding(s) across {} policed file(s)",
            outcome.findings.len(),
            outcome.files_scanned
        );
    }

    if deny && !outcome.findings.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Walks up from the current directory looking for a `Cargo.toml` that
/// declares `[workspace]`; falls back to `.`.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}
