//! The rule sets and the per-file analysis pass.
//!
//! Three rules, scoped by file role (see [`crate::scan`]):
//!
//! * **`determinism`** (D1) — engine/protocol modules of `coterie-core`
//!   may not hold state in randomly-seeded collections (`HashMap`,
//!   `HashSet`), read wall clocks (`Instant`, `SystemTime`), draw ambient
//!   randomness (`rand::`, `thread_rng`), spawn threads, or print. The
//!   sans-I/O contract is *same inputs ⇒ same effects, byte-identical*;
//!   each of these smuggles a per-process input past the `Input` type.
//! * **`effects`** (D2) — real I/O (`std::fs`, `std::net`, `std::io`,
//!   `std::process` and their flagship types) may only be named at the
//!   host boundary. Protocol code *describes* I/O as `Effect`s.
//! * **`panic`** (D3) — `unwrap()`, `expect()`, `panic!` and friends in
//!   non-test protocol code must carry an inline
//!   `// lint:allow(panic): reason` annotation, and the total number of
//!   annotations is budgeted (see [`crate::budget`]).
//!
//! The flow-aware families build on the item-level parser
//! ([`crate::parse`]):
//!
//! * **`surface`** (P1) — protocol-surface exhaustiveness over
//!   `Input`/`Effect`/`Msg`/`MsgClass`/`Timer` (see [`crate::surface`]).
//! * **`lock`** (P2) — acquire/release pairing for the replica lock
//!   (see [`crate::flow`]).
//! * **`arith`** (P3) — checked arithmetic at the codec/storage boundary
//!   (see [`crate::flow`]).
//!
//! Suppression: `// lint:allow(<rule>): <reason>` on the offending line or
//! alone on the line above. A missing reason and an unused directive are
//! themselves findings (`allow-hygiene`), so the allowlist stays honest.

use crate::diag::Finding;
use crate::lexer::{lex, Comment, TokKind, Token};

/// Which rules apply to a file (decided from its workspace role).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoleSpec {
    /// D1 determinism rules.
    pub determinism: bool,
    /// D2 effect-discipline rules.
    pub effects: bool,
    /// D3 panic-hygiene rules.
    pub panic: bool,
    /// P1 protocol-surface exhaustiveness (see [`crate::surface`]).
    pub surface: bool,
    /// P2 lock-discipline flow rules (see [`crate::flow`]).
    pub lock: bool,
    /// P3 codec-arithmetic rules (see [`crate::flow`]).
    pub arith: bool,
}

impl RoleSpec {
    /// No rules at all (tool / fixture / vendored code).
    pub const NONE: RoleSpec = RoleSpec {
        determinism: false,
        effects: false,
        panic: false,
        surface: false,
        lock: false,
        arith: false,
    };

    /// True if any rule applies.
    pub fn any(&self) -> bool {
        self.determinism || self.effects || self.panic || self.surface || self.lock || self.arith
    }
}

/// A parsed `lint:allow` directive.
#[derive(Clone, Debug)]
struct AllowDirective {
    rule: String,
    has_reason: bool,
    /// Line the directive appears on.
    line: u32,
    /// Line of code the directive targets (same line for trailing
    /// comments, the next code line for comments owning their line).
    target: u32,
    used: bool,
}

/// Result of analyzing one file.
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    /// Findings to report (post-suppression).
    pub findings: Vec<Finding>,
    /// Count of *used* `lint:allow` directives per rule, for budgeting.
    pub allows_used: Vec<(String, u32)>,
}

/// In-flight analysis of one file. The workspace scan holds these open so
/// that cross-file passes (the protocol-surface matrix) can inject
/// findings — which still honor this file's `lint:allow` directives —
/// before directive hygiene is settled by `FileAnalysis::finish`.
#[derive(Clone, Debug, Default)]
pub struct FileAnalysis {
    /// Workspace-relative path.
    pub file: String,
    /// Findings so far (post-suppression).
    pub findings: Vec<Finding>,
    /// Used `lint:allow` directives as (rule, line), for budgeting.
    pub allows_used: Vec<(String, u32)>,
    /// Surface extraction for the workspace matrix pass (empty unless the
    /// file's role has `surface`).
    pub surface: crate::surface::FileSurface,
    directives: Vec<AllowDirective>,
    lines: Vec<String>,
    finished: bool,
}

impl FileAnalysis {
    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .cloned()
            .unwrap_or_default()
    }

    /// Adds raw findings (rule, message, line, col), suppressing each
    /// against the file's `lint:allow` directives.
    pub(crate) fn push_raw(&mut self, raw: Vec<(String, String, u32, u32)>) {
        for (rule, msg, line, col) in raw {
            let allowed = self
                .directives
                .iter_mut()
                .find(|d| d.rule == rule && d.target == line);
            match allowed {
                Some(d) => {
                    d.used = true;
                    self.allows_used.push((rule, line));
                }
                None => {
                    let snippet = self.snippet(line);
                    self.findings.push(Finding {
                        file: self.file.clone(),
                        line,
                        col,
                        rule,
                        message: msg,
                        snippet,
                    });
                }
            }
        }
    }

    /// Settles directive hygiene (missing reasons, unused allows) and
    /// sorts the findings. Call once, after every pass has run.
    pub(crate) fn finish(&mut self) {
        debug_assert!(!self.finished, "finish() called twice");
        self.finished = true;
        for d in &self.directives {
            if !d.has_reason {
                let snippet = self.snippet(d.line);
                self.findings.push(Finding {
                    file: self.file.clone(),
                    line: d.line,
                    col: 1,
                    rule: "allow-hygiene".into(),
                    message: format!(
                        "`lint:allow({})` without a reason; write \
                         `// lint:allow({}): <why this is sound>`",
                        d.rule, d.rule
                    ),
                    snippet,
                });
            } else if !d.used {
                let snippet = self.snippet(d.line);
                self.findings.push(Finding {
                    file: self.file.clone(),
                    line: d.line,
                    col: 1,
                    rule: "allow-hygiene".into(),
                    message: format!(
                        "unused `lint:allow({})` directive; delete it (the \
                         allow budget must only shrink)",
                        d.rule
                    ),
                    snippet,
                });
            }
        }
        self.findings
            .sort_by(|a, b| (a.line, a.col, &a.rule).cmp(&(b.line, b.col, &b.rule)));
    }
}

/// Analyzes one file's source under the given role: the single-file
/// convenience wrapper over [`analyze_file`] + `FileAnalysis::finish`.
/// (The workspace scan uses `analyze_file` directly so the surface matrix
/// can run in between.)
pub fn analyze(file: &str, src: &str, spec: RoleSpec) -> FileReport {
    let mut a = analyze_file(file, src, spec);
    a.finish();
    FileReport {
        findings: a.findings,
        allows_used: a.allows_used,
    }
}

/// Runs every per-file pass the role asks for and returns the open
/// analysis (directive hygiene not yet settled).
pub fn analyze_file(file: &str, src: &str, spec: RoleSpec) -> FileAnalysis {
    let mut analysis = FileAnalysis {
        file: file.to_string(),
        ..FileAnalysis::default()
    };
    if !spec.any() {
        analysis.finished = true;
        return analysis;
    }
    let lexed = lex(src);
    let skipped = skip_mask(&lexed.tokens, true);
    analysis.directives = parse_directives(&lexed.comments, &lexed.tokens);
    analysis.lines = src.lines().map(|l| l.to_string()).collect();

    let mut raw: Vec<(String, String, u32, u32)> = Vec::new(); // rule, msg, line, col
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if skipped[i] || t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let next_bang = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
        let next_paren = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let path_next = path_segment_after(toks, i); // X in `t::X`

        if spec.determinism {
            match t.text.as_str() {
                "HashMap" | "HashSet" => raw.push((
                    "determinism".into(),
                    format!(
                        "`{}` is forbidden in deterministic protocol state \
                         (iteration order is randomly seeded per process); \
                         use `BTreeMap`/`BTreeSet` or sort at iteration",
                        t.text
                    ),
                    t.line,
                    t.col,
                )),
                "Instant" | "SystemTime" => raw.push((
                    "determinism".into(),
                    format!(
                        "wall-clock type `{}` in engine code; time must \
                         arrive through `Input` (SimTime)",
                        t.text
                    ),
                    t.line,
                    t.col,
                )),
                "thread_rng" => raw.push((
                    "determinism".into(),
                    "ambient RNG in engine code; draw from the \
                     engine-owned seeded RNG (`NodeCtx::rand_below`)"
                        .into(),
                    t.line,
                    t.col,
                )),
                "rand" if path_next.is_some() => raw.push((
                    "determinism".into(),
                    "`rand::` in engine code; draw from the engine-owned \
                     seeded RNG (`NodeCtx::rand_below`)"
                        .into(),
                    t.line,
                    t.col,
                )),
                "std" if path_next.as_deref() == Some("thread") => raw.push((
                    "determinism".into(),
                    "`std::thread` in engine code; the engine is \
                     single-threaded and host-driven"
                        .into(),
                    t.line,
                    t.col,
                )),
                "println" | "eprintln" | "print" | "eprint" | "dbg" if next_bang => raw.push((
                    "determinism".into(),
                    format!(
                        "`{}!` in engine code; client-visible output must \
                         flow through `Effect::Output`",
                        t.text
                    ),
                    t.line,
                    t.col,
                )),
                _ => {}
            }
        }

        if spec.effects {
            let io_module = t.is_ident("std")
                && matches!(
                    path_next.as_deref(),
                    Some("fs") | Some("net") | Some("io") | Some("process")
                );
            // Skip path-segment positions (`std::fs::File`): the path head
            // already produced the module-level finding.
            let after_path_sep = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
            let io_type = !after_path_sep
                && matches!(
                    t.text.as_str(),
                    "File"
                        | "TcpStream"
                        | "TcpListener"
                        | "UdpSocket"
                        | "Stdin"
                        | "Stdout"
                        | "Stderr"
                        | "Command"
                );
            if io_module {
                raw.push((
                    "effects".into(),
                    format!(
                        "host-facing I/O module `std::{}` named outside the \
                         host boundary (engine/io.rs, host.rs, host crates); \
                         describe the interaction as an `Effect` instead",
                        path_next.as_deref().unwrap_or("")
                    ),
                    t.line,
                    t.col,
                ));
            } else if io_type {
                raw.push((
                    "effects".into(),
                    format!(
                        "host-facing I/O type `{}` named outside the host \
                         boundary; describe the interaction as an `Effect`",
                        t.text
                    ),
                    t.line,
                    t.col,
                ));
            }
        }

        if spec.panic {
            let method_panic =
                prev_dot && next_paren && matches!(t.text.as_str(), "unwrap" | "expect");
            let macro_panic = next_bang
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                );
            if method_panic || macro_panic {
                let shown = if macro_panic {
                    format!("{}!", t.text)
                } else {
                    format!(".{}()", t.text)
                };
                raw.push((
                    "panic".into(),
                    format!(
                        "`{shown}` in non-test protocol code without a \
                         `// lint:allow(panic): reason` annotation; return a \
                         typed error or justify the invariant inline"
                    ),
                    t.line,
                    t.col,
                ));
            }
        }
    }

    // The flow-aware passes need item structure on top of the tokens.
    if spec.lock || spec.arith || spec.surface {
        let parsed = crate::parse::parse(toks);
        if spec.lock {
            raw.extend(crate::flow::lock_pass(toks, &skipped, &parsed.fns));
        }
        if spec.arith {
            raw.extend(crate::flow::arith_pass(toks, &skipped));
        }
        if spec.surface {
            // The surface pass uses its own mask: test code is skipped, but
            // `simnet-host`-gated code stays live — the host adapter's
            // matches over tracked enums count toward the matrix.
            let live = skip_mask(toks, false);
            let (fs, wraw) = crate::surface::extract(file, toks, &live, &parsed);
            analysis.surface = fs;
            raw.extend(wraw);
        }
    }

    analysis.push_raw(raw);
    analysis
}

/// If `toks[i]` is followed by `::X`, returns `X`'s text.
fn path_segment_after(toks: &[Token], i: usize) -> Option<String> {
    if toks.get(i + 1)?.is_punct(':') && toks.get(i + 2)?.is_punct(':') {
        let seg = toks.get(i + 3)?;
        if seg.kind == TokKind::Ident {
            return Some(seg.text.clone());
        }
    }
    None
}

/// Parses `lint:allow(<rule>)[: reason]` directives out of the comments.
fn parse_directives(comments: &[Comment], toks: &[Token]) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for c in comments {
        let Some(at) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let tail = rest[close + 1..].trim_start();
        let has_reason = tail.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
        // A comment that owns its line targets the next line holding a
        // token; a trailing comment targets its own line.
        let target = if c.owns_line {
            toks.iter()
                .map(|t| t.line)
                .find(|&l| l > c.line)
                .unwrap_or(c.line)
        } else {
            c.line
        };
        out.push(AllowDirective {
            rule,
            has_reason,
            line: c.line,
            target,
            used: false,
        });
    }
    out
}

/// Marks tokens belonging to items gated behind `#[cfg(test)]`, `#[test]`,
/// `#[cfg(feature = "simnet-host")]`, or `#[cfg(any(test, ...))]` — those
/// are host/test territory where the engine rules do not apply. Gates
/// containing `not(...)` are conservatively treated as *live* code. With
/// `skip_host_gated` false, `simnet-host`-gated items stay live (the
/// surface pass polices the host adapter itself).
fn skip_mask(toks: &[Token], skip_host_gated: bool) -> Vec<bool> {
    let mut skip = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct('#') {
            i += 1;
            continue;
        }
        // Inner attribute `#![...]`: consume, never item-gating.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            if let Some(end) = matching_bracket(toks, i + 2) {
                i = end + 1;
                continue;
            }
            i += 1;
            continue;
        }
        let Some(attr_end) = matching_bracket(toks, i + 1) else {
            i += 1;
            continue;
        };
        let attr = &toks[i + 2..attr_end];
        let gates = attr_gates_test_or_host(attr, skip_host_gated);
        let mut j = attr_end + 1;
        if !gates {
            i = j;
            continue;
        }
        // Consume any further attributes on the same item.
        loop {
            if toks.get(j).is_some_and(|t| t.is_punct('#'))
                && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
            {
                match matching_bracket(toks, j + 1) {
                    Some(e) => j = e + 1,
                    None => break,
                }
            } else {
                break;
            }
        }
        // Find the end of the item: a `;` at depth 0, or the matching `}`
        // of the first `{` at depth 0.
        let item_start = i;
        let mut depth = 0i64;
        let mut k = j;
        while k < toks.len() {
            let t = &toks[k];
            if t.kind == TokKind::Punct {
                match t.text.as_bytes().first() {
                    Some(b'(') | Some(b'[') => depth += 1,
                    Some(b')') | Some(b']') => depth -= 1,
                    Some(b'{') => {
                        if depth == 0 {
                            // Matching close brace ends the item.
                            let mut braces = 1i64;
                            let mut m = k + 1;
                            while m < toks.len() && braces > 0 {
                                if toks[m].is_punct('{') {
                                    braces += 1;
                                } else if toks[m].is_punct('}') {
                                    braces -= 1;
                                }
                                m += 1;
                            }
                            k = m - 1;
                            break;
                        }
                        depth += 1;
                    }
                    Some(b'}') => depth -= 1,
                    Some(b';') if depth == 0 => break,
                    _ => {}
                }
            }
            k += 1;
        }
        let item_end = k.min(toks.len().saturating_sub(1));
        for s in skip.iter_mut().take(item_end + 1).skip(item_start) {
            *s = true;
        }
        i = item_end + 1;
    }
    skip
}

/// `toks[open]` should be `[`; returns the index of its matching `]`.
fn matching_bracket(toks: &[Token], open: usize) -> Option<usize> {
    if !toks.get(open)?.is_punct('[') {
        return None;
    }
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Does this attribute token list gate the item into test/host territory?
fn attr_gates_test_or_host(attr: &[Token], skip_host_gated: bool) -> bool {
    // Bare `#[test]` / `#[bench]`.
    if attr.len() == 1 && (attr[0].is_ident("test") || attr[0].is_ident("bench")) {
        return true;
    }
    if !attr.first().is_some_and(|t| t.is_ident("cfg")) {
        return false;
    }
    if attr.iter().any(|t| t.is_ident("not")) {
        return false; // `cfg(not(test))` is live code
    }
    attr.iter().any(|t| {
        t.is_ident("test")
            || (skip_host_gated && t.kind == TokKind::Literal && t.text.contains("simnet-host"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: RoleSpec = RoleSpec {
        determinism: true,
        effects: true,
        panic: true,
        surface: true,
        lock: true,
        arith: true,
    };

    fn rules_of(src: &str, spec: RoleSpec) -> Vec<(String, u32)> {
        analyze("t.rs", src, spec)
            .findings
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn flags_hash_collections_and_clocks() {
        let src = "use std::collections::HashMap;\nfn f() { let t = Instant::now(); }\n";
        let got = rules_of(src, ALL);
        assert_eq!(
            got,
            vec![
                ("determinism".to_string(), 1),
                ("determinism".to_string(), 2)
            ]
        );
    }

    #[test]
    fn panic_requires_annotation() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(rules_of(src, ALL), vec![("panic".to_string(), 1)]);
        let annotated =
            "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint:allow(panic): caller checked\n";
        assert!(rules_of(annotated, ALL).is_empty());
    }

    #[test]
    fn allow_on_previous_line_targets_next_code_line() {
        let src = "// lint:allow(panic): invariant: map key inserted above\nfn f() { m.get(&k).unwrap(); }\n";
        assert!(rules_of(src, ALL).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint:allow(panic)\n";
        let got = rules_of(src, ALL);
        assert_eq!(got, vec![("allow-hygiene".to_string(), 1)]);
    }

    #[test]
    fn unused_allow_is_a_finding() {
        let src = "// lint:allow(determinism): stale reason\nfn f() {}\n";
        let got = rules_of(src, ALL);
        assert_eq!(got, vec![("allow-hygiene".to_string(), 1)]);
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { None::<u8>.unwrap(); }\n}\nfn live() {}\n";
        assert!(rules_of(src, ALL).is_empty());
    }

    #[test]
    fn simnet_host_gated_items_are_exempt() {
        let src = "#[cfg(feature = \"simnet-host\")]\npub mod host { use std::net::TcpStream; }\nuse std::net::TcpStream;\n";
        let got = rules_of(src, ALL);
        assert_eq!(got, vec![("effects".to_string(), 3)]);
    }

    #[test]
    fn cfg_not_test_stays_live() {
        let src = "#[cfg(not(test))]\nfn f() { let m: HashMap<u8, u8>; }\n";
        assert_eq!(rules_of(src, ALL), vec![("determinism".to_string(), 2)]);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
        assert!(rules_of(src, ALL).is_empty());
    }

    #[test]
    fn role_gates_rules() {
        let src = "use std::collections::HashMap;\nfn f(x: Option<u8>) { x.unwrap(); }\n";
        let got = rules_of(
            src,
            RoleSpec {
                panic: true,
                ..RoleSpec::NONE
            },
        );
        assert_eq!(got, vec![("panic".to_string(), 2)]);
    }

    #[test]
    fn words_in_strings_and_comments_do_not_fire() {
        let src = "// HashMap here\nfn f() -> &'static str { \"Instant::now unwrap()\" }\n";
        assert!(rules_of(src, ALL).is_empty());
    }
}
