//! The workspace lint pass (`mrsky-audit lint`).
//!
//! Rules match *token sequences* from [`crate::lexer`], never raw text,
//! so a banned pattern inside a string literal, raw string, char
//! literal, or comment can never fire. Comments are still lexed —
//! they are where `SAFETY:` and `ORDERING:` justifications live.
//!
//! | rule | pattern | why |
//! |---|---|---|
//! | `no-unwrap` | `.unwrap()` | library code must surface `Result`s, not abort the simulation |
//! | `no-expect` | `.expect(` | same as `no-unwrap`; the message does not make the abort acceptable |
//! | `no-panic` | `panic!(` | explicit aborts belong in binaries and tests only |
//! | `lossy-index-cast` | `as usize` inside `[...]` index arithmetic | silently truncates on 32-bit targets and hides overflow |
//! | `hashmap-state` | `HashMap` in `mini-mapreduce`/`mr-skyline` | iteration order is non-deterministic; reduce/merge paths must use `BTreeMap` |
//! | `unsafe-needs-safety-comment` | `unsafe` without a `SAFETY:` comment nearby | every unsafe block must say why it is sound |
//! | `no-wall-clock` | `Instant::now` / `SystemTime::now` in runtime crates | timestamps must come from an injected [`EpochClock`](../trace) so runs replay deterministically |
//! | `relaxed-ordering-audit` | `Ordering::Relaxed` outside a pure counter | needs an `// ORDERING:` comment justifying why relaxed is enough |
//! | `raw-sync-primitive` | `std::sync` primitives in facaded crates | the four model-checked crates must go through `mrsky_model::sync` |
//! | `bounded-channel-only` | `mpsc::channel(` / `unbounded(` / `SegQueue` on request-path crates | an unbounded queue turns overload into unbounded memory growth; the serving path must shed with a typed `Overloaded` rejection instead |
//! | `oracle-independence` | `skyline_algos::{sfs, salsa, kernel, block, bnl, dominance}` in `crates/core/src/validate.rs` | the validator is the oracle for those kernels; sharing their code would let a kernel bug validate itself |
//!
//! Tokens inside `#[cfg(test)]` regions are exempt (tests may assert
//! freely). Existing debt is recorded in an allowlist file
//! (`lint-baseline.txt` at the workspace root) mapping `rule file count`;
//! a file may never *exceed* its allowance, and when it drops below, the
//! pass asks for the allowance to be ratcheted down so the debt cannot
//! grow back. With `--enforce-ratchet` (on in CI), an un-ratcheted or
//! stale allowance fails the run outright.

use crate::lexer::{tokenize, Token, TokenKind};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One banned-pattern occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub excerpt: String,
}

/// Outcome of a lint run after applying the allowlist.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings in files that exceeded their allowance (or have none).
    pub violations: Vec<LintFinding>,
    /// `(rule, file, found, allowed)` where found < allowed: the baseline
    /// should be ratcheted down to `found`.
    pub ratchet: Vec<(String, String, usize, usize)>,
    /// Allowlist entries whose file/rule produced no findings at all.
    pub stale_allowances: Vec<(String, String)>,
    /// Every finding, pre-allowlist — used to regenerate the baseline.
    pub all_findings: Vec<LintFinding>,
    pub files_scanned: usize,
}

impl LintReport {
    /// `true` when there are no violations. Ratchet advice and stale
    /// allowances do NOT fail this check — use [`Self::is_clean_strict`]
    /// (the CI mode) for that.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// `true` only when there are no violations, no over-generous
    /// allowances waiting to be ratcheted down, and no stale allowlist
    /// entries. This is what `--enforce-ratchet` checks: debt may never
    /// silently grow back into the slack of an old allowance.
    pub fn is_clean_strict(&self) -> bool {
        self.violations.is_empty() && self.ratchet.is_empty() && self.stale_allowances.is_empty()
    }

    /// Human rendering of violations and ratchet advice.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "lint: {} file(s) scanned, {} finding(s), {} violation(s)",
            self.files_scanned,
            self.all_findings.len(),
            self.violations.len()
        );
        for v in &self.violations {
            let _ = writeln!(
                out,
                "  violation[{}] {}:{}: {}",
                v.rule, v.file, v.line, v.excerpt
            );
        }
        for (rule, file, found, allowed) in &self.ratchet {
            let _ = writeln!(
                out,
                "  ratchet[{rule}] {file}: {found} finding(s) < {allowed} allowed — \
                 lower the baseline to {found}"
            );
        }
        for (rule, file) in &self.stale_allowances {
            let _ = writeln!(
                out,
                "  stale allowance [{rule}] {file}: no findings — remove it"
            );
        }
        out
    }

    /// Regenerates the baseline file content from the current findings.
    pub fn baseline(&self) -> String {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<(String, &'static str), usize> = BTreeMap::new();
        for f in &self.all_findings {
            *counts.entry((f.file.clone(), f.rule)).or_insert(0) += 1;
        }
        let mut out = String::from(
            "# mrsky-audit lint baseline: `rule file max-count` per line.\n\
             # Counts may only go DOWN. Regenerate with `mrsky-audit lint --print-baseline`.\n",
        );
        for ((file, rule), n) in counts {
            let _ = writeln!(out, "{rule} {file} {n}");
        }
        out
    }
}

/// Settings for one lint run.
pub struct LintConfig {
    /// Workspace root to scan (`crates/*/src` and `src/` below it).
    pub root: PathBuf,
    /// Allowlist file. `Some(path)` that does not exist is an error —
    /// a missing baseline must fail loudly, not silently allow nothing
    /// (or worse, silently pass a `--enforce-ratchet` run). `None`
    /// means "no allowances", used by `--print-baseline` regeneration.
    pub allowlist: Option<PathBuf>,
}

/// Runs the lint pass.
pub fn run_lint(config: &LintConfig) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut files = Vec::new();
    let crates_dir = config.root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs_files(&src, &mut files)?;
            }
        }
    }
    let root_src = config.root.join("src");
    if root_src.is_dir() {
        collect_rs_files(&root_src, &mut files)?;
    }
    files.sort();

    for path in &files {
        let text = fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(&config.root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        scan_file(&rel, &text, &mut report.all_findings);
        report.files_scanned += 1;
    }

    apply_allowlist(config, &mut report)?;
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Crates whose runtime sources may never read the wall clock: their
/// timestamps must flow through an injected `EpochClock`, so simulated
/// runs replay bit-identically. The CLI binary (root `src/`) is the
/// outermost real-time consumer and stays out of scope, as do the
/// bench/analysis tools.
const WALL_CLOCK_SCOPE: &[&str] = &[
    "crates/trace/",
    "crates/mapreduce/",
    "crates/skyline/",
    "crates/chaos/",
    "crates/core/",
    "crates/qws/",
    "crates/model/",
    "crates/serve/",
];

/// The four crates refactored onto the `mrsky_model::sync` facade: any
/// direct `std::sync` primitive here silently escapes the model
/// checker's schedule control.
const RAW_SYNC_SCOPE: &[&str] = &[
    "crates/trace/",
    "crates/mapreduce/",
    "crates/skyline/",
    "crates/chaos/",
    "crates/serve/",
];

/// Crates on the serving/request path: every queue here must be
/// bounded, because an unbounded channel converts overload into
/// unbounded memory growth instead of a typed `Overloaded` rejection
/// (admission control can only shed what it can count).
const REQUEST_PATH_SCOPE: &[&str] = &["crates/serve/", "crates/mapreduce/"];

/// `std::sync` leaves that carry no scheduling behavior of their own
/// and are fine to use directly even in facaded crates.
const ALLOWED_SYNC_LEAVES: &[&str] = &["Arc", "Weak", "OnceLock", "LazyLock"];

/// `Ordering::Relaxed` is exempt when it parameterizes a pure counter
/// bump on the same line (`fetch_add`/`fetch_sub`) — the canonical
/// can't-go-wrong use — otherwise it needs a justification comment.
const COUNTER_OPS: &[&str] = &["fetch_add", "fetch_sub"];

/// The skyline validator: the oracle every kernel is checked against.
const ORACLE_FILE: &str = "crates/core/src/validate.rs";

/// `skyline_algos` modules the oracle may not use: the local kernels
/// and the dominance code they share.
const KERNEL_MODULES: &[&str] = &["sfs", "salsa", "kernel", "block", "bnl", "dominance"];

/// How many lines above an `unsafe` token a `SAFETY:` comment may sit.
const SAFETY_LOOKBACK_LINES: usize = 6;
/// How many lines above `Ordering::Relaxed` an `ORDERING:` comment may sit.
const ORDERING_LOOKBACK_LINES: usize = 3;

fn in_scope(rel: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| rel.starts_with(p))
}

/// Scans one file's token stream, appending findings.
fn scan_file(rel: &str, text: &str, findings: &mut Vec<LintFinding>) {
    let tokens = tokenize(text);
    // Indices of non-comment tokens: rules match sequences over these,
    // while comment tokens stay addressable for justification lookups.
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.kind.is_comment())
        .map(|(i, _)| i)
        .collect();
    let lines: Vec<&str> = text.lines().collect();

    let mut scan = FileScan {
        rel,
        tokens: &tokens,
        code: &code,
        lines: &lines,
        findings,
    };
    scan.walk();
}

struct FileScan<'a, 'src> {
    rel: &'a str,
    tokens: &'a [Token<'src>],
    /// Indices into `tokens` of the non-comment tokens.
    code: &'a [usize],
    lines: &'a [&'src str],
    findings: &'a mut Vec<LintFinding>,
}

impl FileScan<'_, '_> {
    /// The `k`-th code token after position `j` (0 = the token at `j`).
    fn at(&self, j: usize, k: usize) -> Option<&Token<'_>> {
        self.code.get(j + k).map(|&i| &self.tokens[i])
    }

    fn is_punct(&self, j: usize, k: usize, text: &str) -> bool {
        self.at(j, k)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
    }

    fn is_ident(&self, j: usize, k: usize, text: &str) -> bool {
        self.at(j, k)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
    }

    /// `::` as two `:` puncts.
    fn is_path_sep(&self, j: usize, k: usize) -> bool {
        self.is_punct(j, k, ":") && self.is_punct(j, k + 1, ":")
    }

    fn push(&mut self, rule: &'static str, line: usize) {
        let excerpt = self
            .lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim_end_matches('\r').trim().chars().take(90).collect())
            .unwrap_or_default();
        self.findings.push(LintFinding {
            rule,
            file: self.rel.to_string(),
            line,
            excerpt,
        });
    }

    /// `true` if any comment containing `needle` appears on lines
    /// `[line - back, line]` — justification comments may sit a few
    /// lines above the code they justify, or trail it on the same line.
    fn comment_near(&self, line: usize, back: usize, needle: &str) -> bool {
        let lo = line.saturating_sub(back);
        self.tokens.iter().any(|t| {
            t.kind.is_comment() && t.line >= lo && t.line <= line && t.text.contains(needle)
        })
    }

    /// `true` if a code ident in `names` appears on exactly `line`.
    fn ident_on_line(&self, line: usize, names: &[&str]) -> bool {
        self.code.iter().any(|&i| {
            let t = &self.tokens[i];
            t.line == line && t.kind == TokenKind::Ident && names.contains(&t.text)
        })
    }

    fn walk(&mut self) {
        let mut depth: i64 = 0;
        let mut sq_depth: i64 = 0;
        // A `#[cfg(test)]` attribute exempts tokens up to the end of the
        // item it decorates: through the matching `}` of the block it
        // opens, or through the `;` of a block-less item.
        let mut pending_test_attr = false;
        let mut test_region_floor: Option<i64> = None;

        let mut j = 0;
        while j < self.code.len() {
            // Attributes are skipped wholesale: their brackets must not
            // count toward index depth, and nothing inside one is a
            // runtime pattern. `#[cfg(test)]`-style attributes arm the
            // test exemption, however many lines they span.
            if self.is_punct(j, 0, "#") {
                let bracket_at = if self.is_punct(j, 1, "[") {
                    Some(1)
                } else if self.is_punct(j, 1, "!") && self.is_punct(j, 2, "[") {
                    Some(2)
                } else {
                    None
                };
                if let Some(off) = bracket_at {
                    let (end, is_test) = self.scan_attribute(j + off);
                    if is_test {
                        pending_test_attr = true;
                    }
                    j = end + 1;
                    continue;
                }
            }

            let in_test = test_region_floor.is_some() || pending_test_attr;
            if !in_test {
                self.rules_at(j, sq_depth);
            }

            if let Some(t) = self.at(j, 0) {
                if t.kind == TokenKind::Punct {
                    match t.text {
                        "{" => {
                            if pending_test_attr && test_region_floor.is_none() {
                                test_region_floor = Some(depth);
                                pending_test_attr = false;
                            }
                            depth += 1;
                        }
                        "}" => {
                            depth -= 1;
                            if test_region_floor == Some(depth) {
                                test_region_floor = None;
                            }
                        }
                        "[" => sq_depth += 1,
                        "]" => sq_depth -= 1,
                        ";" if test_region_floor.is_none() => pending_test_attr = false,
                        _ => {}
                    }
                }
            }
            j += 1;
        }
    }

    /// Scans a balanced `[...]` attribute starting at code position
    /// `open` (the `[`). Returns the position of the closing `]` and
    /// whether the attribute is a test gate — it mentions `cfg` and
    /// `test` without `not`, covering `#[cfg(test)]` and
    /// `#[cfg(all(test, ...))]` but not `#[cfg(not(test))]`.
    fn scan_attribute(&self, open: usize) -> (usize, bool) {
        let mut bd = 0i64;
        let (mut saw_cfg, mut saw_test, mut saw_not) = (false, false, false);
        let mut m = open;
        while m < self.code.len() {
            let t = &self.tokens[self.code[m]];
            match (t.kind, t.text) {
                (TokenKind::Punct, "[") => bd += 1,
                (TokenKind::Punct, "]") => {
                    bd -= 1;
                    if bd == 0 {
                        break;
                    }
                }
                (TokenKind::Ident, "cfg") => saw_cfg = true,
                (TokenKind::Ident, "test") => saw_test = true,
                (TokenKind::Ident, "not") => saw_not = true,
                _ => {}
            }
            m += 1;
        }
        (m, saw_cfg && saw_test && !saw_not)
    }

    /// Applies every rule anchored at code position `j`.
    fn rules_at(&mut self, j: usize, sq_depth: i64) {
        let Some(t) = self.at(j, 0) else { return };
        let (kind, text, line) = (t.kind, t.text, t.line);

        if kind == TokenKind::Punct && text == "." {
            if self.is_ident(j, 1, "unwrap") && self.is_punct(j, 2, "(") {
                self.push("no-unwrap", line);
            } else if self.is_ident(j, 1, "expect") && self.is_punct(j, 2, "(") {
                self.push("no-expect", line);
            }
            return;
        }
        if kind != TokenKind::Ident {
            return;
        }
        match text {
            "panic" if self.is_punct(j, 1, "!") => self.push("no-panic", line),
            "as" if sq_depth > 0
                && (self.is_ident(j, 1, "usize") || self.is_ident(j, 1, "isize")) =>
            {
                self.push("lossy-index-cast", line);
            }
            "HashMap"
                if self.rel.starts_with("crates/mapreduce/")
                    || self.rel.starts_with("crates/core/") =>
            {
                self.push("hashmap-state", line);
            }
            "Instant" | "SystemTime"
                if in_scope(self.rel, WALL_CLOCK_SCOPE)
                    && self.is_path_sep(j, 1)
                    && self.is_ident(j, 3, "now") =>
            {
                self.push("no-wall-clock", line);
            }
            "unsafe" if !self.comment_near(line, SAFETY_LOOKBACK_LINES, "SAFETY:") => {
                self.push("unsafe-needs-safety-comment", line);
            }
            "Ordering" if self.is_path_sep(j, 1) && self.is_ident(j, 3, "Relaxed") => {
                let pure_counter = self.ident_on_line(line, COUNTER_OPS);
                let justified = self.comment_near(line, ORDERING_LOOKBACK_LINES, "ORDERING:");
                if !pure_counter && !justified {
                    self.push("relaxed-ordering-audit", line);
                }
            }
            "std"
                if in_scope(self.rel, RAW_SYNC_SCOPE)
                    && self.is_path_sep(j, 1)
                    && self.is_ident(j, 3, "sync")
                    && self.is_path_sep(j, 4) =>
            {
                self.path_segments_at(j + 6, "raw-sync-primitive", |name| {
                    name != "self" && !ALLOWED_SYNC_LEAVES.contains(&name)
                });
            }
            "skyline_algos" if self.rel == ORACLE_FILE && self.is_path_sep(j, 1) => {
                self.path_segments_at(j + 3, "oracle-independence", |name| {
                    KERNEL_MODULES.contains(&name)
                });
            }
            "parking_lot" | "crossbeam" if in_scope(self.rel, RAW_SYNC_SCOPE) => {
                self.push("raw-sync-primitive", line);
            }
            // `mpsc::channel(...)` is the unbounded constructor;
            // `mpsc::sync_channel(cap)` is the bounded one and passes.
            "mpsc"
                if in_scope(self.rel, REQUEST_PATH_SCOPE)
                    && self.is_path_sep(j, 1)
                    && self.is_ident(j, 3, "channel")
                    && self.is_punct(j, 4, "(") =>
            {
                self.push("bounded-channel-only", line);
            }
            // Unbounded constructors by any path: crossbeam_channel's
            // `unbounded()`, tokio-style `unbounded_channel()`, and the
            // lock-free unbounded `SegQueue`.
            "unbounded" | "unbounded_channel"
                if in_scope(self.rel, REQUEST_PATH_SCOPE) && self.is_punct(j, 1, "(") =>
            {
                self.push("bounded-channel-only", line);
            }
            "SegQueue" if in_scope(self.rel, REQUEST_PATH_SCOPE) => {
                self.push("bounded-channel-only", line);
            }
            _ => {}
        }
    }

    /// Flags `banned` segments of a path after its prefix (say
    /// `std::sync::`), at code position `j`: a bare segment
    /// (`std::sync::Mutex`, `std::sync::atomic`) or the first-level
    /// segments of a brace group (`std::sync::{Arc, Mutex}` flags `Mutex`
    /// only).
    fn path_segments_at(&mut self, j: usize, rule: &'static str, banned: impl Fn(&str) -> bool) {
        let Some(t) = self.at(j, 0) else { return };
        if t.kind == TokenKind::Ident {
            if banned(t.text) {
                self.push(rule, t.line);
            }
            return;
        }
        if !(t.kind == TokenKind::Punct && t.text == "{") {
            return;
        }
        let mut bd = 0i64;
        let mut k = j;
        let mut segment_head = false;
        while let Some(t) = self.at(k, 0) {
            match (t.kind, t.text) {
                (TokenKind::Punct, "{") => {
                    bd += 1;
                    segment_head = bd == 1;
                }
                (TokenKind::Punct, "}") => {
                    bd -= 1;
                    if bd == 0 {
                        return;
                    }
                }
                (TokenKind::Punct, ",") => segment_head = bd == 1,
                (TokenKind::Ident, name) if segment_head => {
                    segment_head = false;
                    if banned(name) {
                        self.push(rule, t.line);
                    }
                }
                _ => {}
            }
            k += 1;
        }
    }
}

fn apply_allowlist(config: &LintConfig, report: &mut LintReport) -> io::Result<()> {
    use std::collections::BTreeMap;

    let mut allowed: BTreeMap<(String, String), usize> = BTreeMap::new();
    if let Some(path) = &config.allowlist {
        if !path.is_file() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "allowlist {} does not exist — a missing baseline must fail, \
                     not silently allow nothing; regenerate it with --print-baseline",
                    path.display()
                ),
            ));
        }
        for raw in fs::read_to_string(path)?.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(rule), Some(file), Some(count)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            if let Ok(n) = count.parse::<usize>() {
                allowed.insert((rule.to_string(), file.to_string()), n);
            }
        }
    }

    let mut counts: BTreeMap<(String, String), Vec<&LintFinding>> = BTreeMap::new();
    for f in &report.all_findings {
        counts
            .entry((f.rule.to_string(), f.file.clone()))
            .or_default()
            .push(f);
    }

    let mut violations = Vec::new();
    let mut ratchet = Vec::new();
    for ((rule, file), found) in &counts {
        let cap = allowed.remove(&(rule.clone(), file.clone())).unwrap_or(0);
        match found.len().cmp(&cap) {
            std::cmp::Ordering::Greater => {
                violations.extend(found.iter().map(|f| (*f).clone()));
            }
            std::cmp::Ordering::Less => {
                ratchet.push((rule.clone(), file.clone(), found.len(), cap));
            }
            std::cmp::Ordering::Equal => {}
        }
    }
    report.stale_allowances = allowed.into_keys().collect();
    report.violations = violations;
    report.ratchet = ratchet;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: &str, src: &str) -> Vec<LintFinding> {
        let mut findings = Vec::new();
        scan_file(rel, src, &mut findings);
        findings
    }

    fn rules(findings: &[LintFinding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn finds_banned_patterns_outside_tests_only() {
        let src = "\
fn lib() {
    let v = maybe().unwrap();
    let w = maybe().expect(\"why\");
    panic!(\"boom\");
}
#[cfg(test)]
mod tests {
    fn t() {
        let v = maybe().unwrap();
        panic!(\"fine in tests\");
    }
}
fn after_tests() {
    let z = maybe().unwrap();
}
";
        let findings = scan("crates/x/src/lib.rs", src);
        assert_eq!(
            rules(&findings),
            vec!["no-unwrap", "no-expect", "no-panic", "no-unwrap"]
        );
        assert_eq!(findings[3].line, 14);
    }

    #[test]
    fn patterns_inside_strings_and_comments_do_not_fire() {
        let src = "\
fn lib() {
    let a = \"calls .unwrap() and panic!(now)\";
    let b = r#\"raw .expect(\"x\") body\"#;
    // a comment mentioning .unwrap() and panic!(
    /* block comment:
       .expect(\"still a comment\") */
    let c = 'p'; // char literal is not the start of panic!(
}
";
        let findings = scan("crates/x/src/lib.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn bounded_channel_only_fires_on_request_path_crates() {
        let src = "\
fn wire() {
    let (tx, rx) = mpsc::channel();
    let (btx, brx) = mpsc::sync_channel(64);
    let (utx, urx) = unbounded();
    let q = SegQueue::new();
}
";
        let findings = scan("crates/serve/src/lib.rs", src);
        assert_eq!(
            rules(&findings),
            vec![
                "bounded-channel-only",
                "bounded-channel-only",
                "bounded-channel-only"
            ],
            "{findings:?}"
        );
        assert_eq!(findings[0].line, 2);
        // the same source outside the request-path scope is clean
        let elsewhere = scan("crates/trace/src/lib.rs", src);
        assert!(
            !elsewhere.iter().any(|f| f.rule == "bounded-channel-only"),
            "{elsewhere:?}"
        );
    }

    #[test]
    fn multi_line_cfg_test_attribute_exempts_its_block() {
        let src = "\
#[cfg(
    test
)]
mod tests {
    fn t() {
        x().unwrap();
    }
}
fn lib() {
    y().unwrap();
}
";
        let findings = scan("crates/x/src/lib.rs", src);
        assert_eq!(rules(&findings), vec!["no-unwrap"]);
        assert_eq!(findings[0].line, 10);
    }

    #[test]
    fn cfg_not_test_is_not_an_exemption() {
        let src = "\
#[cfg(not(test))]
fn lib() {
    y().unwrap();
}
";
        let findings = scan("crates/x/src/lib.rs", src);
        assert_eq!(rules(&findings), vec!["no-unwrap"]);
    }

    #[test]
    fn crlf_sources_scan_identically() {
        let lf = "fn lib() {\n    a().unwrap();\n}\n";
        let crlf = lf.replace('\n', "\r\n");
        let from_lf = scan("crates/x/src/lib.rs", lf);
        let from_crlf = scan("crates/x/src/lib.rs", &crlf);
        assert_eq!(from_lf, from_crlf);
        assert_eq!(rules(&from_lf), vec!["no-unwrap"]);
        assert!(!from_crlf[0].excerpt.contains('\r'));
    }

    #[test]
    fn index_cast_detection() {
        let hit = scan("crates/x/src/a.rs", "fn f() { let x = arr[i as usize]; }");
        assert_eq!(rules(&hit), vec!["lossy-index-cast"]);
        let hit = scan("crates/x/src/a.rs", "fn f() { buf[(k * 2) as usize] = 0; }");
        assert_eq!(rules(&hit), vec!["lossy-index-cast"]);
        assert!(scan("crates/x/src/a.rs", "fn f() { let x = i as usize; }").is_empty());
        assert!(scan("crates/x/src/a.rs", "fn f() { let y = arr[i]; }").is_empty());
    }

    #[test]
    fn hashmap_rule_scopes_to_runtime_crates() {
        let findings = scan(
            "crates/mapreduce/src/x.rs",
            "use std::collections::HashMap;\n",
        );
        assert_eq!(rules(&findings), vec!["hashmap-state"]);
        assert!(scan(
            "crates/skyline/src/x.rs",
            "use std::collections::HashMap;\n"
        )
        .is_empty());
    }

    #[test]
    fn unsafe_requires_nearby_safety_comment() {
        let bare = "fn f(p: *const u8) { let _ = unsafe { *p }; }\n";
        assert_eq!(
            rules(&scan("crates/x/src/a.rs", bare)),
            vec!["unsafe-needs-safety-comment"]
        );
        let ok = "\
fn f(p: *const u8) {
    // SAFETY: p is non-null and aligned; caller upholds the contract.
    let _ = unsafe { *p };
}
";
        assert!(scan("crates/x/src/a.rs", ok).is_empty());
        let too_far = format!(
            "// SAFETY: way up here.\n{}fn f(p: *const u8) {{ let _ = unsafe {{ *p }}; }}\n",
            "\n".repeat(SAFETY_LOOKBACK_LINES + 1)
        );
        assert_eq!(
            rules(&scan("crates/x/src/a.rs", &too_far)),
            vec!["unsafe-needs-safety-comment"]
        );
    }

    #[test]
    fn wall_clock_scopes_to_runtime_crates() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(
            rules(&scan("crates/trace/src/sink.rs", src)),
            vec!["no-wall-clock"]
        );
        assert_eq!(
            rules(&scan(
                "crates/skyline/src/x.rs",
                "fn f() { let t = std::time::SystemTime::now(); }\n"
            )),
            vec!["no-wall-clock"]
        );
        // The CLI binary is the sanctioned real-time boundary.
        assert!(scan("src/bin/mrsky.rs", src).is_empty());
        assert!(scan("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn relaxed_ordering_needs_counter_or_justification() {
        let counter = "fn f(c: &AtomicUsize) { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(scan("crates/x/src/a.rs", counter).is_empty());
        let justified = "\
fn f(b: &AtomicBool) {
    // ORDERING: flag is advisory; a stale read only delays the drain.
    b.store(true, Ordering::Relaxed);
}
";
        assert!(scan("crates/x/src/a.rs", justified).is_empty());
        let bare = "fn f(b: &AtomicBool) { b.store(true, Ordering::Relaxed); }\n";
        assert_eq!(
            rules(&scan("crates/x/src/a.rs", bare)),
            vec!["relaxed-ordering-audit"]
        );
    }

    #[test]
    fn raw_sync_flags_facaded_crates_only() {
        let mutex = "use std::sync::Mutex;\n";
        assert_eq!(
            rules(&scan("crates/chaos/src/a.rs", mutex)),
            vec!["raw-sync-primitive"]
        );
        // Non-facaded crates may use std::sync directly.
        assert!(scan("crates/model/src/a.rs", mutex).is_empty());
        assert!(scan("crates/core/src/a.rs", mutex).is_empty());
        // Ownership-only leaves are fine even in facaded crates.
        assert!(scan("crates/trace/src/a.rs", "use std::sync::Arc;\n").is_empty());
        assert!(scan("crates/trace/src/a.rs", "use std::sync::OnceLock;\n").is_empty());
        // Brace groups flag only the offending first-level segment.
        let group = "use std::sync::{Arc, Mutex};\n";
        let findings = scan("crates/mapreduce/src/a.rs", group);
        assert_eq!(rules(&findings), vec!["raw-sync-primitive"]);
        // Full paths to the atomic module are caught too.
        let atomics = "fn f() { let x = std::sync::atomic::AtomicUsize::new(0); }\n";
        assert_eq!(
            rules(&scan("crates/skyline/src/a.rs", atomics)),
            vec!["raw-sync-primitive"]
        );
        assert_eq!(
            rules(&scan("crates/trace/src/a.rs", "use parking_lot::Mutex;\n")),
            vec!["raw-sync-primitive"]
        );
    }

    #[test]
    fn oracle_independence_flags_kernel_paths_in_the_validator_only() {
        let oracle = "crates/core/src/validate.rs";
        let hit =
            |src: &str| -> Vec<&'static str> { scan(oracle, src).iter().map(|f| f.rule).collect() };
        assert_eq!(
            hit("use skyline_algos::sfs::sfs_skyline;\n"),
            vec!["oracle-independence"]
        );
        assert_eq!(
            hit("fn f(p: &Point, q: &Point) -> bool { skyline_algos::dominance::dominates(p, q) }\n"),
            vec!["oracle-independence"]
        );
        // Brace groups flag only the kernel segments.
        assert_eq!(
            hit("use skyline_algos::{point::Point, block::PointBlock, bnl};\n"),
            vec!["oracle-independence", "oracle-independence"]
        );
        // The point type and other modules are fine, and so are tests.
        assert!(hit("use skyline_algos::point::Point;\n").is_empty());
        assert!(
            hit("#[cfg(test)]\nmod tests { use skyline_algos::sfs::sfs_skyline; }\n").is_empty()
        );
        // Other files may use the kernels.
        assert!(scan(
            "crates/core/src/driver.rs",
            "use skyline_algos::sfs::sfs_skyline;\n"
        )
        .is_empty());
    }

    #[test]
    fn missing_allowlist_is_an_error_not_a_silent_pass() {
        let dir = std::env::temp_dir().join("mrsky-audit-lint-missing-baseline");
        fs::create_dir_all(&dir).unwrap();
        let err = run_lint(&LintConfig {
            root: dir.clone(),
            allowlist: Some(dir.join("lint-baseline.txt")),
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn allowlist_ratchets_down() {
        let dir = std::env::temp_dir().join("mrsky-audit-lint-test");
        let src_dir = dir.join("crates/demo/src");
        fs::create_dir_all(&src_dir).unwrap();
        fs::write(src_dir.join("lib.rs"), "fn f() { g().unwrap(); }\n").unwrap();
        let allow = dir.join("baseline.txt");

        // No allowlist: the unwrap is a violation.
        let report = run_lint(&LintConfig {
            root: dir.clone(),
            allowlist: None,
        })
        .unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(!report.is_clean());

        // Exact allowance: clean, strictly so.
        fs::write(&allow, "no-unwrap crates/demo/src/lib.rs 1\n").unwrap();
        let report = run_lint(&LintConfig {
            root: dir.clone(),
            allowlist: Some(allow.clone()),
        })
        .unwrap();
        assert!(report.is_clean(), "{}", report.render_text());
        assert!(report.is_clean_strict());
        assert!(report.ratchet.is_empty());

        // Over-generous allowance: lenient-clean, but strict mode fails
        // and asks to ratchet down.
        fs::write(&allow, "no-unwrap crates/demo/src/lib.rs 5\n").unwrap();
        let report = run_lint(&LintConfig {
            root: dir.clone(),
            allowlist: Some(allow.clone()),
        })
        .unwrap();
        assert!(report.is_clean());
        assert!(!report.is_clean_strict());
        assert_eq!(report.ratchet.len(), 1);
        assert_eq!(report.ratchet[0].2, 1);
        assert_eq!(report.ratchet[0].3, 5);

        // Stale entry for a file with no findings: also a strict failure.
        fs::write(
            &allow,
            "no-unwrap crates/demo/src/lib.rs 1\nno-panic crates/demo/src/gone.rs 2\n",
        )
        .unwrap();
        let report = run_lint(&LintConfig {
            root: dir.clone(),
            allowlist: Some(allow),
        })
        .unwrap();
        assert!(report.is_clean());
        assert!(!report.is_clean_strict());
        assert_eq!(report.stale_allowances.len(), 1);

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn baseline_output_round_trips() {
        let report = LintReport {
            all_findings: vec![
                LintFinding {
                    rule: "no-unwrap",
                    file: "a.rs".into(),
                    line: 1,
                    excerpt: String::new(),
                },
                LintFinding {
                    rule: "no-unwrap",
                    file: "a.rs".into(),
                    line: 9,
                    excerpt: String::new(),
                },
                LintFinding {
                    rule: "no-panic",
                    file: "b.rs".into(),
                    line: 3,
                    excerpt: String::new(),
                },
            ],
            ..LintReport::default()
        };
        let base = report.baseline();
        assert!(base.contains("no-unwrap a.rs 2"));
        assert!(base.contains("no-panic b.rs 1"));
    }
}
