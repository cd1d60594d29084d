//! The lint driver: scan, waive, ratchet, report.
//!
//! The pipeline per file is lex ([`crate::lexer`]) → parse
//! ([`crate::parse`]) → rules ([`crate::rules`]); this module walks
//! `crates/*/src`, applies waiver comments and the ratcheted
//! allowlist on top of the raw findings, and renders the result
//! ([`crate::report`]) as text or JSON.
//!
//! Suppression has three distinct layers, weakest claim first:
//!
//! 1. **auto-exempt** — syntactic context proves the rule does not
//!    apply (panics inside operator impls, test code). No
//!    annotation needed; reported in JSON for transparency.
//! 2. **waivers** — `// lint: allow(<rule>): <justification>` on (or
//!    directly above) the offending line. For single sites where the
//!    rule is right in general but wrong here; the justification is
//!    mandatory and an unused waiver fails the lint, so waivers
//!    cannot outlive the code they excuse.
//! 3. **allowlist** — `lint-allowlist.txt` budgets per `(rule,
//!    file)`, for legacy clusters too large to waive line by line.
//!    The budget only ratchets down.

use crate::allowlist::{self, Allowlist, FindingLines};
use crate::lexer;
use crate::parse::{self, Waiver};
use crate::report::{LintReport, Waived};
use crate::rules::{self, Finding, RULES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Output format for the lint report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable text (the default).
    Text,
    /// Versioned machine-readable JSON (archived by CI).
    Json,
}

/// Everything the multi-pass scan produced for one file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// All rule hits, including auto-exempt ones, pre-waiver.
    pub findings: Vec<Finding>,
    /// Well-formed waiver comments.
    pub waivers: Vec<Waiver>,
    /// Malformed waiver comments (each fails the lint).
    pub waiver_errors: Vec<String>,
}

/// Runs lex → parse → all rules over one file's source.
pub fn scan_file(rel_path: &str, source: &str) -> FileScan {
    let lexed = lexer::tokenize(source);
    let parsed = parse::parse(&lexed, RULES);
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    let ctx = rules::FileCtx {
        rel_path,
        crate_name,
        basename: rel_path.rsplit('/').next().unwrap_or(rel_path),
        parsed: &parsed,
    };
    FileScan {
        findings: rules::run_all(&ctx),
        waivers: parsed.waivers,
        waiver_errors: parsed
            .waiver_errors
            .iter()
            .map(|e| format!("{rel_path}:{e}"))
            .collect(),
    }
}

/// Recursively collects `.rs` files under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

/// Every `(rel_path, source)` pair in scope: workspace crates' `src/`
/// trees (vendor stubs and the `tests/` package are out of scope).
pub fn workspace_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
        let src = entry.path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        let source =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((rel, source));
    }
    Ok(out)
}

/// Applies the file's waivers to its findings: matching findings move
/// to `waived`, and every waiver must suppress at least one finding.
fn apply_waivers(
    rel_path: &str,
    scan: FileScan,
    report: &mut LintReport,
    active: &mut FindingLines,
) {
    report.errors.extend(scan.waiver_errors);
    let mut used = vec![false; scan.waivers.len()];
    for f in scan.findings {
        if f.exempt.is_some() {
            report.auto_exempt.push(f);
            continue;
        }
        let waiver = scan
            .waivers
            .iter()
            .position(|w| w.rule == f.rule && w.target_line == f.line);
        match waiver {
            Some(i) => {
                used[i] = true;
                report.waived.push(Waived {
                    finding: f,
                    justification: scan.waivers[i].justification.clone(),
                });
            }
            None => {
                active
                    .entry((f.rule.to_owned(), f.file.clone()))
                    .or_default()
                    .push(f.line);
                report.findings.push(f);
            }
        }
    }
    for (i, w) in scan.waivers.iter().enumerate() {
        if !used[i] {
            report.errors.push(format!(
                "{rel_path}:{}: unused waiver for `{}` — the line it targets ({}) has no \
                 such finding; remove the waiver",
                w.comment_line, w.rule, w.target_line
            ));
        }
    }
}

/// Checks active findings against the ratcheted allowlist, appending
/// budget violations to `report.errors`.
fn apply_allowlist(allow: &Allowlist, active: &FindingLines, report: &mut LintReport) {
    report.allow_entries = allow.len();
    for ((rule, file), lines) in active {
        let budget = allow.budget(rule, file);
        let actual = lines.len();
        if actual > budget {
            let shown: Vec<String> = lines.iter().map(|l| format!("{file}:{l}")).collect();
            report.errors.push(format!(
                "{rule}: {file} has {actual} violation(s), allowlist budget is {budget}:\n    {}",
                shown.join("\n    ")
            ));
        } else if actual < budget {
            report.errors.push(format!(
                "{rule}: {file} improved to {actual} violation(s) but the allowlist still \
                 budgets {budget} — lower the budget in {} (ratchet)",
                allowlist::FILE_NAME
            ));
        } else {
            report.budgeted += actual;
        }
    }
    for entry in allow.entries() {
        if !active.contains_key(&(entry.rule.clone(), entry.file.clone())) {
            report.errors.push(format!(
                "{}: stale allowlist entry for {} — the file is clean (or gone); remove the entry",
                entry.rule, entry.file
            ));
        }
    }
}

/// Runs the legacy substring scanner and the token pass over every
/// in-scope file and reports divergences on the three seed rules.
///
/// This is the engine's own regression gate: the original scanner is
/// kept verbatim in [`crate::legacy`] as an oracle, and any
/// disagreement means one of the two mis-lexed real code. Exposed as
/// `cargo xtask lint --self-check` and exercised by a unit test.
pub fn self_check(root: &Path) -> Result<Vec<String>, String> {
    let legacy_rules = ["raw-unit-arith", "no-panic", "untyped-unit-const"];
    let mut divergences = Vec::new();
    for (rel, source) in workspace_sources(root)? {
        let mut old: Vec<(&'static str, usize)> = crate::legacy::scan_file(&rel, &source)
            .iter()
            .map(|f| (f.rule, f.line))
            .collect();
        let mut new: Vec<(&'static str, usize)> = scan_file(&rel, &source)
            .findings
            .iter()
            .filter(|f| legacy_rules.contains(&f.rule))
            .map(|f| (f.rule, f.line))
            .collect();
        old.sort_unstable();
        new.sort_unstable();
        if old != new {
            divergences.push(format!(
                "{rel}: legacy scanner found {old:?}, token pass found {new:?}"
            ));
        }
    }
    Ok(divergences)
}

/// Scans the workspace and builds the full report plus the active
/// `(rule, file) → lines` map (pre-allowlist).
pub fn scan_workspace(root: &Path) -> Result<(LintReport, FindingLines), String> {
    let mut report = LintReport::default();
    let mut active = BTreeMap::new();
    for (rel, source) in workspace_sources(root)? {
        let scan = scan_file(&rel, &source);
        apply_waivers(&rel, scan, &mut report, &mut active);
    }
    Ok((report, active))
}

/// Runs the lint: scan, waive, compare against the allowlist (or
/// refresh it with `update`), render, and return a process exit code.
pub fn run(root: &Path, update: bool, format: Format) -> Result<i32, String> {
    let (mut report, active) = scan_workspace(root)?;
    let allow_path = root.join(allowlist::FILE_NAME);

    if update {
        if !report.errors.is_empty() {
            // Waiver problems must be fixed before counts can be
            // trusted enough to write back.
            eprint!("{}", report.to_text());
            return Ok(1);
        }
        let previous = Allowlist::load(&allow_path)?;
        let updated = previous.rebudget(&active)?;
        updated.save(&allow_path)?;
        println!(
            "wrote {} with {} entr{}",
            allowlist::FILE_NAME,
            updated.len(),
            if updated.len() == 1 { "y" } else { "ies" }
        );
        return Ok(0);
    }

    let allow = Allowlist::load(&allow_path)?;
    apply_allowlist(&allow, &active, &mut report);

    match format {
        Format::Json => print!("{}", report.to_json()),
        Format::Text => {
            if report.is_clean() {
                print!("{}", report.to_text());
            } else {
                eprint!("{}", report.to_text());
            }
        }
    }
    Ok(i32::from(!report.is_clean()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triples(findings: &[Finding]) -> Vec<(&'static str, usize)> {
        findings.iter().map(|f| (f.rule, f.line)).collect()
    }

    // -- per-rule positive/negative fixtures ------------------------------

    #[test]
    fn no_panic_fixture() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   fn g() { panic!(\"boom\") }\n\
                   fn h(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
        let scan = scan_file("crates/demo/src/lib.rs", src);
        assert_eq!(
            triples(&scan.findings),
            vec![("no-panic", 1), ("no-panic", 2)]
        );
    }

    #[test]
    fn no_panic_auto_exempts_operator_impls() {
        let src = "impl Add for B {\n    fn add(self, o: B) -> B {\n        \
                   B(self.0.checked_add(o.0).expect(\"overflow\"))\n    }\n}\n\
                   fn free() { None::<u8>.expect(\"boom\"); }\n";
        let scan = scan_file("crates/demo/src/lib.rs", src);
        let exempt: Vec<_> = scan
            .findings
            .iter()
            .filter(|f| f.exempt.is_some())
            .collect();
        let live: Vec<_> = scan
            .findings
            .iter()
            .filter(|f| f.exempt.is_none())
            .collect();
        assert_eq!(exempt.len(), 1);
        assert_eq!(exempt[0].exempt, Some("operator-impl"));
        assert_eq!(exempt[0].line, 3);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].line, 6);
    }

    #[test]
    fn raw_unit_arith_fixture() {
        let src = "fn f(gb: f64) -> f64 { gb * 1e9 }\n\
                   fn g() -> f64 { 21e3 + 1e30 + 0.1e3 + 1e9f64 }\n\
                   fn h(x: u64) -> u64 { (1u64 << 20) + (x << 7) }\n";
        let scan = scan_file("crates/demo/src/lib.rs", src);
        assert_eq!(
            triples(&scan.findings),
            vec![("raw-unit-arith", 1), ("raw-unit-arith", 3)]
        );
    }

    #[test]
    fn untyped_unit_const_fixture() {
        let src = "pub const SYNC_MS: f64 = 0.25;\n\
                   pub const GOOD_MS: SimDuration = SimDuration::ZERO;\n\
                   pub const COUNT: u64 = 3;\n";
        let scan = scan_file("crates/demo/src/lib.rs", src);
        assert_eq!(triples(&scan.findings), vec![("untyped-unit-const", 1)]);
    }

    #[test]
    fn nondeterministic_iteration_fixture() {
        let src = "use std::collections::HashMap;\n\
                   pub struct S { m: HashMap<u32, f64> }\n";
        // Positive: sim crate.
        let scan = scan_file("crates/simcore/src/state.rs", src);
        assert_eq!(
            triples(&scan.findings),
            vec![
                ("nondeterministic-iteration", 1),
                ("nondeterministic-iteration", 2)
            ]
        );
        // The bench crate renders the pinned experiment reports.
        assert_eq!(
            scan_file("crates/bench/src/experiments/mod.rs", src)
                .findings
                .len(),
            2
        );
        // Negative: non-sim crate, and BTreeMap anywhere.
        assert!(scan_file("crates/xtask/src/state.rs", src)
            .findings
            .is_empty());
        let btree = "use std::collections::BTreeMap;\npub struct S { m: BTreeMap<u32, f64> }\n";
        assert!(scan_file("crates/simcore/src/state.rs", btree)
            .findings
            .is_empty());
    }

    #[test]
    fn wall_clock_fixture() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let scan = scan_file("crates/core/src/engine.rs", src);
        assert_eq!(
            triples(&scan.findings),
            vec![("wall-clock-in-sim", 1), ("wall-clock-in-sim", 2)]
        );
        // The bench binaries and xtask may measure real time; the bench
        // library, which renders the pinned reports, may not.
        assert!(scan_file("crates/bench/src/bin/bench_des.rs", src)
            .findings
            .is_empty());
        assert!(scan_file("crates/xtask/src/lint.rs", src)
            .findings
            .is_empty());
        assert_eq!(
            triples(&scan_file("crates/bench/src/lib.rs", src).findings),
            vec![("wall-clock-in-sim", 1), ("wall-clock-in-sim", 2)]
        );
        // Test code may too.
        let test_src = "#[cfg(test)]\nmod tests {\n use std::time::Instant;\n}\n";
        assert!(scan_file("crates/core/src/engine.rs", test_src)
            .findings
            .is_empty());
    }

    #[test]
    fn unordered_float_reduce_fixture() {
        let positive = "fn f(xs: &[f64]) -> f64 { xs.par_iter().map(|x| x * 2.0).sum() }\n\
                        fn g(xs: &[f64]) -> f64 {\n    xs.par_iter()\n        \
                        .fold(|| 0.0, |a, b| a + b)\n        .reduce(|| 0.0, |a, b| a + b)\n}\n";
        let scan = scan_file("crates/core/src/math.rs", positive);
        assert_eq!(
            triples(&scan.findings),
            vec![
                ("unordered-float-reduce", 1),
                ("unordered-float-reduce", 4),
                ("unordered-float-reduce", 5)
            ]
        );
        // Negative: collect() is order-preserving, and sequential sum
        // is fine.
        let negative = "fn f(xs: &[f64]) -> Vec<f64> { xs.par_iter().map(|x| x * 2.0).collect() }\n\
                        fn g(xs: &[f64]) -> f64 { xs.iter().sum() }\n\
                        fn h(xs: &[f64]) -> f64 { f(xs, xs.par_iter().count(), ys.iter().sum()) }\n";
        assert!(scan_file("crates/core/src/math.rs", negative)
            .findings
            .is_empty());
    }

    #[test]
    fn untyped_unit_fn_fixture() {
        let src = "pub fn start(bytes: f64, weight: f64) {}\n\
                   pub fn good(bytes: ByteSize, weight: f64) {}\n\
                   fn private(bytes: f64) {}\n\
                   pub(crate) fn scoped(bytes: f64) {}\n";
        let scan = scan_file("crates/xfer/src/link.rs", src);
        assert_eq!(triples(&scan.findings), vec![("untyped-unit-fn", 1)]);
        // Non-unit crates and the conversion layer are out of scope.
        assert!(scan_file("crates/workload/src/gen.rs", src)
            .findings
            .is_empty());
        assert!(scan_file("crates/simcore/src/units.rs", src)
            .findings
            .is_empty());
    }

    // -- waiver plumbing --------------------------------------------------

    #[test]
    fn waivers_suppress_and_unused_waivers_fail() {
        let src = "// lint: allow(wall-clock-in-sim): run metadata is wall-clock\n\
                   use std::time::Instant;\n";
        let scan = scan_file("crates/core/src/engine.rs", src);
        let mut report = LintReport::default();
        let mut active = BTreeMap::new();
        apply_waivers("crates/core/src/engine.rs", scan, &mut report, &mut active);
        assert!(report.errors.is_empty());
        assert_eq!(report.waived.len(), 1);
        assert!(active.is_empty());

        let unused = "// lint: allow(no-panic): nothing here panics\nfn f() {}\n";
        let scan = scan_file("crates/core/src/engine.rs", unused);
        let mut report = LintReport::default();
        let mut active = BTreeMap::new();
        apply_waivers("crates/core/src/engine.rs", scan, &mut report, &mut active);
        assert_eq!(report.errors.len(), 1);
        assert!(report.errors[0].contains("unused waiver"));
    }

    #[test]
    fn waiver_covers_only_its_rule() {
        let src = "// lint: allow(no-panic): registry invariant\n\
                   let t = Instant::now().elapsed().as_secs_f64();\n";
        let scan = scan_file("crates/core/src/engine.rs", src);
        let mut report = LintReport::default();
        let mut active = BTreeMap::new();
        apply_waivers("crates/core/src/engine.rs", scan, &mut report, &mut active);
        // The wall-clock finding is NOT suppressed by a no-panic
        // waiver, and the waiver itself is unused.
        assert_eq!(active.len(), 1);
        assert!(report.errors.iter().any(|e| e.contains("unused waiver")));
    }

    // -- allowlist ratchet ------------------------------------------------

    #[test]
    fn ratchet_flags_over_and_under_budget() {
        let dir = std::env::temp_dir().join("helmsim-xtask-lint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("allow.txt");
        std::fs::write(&path, "no-panic crates/x/src/lib.rs 2  # legacy\n").expect("write");
        let allow = Allowlist::load(&path).expect("load");
        std::fs::remove_file(&path).ok();

        // Over budget.
        let mut active = BTreeMap::new();
        active.insert(
            ("no-panic".to_owned(), "crates/x/src/lib.rs".to_owned()),
            vec![1, 2, 3],
        );
        let mut report = LintReport::default();
        apply_allowlist(&allow, &active, &mut report);
        assert!(report.errors.iter().any(|e| e.contains("budget is 2")));

        // Under budget (ratchet).
        active.insert(
            ("no-panic".to_owned(), "crates/x/src/lib.rs".to_owned()),
            vec![1],
        );
        let mut report = LintReport::default();
        apply_allowlist(&allow, &active, &mut report);
        assert!(report.errors.iter().any(|e| e.contains("ratchet")));

        // Stale entry.
        let mut report = LintReport::default();
        apply_allowlist(&allow, &BTreeMap::new(), &mut report);
        assert!(report.errors.iter().any(|e| e.contains("stale")));

        // Exactly on budget.
        active.insert(
            ("no-panic".to_owned(), "crates/x/src/lib.rs".to_owned()),
            vec![1, 2],
        );
        let mut report = LintReport::default();
        apply_allowlist(&allow, &active, &mut report);
        assert!(report.errors.is_empty());
        assert_eq!(report.budgeted, 2);
    }

    // -- legacy/new agreement self-check ----------------------------------

    /// The three seed rules, re-implemented on tokens, must agree
    /// with the original substring scanner on every file in this
    /// workspace — a divergence means one of the two mis-lexes real
    /// code.
    #[test]
    fn token_pass_agrees_with_legacy_scanner_on_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        assert!(
            !workspace_sources(root).expect("sources").is_empty(),
            "workspace scan found no files"
        );
        let divergences = self_check(root).expect("self-check runs");
        assert_eq!(divergences, Vec::<String>::new());
    }
}
