//! `islands-check`: the repo's correctness-tooling crate.
//!
//! Three verification layers live behind one binary:
//!
//! 1. **Model checking** — `islands-check mc` drives the exhaustive 2PC
//!    model checker in [`islands_dtxn::mc`] over every bounded
//!    configuration and reports the visited-state count.
//! 2. **Mutation self-test** — `islands-check mutants` seeds known protocol
//!    bugs and asserts the checker catches every one (a checker that can't
//!    find planted bugs proves nothing about the real protocol).
//! 3. **Source lint** — this module: a dependency-free, line-oriented pass
//!    over `crates/*/src` enforcing repo-specific rules that `rustc` and
//!    `clippy` don't know about (see [`RULES`]).
//!
//! The lint is deliberately not a parser. Every rule is a substring test on
//! non-test, non-comment lines, so it is fast, has zero dependencies, and
//! its failure modes are obvious. False positives are waived explicitly in
//! `lint-allow.txt` at the repo root — a reviewed, diffable list of every
//! exception, which is the point: exceptions should cost a commit.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Name of the allowlist file, looked up at the lint root.
pub const ALLOWLIST_FILE: &str = "lint-allow.txt";

/// Crates whose non-test source must not call `.unwrap()` / `.expect(` —
/// the server, the 2PC protocol, the deployment/engine layer, and the WAL
/// (append, replay, and in-doubt recovery), where a panic tears down a
/// partition, wedges a global transaction, or turns a survivable crash
/// into an unrecoverable one.
const NO_UNWRAP_SCOPES: &[&str] = &[
    "crates/server/src/",
    "crates/dtxn/src/",
    "crates/core/src/",
    "crates/storage/src/wal/",
];

/// Files containing accept/submit hot loops — the socket link and the 2PC
/// driver are on every multisite transaction's path — where a
/// `thread::sleep` hides latency bugs that the paper's measurements would
/// surface.
const HOT_LOOP_FILES: &[&str] = &[
    "crates/server/src/server.rs",
    "crates/server/src/cluster.rs",
    "crates/server/src/coordinator.rs",
    "crates/server/src/deploy/client.rs",
    "crates/core/src/native/mod.rs",
    "crates/core/src/native/executor.rs",
];

/// Crates whose non-test source must stay blocking-free: the obs registry
/// sits inside every transaction's hot path (phase spans, per-commit
/// counters), so a `Mutex`/`RwLock` there would serialize the very engines
/// it measures and distort the Fig. 11 breakdown it exists to report.
/// Sharded atomics only.
const NO_LOCK_SCOPES: &[&str] = &["crates/obs/src/"];

/// The obs JSON line's schema marker, which only its one writer
/// (`islands_obs::Snapshot::json_line`, under [`OBS_LINE_WRITER`]) may
/// spell. Split so this file does not flag itself.
const OBS_SCHEMA: &str = concat!("islands-obs", "/1");
const OBS_LINE_WRITER: &str = "crates/obs/src/";

/// The rule identifiers, as they appear in findings and `lint-allow.txt`.
pub const RULES: &[(&str, &str)] = &[
    (
        "no-unwrap",
        "no .unwrap()/.expect( in non-test server/dtxn/core/wal code",
    ),
    (
        "no-subms-timeout",
        "no sub-millisecond socket read timeouts (socket-timeout granularity)",
    ),
    (
        "no-hot-loop-sleep",
        "no thread::sleep in accept/submit hot-loop files",
    ),
    (
        "forbid-unsafe",
        "every crate root must carry #![forbid(unsafe_code)]",
    ),
    (
        "no-obs-locks",
        "no Mutex/RwLock in the obs hot path (sharded atomics only)",
    ),
    (
        "one-obs-line-writer",
        "the obs JSON line's schema marker only in crates/obs (Snapshot::json_line)",
    ),
];

/// One lint hit: rule, file (repo-relative), 1-based line, and the line text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule,
            self.excerpt.trim()
        )
    }
}

/// One waiver from `lint-allow.txt`: tab-separated `rule`, `file`, and an
/// optional substring the offending line must contain.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: String,
    pub file: String,
    pub pattern: String,
}

impl AllowEntry {
    fn waives(&self, finding: &Finding) -> bool {
        self.rule == finding.rule
            && self.file == finding.file
            && (self.pattern.is_empty() || finding.excerpt.contains(&self.pattern))
    }
}

/// Outcome of a lint pass.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations that survived the allowlist (nonzero exit).
    pub findings: Vec<Finding>,
    /// Violations waived by `lint-allow.txt`.
    pub waived: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Parse `lint-allow.txt`. A missing file is an empty allowlist; a present
/// but malformed file is an error (a typo must not silently waive nothing).
pub fn load_allowlist(root: &Path) -> io::Result<Vec<AllowEntry>> {
    let path = root.join(ALLOWLIST_FILE);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        let (rule, file) = match (parts.next(), parts.next()) {
            (Some(r), Some(f)) if !r.is_empty() && !f.is_empty() => (r, f),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}:{}: expected tab-separated `rule<TAB>file[<TAB>substring]`",
                        path.display(),
                        i + 1
                    ),
                ))
            }
        };
        entries.push(AllowEntry {
            rule: rule.to_string(),
            file: file.to_string(),
            pattern: parts.next().unwrap_or("").to_string(),
        });
    }
    Ok(entries)
}

/// Recursively collect `.rs` files under `dir`, skipping build/VCS trees.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name == ".git" || name == "vendor" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Index of the first line opening a `#[cfg(test)]` section; everything from
/// there to EOF is test code (the repo keeps test modules last by idiom).
fn test_section_start(lines: &[&str]) -> usize {
    lines
        .iter()
        .position(|l| {
            let t = l.trim_start();
            t.starts_with("#[cfg(test)") || t.starts_with("#[cfg(all(test")
        })
        .unwrap_or(lines.len())
}

/// The code part of a line: empty for pure comment lines, otherwise the text
/// before a trailing `//` comment. Crude (a `//` inside a string literal
/// truncates early, making the lint *lenient*, never falsely strict).
fn code_part(line: &str) -> &str {
    let t = line.trim_start();
    if t.starts_with("//") {
        return "";
    }
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

fn lint_file(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = text.lines().collect();
    let test_start = test_section_start(&lines);
    let in_unwrap_scope = NO_UNWRAP_SCOPES.iter().any(|s| rel.starts_with(s));
    let in_lock_scope = NO_LOCK_SCOPES.iter().any(|s| rel.starts_with(s));
    let is_hot_loop = HOT_LOOP_FILES.contains(&rel);
    let is_crate_root = rel.starts_with("crates/") && rel.ends_with("/src/lib.rs");
    let writes_obs_lines = rel.starts_with(OBS_LINE_WRITER);

    let mut push = |rule, line, excerpt: &str| {
        findings.push(Finding {
            rule,
            file: rel.to_string(),
            line,
            excerpt: excerpt.to_string(),
        })
    };

    for (i, line) in lines.iter().enumerate().take(test_start) {
        let code = code_part(line);
        if code.is_empty() {
            continue;
        }
        if in_unwrap_scope && (code.contains(".unwrap()") || code.contains(".expect(")) {
            push("no-unwrap", i + 1, line);
        }
        // The raw socket option name is spelled split so this file doesn't
        // flag itself.
        if code.contains(concat!("SO_", "RCVTIMEO"))
            || (code.contains("set_read_timeout")
                && (code.contains("from_micros") || code.contains("from_nanos")))
        {
            push("no-subms-timeout", i + 1, line);
        }
        if is_hot_loop && code.contains("thread::sleep") {
            push("no-hot-loop-sleep", i + 1, line);
        }
        if in_lock_scope && (code.contains("Mutex") || code.contains("RwLock")) {
            push("no-obs-locks", i + 1, line);
        }
        if !writes_obs_lines && code.contains(OBS_SCHEMA) {
            push("one-obs-line-writer", i + 1, line);
        }
    }

    if is_crate_root
        && !lines[..test_start]
            .iter()
            .any(|l| l.trim() == "#![forbid(unsafe_code)]")
    {
        push("forbid-unsafe", 1, "missing #![forbid(unsafe_code)]");
    }
}

/// Run the full lint pass over `root/crates`, applying `root/lint-allow.txt`.
pub fn run_lint(root: &Path) -> io::Result<LintReport> {
    let allow = load_allowlist(root)?;
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} has no crates/ directory", root.display()),
        ));
    }
    let mut files = Vec::new();
    collect_rs(&crates_dir, &mut files)?;

    let mut report = LintReport::default();
    for path in &files {
        // `src/` only: tests, benches, and examples may unwrap freely.
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        if !rel.contains("/src/") {
            continue;
        }
        report.files_scanned += 1;
        let text = fs::read_to_string(path)?;
        let mut raw = Vec::new();
        lint_file(&rel, &text, &mut raw);
        for finding in raw {
            if allow.iter().any(|a| a.waives(&finding)) {
                report.waived.push(finding);
            } else {
                report.findings.push(finding);
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A throwaway `root/crates/<crate>/src` tree for seeding violations.
    struct TempTree {
        root: PathBuf,
    }

    impl TempTree {
        fn new() -> Self {
            static N: AtomicU32 = AtomicU32::new(0);
            let root = std::env::temp_dir().join(format!(
                "islands-check-{}-{}",
                std::process::id(),
                N.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&root).unwrap();
            TempTree { root }
        }

        fn write(&self, rel: &str, text: &str) {
            let path = self.root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        }
    }

    impl Drop for TempTree {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    const CLEAN_LIB: &str = "#![forbid(unsafe_code)]\npub fn ok() {}\n";

    #[test]
    fn seeded_unwrap_in_server_is_flagged() {
        let t = TempTree::new();
        t.write("crates/server/src/lib.rs", CLEAN_LIB);
        t.write(
            "crates/server/src/conn.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        );
        let r = run_lint(&t.root).unwrap();
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "no-unwrap");
        assert_eq!(r.findings[0].file, "crates/server/src/conn.rs");
        assert_eq!(r.findings[0].line, 1);
    }

    #[test]
    fn seeded_unwrap_in_wal_recovery_path_is_flagged() {
        // The WAL subtree is in scope (a panic mid-replay makes a
        // survivable crash unrecoverable); the rest of the storage crate
        // is not.
        let t = TempTree::new();
        t.write("crates/storage/src/lib.rs", CLEAN_LIB);
        t.write(
            "crates/storage/src/wal/recovery.rs",
            "pub fn replay(b: &[u8]) -> u8 { b.first().copied().unwrap() }\n",
        );
        t.write(
            "crates/storage/src/heap.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        );
        let r = run_lint(&t.root).unwrap();
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "no-unwrap");
        assert_eq!(r.findings[0].file, "crates/storage/src/wal/recovery.rs");
    }

    #[test]
    fn unwrap_in_test_section_or_out_of_scope_crate_is_fine() {
        let t = TempTree::new();
        t.write("crates/server/src/lib.rs", CLEAN_LIB);
        t.write(
            "crates/server/src/ok.rs",
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(x: Option<u8>) -> u8 { x.unwrap() }\n}\n",
        );
        // workload is not in the no-unwrap scope.
        t.write("crates/workload/src/lib.rs", CLEAN_LIB);
        t.write(
            "crates/workload/src/gen.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.expect(\"fine here\") }\n",
        );
        // tests/ directories are exempt wholesale.
        t.write(
            "crates/server/tests/e2e.rs",
            "fn f() { None::<u8>.unwrap(); }\n",
        );
        let r = run_lint(&t.root).unwrap();
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn comment_only_mentions_are_ignored() {
        let t = TempTree::new();
        t.write("crates/dtxn/src/lib.rs", CLEAN_LIB);
        t.write(
            "crates/dtxn/src/doc.rs",
            "// callers must not .unwrap() this\npub fn f() { g(); } // was .expect(\"x\")\n",
        );
        let r = run_lint(&t.root).unwrap();
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn sub_millisecond_read_timeout_is_flagged() {
        let t = TempTree::new();
        t.write("crates/net/src/lib.rs", CLEAN_LIB);
        t.write(
            "crates/net/src/sock.rs",
            "pub fn f(s: &S) { s.set_read_timeout(Some(Duration::from_micros(500))); }\n\
             pub fn g(s: &S) { s.set_read_timeout(Some(Duration::from_millis(5))); }\n",
        );
        let r = run_lint(&t.root).unwrap();
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "no-subms-timeout");
        assert_eq!(r.findings[0].line, 1);
    }

    #[test]
    fn hot_loop_sleep_is_flagged_only_in_hot_files() {
        let t = TempTree::new();
        t.write("crates/server/src/lib.rs", CLEAN_LIB);
        t.write(
            "crates/server/src/server.rs",
            "pub fn accept_loop() { std::thread::sleep(d); }\n",
        );
        t.write(
            "crates/server/src/deploy/client.rs",
            "pub fn send() { std::thread::sleep(d); }\n",
        );
        // Waiting for a drained child to exit is a legitimate poll.
        t.write(
            "crates/server/src/deploy/mod.rs",
            "pub fn wait() { std::thread::sleep(d); }\n",
        );
        let r = run_lint(&t.root).unwrap();
        assert_eq!(r.findings.len(), 2, "{:?}", r.findings);
        assert_eq!(r.findings[0].file, "crates/server/src/deploy/client.rs");
        assert_eq!(r.findings[1].file, "crates/server/src/server.rs");
        assert!(r.findings.iter().all(|f| f.rule == "no-hot-loop-sleep"));
    }

    #[test]
    fn mutex_in_obs_hot_path_is_flagged() {
        let t = TempTree::new();
        t.write("crates/obs/src/lib.rs", CLEAN_LIB);
        t.write(
            "crates/obs/src/hist.rs",
            "use std::sync::Mutex;\npub struct H { inner: Mutex<Vec<u64>> }\n",
        );
        let r = run_lint(&t.root).unwrap();
        assert_eq!(r.findings.len(), 2, "{:?}", r.findings);
        assert!(r.findings.iter().all(|f| f.rule == "no-obs-locks"));
        assert_eq!(r.findings[0].file, "crates/obs/src/hist.rs");
    }

    #[test]
    fn locks_outside_obs_or_in_obs_test_section_are_fine() {
        let t = TempTree::new();
        // Locks elsewhere in the workspace are none of this rule's business.
        t.write("crates/server/src/lib.rs", CLEAN_LIB);
        t.write(
            "crates/server/src/state.rs",
            "pub struct S { inner: std::sync::Mutex<u8> }\n",
        );
        // A test-only serializer inside obs is exempt (test sections are).
        t.write("crates/obs/src/lib.rs", CLEAN_LIB);
        t.write(
            "crates/obs/src/reg.rs",
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    static L: std::sync::Mutex<()> = std::sync::Mutex::new(());\n}\n",
        );
        let r = run_lint(&t.root).unwrap();
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn obs_schema_marker_outside_its_one_writer_is_flagged() {
        let t = TempTree::new();
        let writer =
            "pub fn line() -> &'static str { \"{\\\"schema\\\":\\\"islands-obs/1\\\"}\" }\n";
        t.write("crates/bench/src/lib.rs", CLEAN_LIB);
        t.write("crates/bench/src/bin/top.rs", writer);
        // The writer's own crate, and any test section, may spell it.
        t.write("crates/obs/src/lib.rs", CLEAN_LIB);
        t.write("crates/obs/src/snapshot.rs", writer);
        t.write(
            "crates/server/src/lib.rs",
            &format!("{CLEAN_LIB}#[cfg(test)]\nmod tests {{\n{writer}}}\n"),
        );
        let r = run_lint(&t.root).unwrap();
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "one-obs-line-writer");
        assert_eq!(r.findings[0].file, "crates/bench/src/bin/top.rs");
    }

    #[test]
    fn missing_forbid_unsafe_header_is_flagged() {
        let t = TempTree::new();
        t.write("crates/memsim/src/lib.rs", "pub fn f() {}\n");
        let r = run_lint(&t.root).unwrap();
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "forbid-unsafe");
        assert_eq!(r.findings[0].file, "crates/memsim/src/lib.rs");
    }

    #[test]
    fn allowlist_waives_exact_rule_file_and_substring() {
        let t = TempTree::new();
        t.write("crates/server/src/lib.rs", CLEAN_LIB);
        t.write(
            "crates/server/src/conn.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.expect(\"vetted\") }\n\
             pub fn g(x: Option<u8>) -> u8 { x.unwrap() }\n",
        );
        t.write(
            ALLOWLIST_FILE,
            "# vetted exceptions\nno-unwrap\tcrates/server/src/conn.rs\texpect(\"vetted\")\n",
        );
        let r = run_lint(&t.root).unwrap();
        assert_eq!(r.waived.len(), 1);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].line, 2);
    }

    #[test]
    fn malformed_allowlist_is_an_error_not_a_silent_noop() {
        let t = TempTree::new();
        t.write("crates/server/src/lib.rs", CLEAN_LIB);
        t.write(ALLOWLIST_FILE, "no-unwrap crates/server/src/conn.rs\n");
        let err = run_lint(&t.root).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
