//! Findings, suppression, and the analysis driver.
//!
//! The engine lexes every file once, builds the cross-file
//! [`Registry`] (struct shapes, `PartialEq` knowledge, `// lint: timing`
//! annotations), runs each rule, and then
//! applies inline suppressions:
//!
//! ```text
//! // lint:allow(D001, reason = "keys are sorted two lines down")
//! for (k, v) in &map { … }
//! ```
//!
//! An allow comment suppresses the named rules on its own line and on
//! the line immediately below it — enough for both trailing and
//! stand-alone placement. The `reason = "…"` clause is **mandatory**:
//! an allow without a non-empty reason is ignored (the finding stays),
//! so every suppression in the tree documents why it is sound.

use crate::context::Registry;
use crate::lexer::{lex, Token, TokenKind};
use crate::rules;
use std::collections::BTreeMap;
use std::fmt;

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` iteration in report-affecting crates.
    D001,
    /// Ambient entropy (`thread_rng`, `rand::random`, `from_entropy`).
    D002,
    /// Wall-clock timing flowing into a `PartialEq`-compared field.
    D003,
    /// Ad-hoc `std::thread::scope` parallelism outside `sc_stats::par`.
    D004,
    /// `unsafe` hygiene: `// SAFETY:` comments and `#![forbid(unsafe_code)]`.
    S001,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 5] = [Rule::D001, Rule::D002, Rule::D003, Rule::D004, Rule::S001];

    /// The rule's stable identifier (`D001`, …).
    pub fn id(self) -> &'static str {
        match self {
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
            Rule::S001 => "S001",
        }
    }

    /// One-line description, used by `sc-lint rules` and the README table.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D001 => {
                "no HashMap/HashSet iteration in report-affecting crates \
                 (sc-assign, sc-core, sc-datagen, sc-graph, sc-influence, \
                 sc-mobility, sc-serve, sc-sim, sc-spatial, sc-stats, \
                 sc-topics, sc-types); use BTreeMap or an explicit sort"
            }
            Rule::D002 => {
                "no ambient entropy (thread_rng, rand::random, from_entropy); \
                 RNG must flow from seed_from_stream"
            }
            Rule::D003 => {
                "no Instant::now/SystemTime::now feeding a PartialEq-compared \
                 field; timing fields must be excluded from PartialEq and \
                 annotated `// lint: timing`"
            }
            Rule::D004 => {
                "parallel work must go through sc_stats::par (map_shards/\
                 map_chunked), not ad-hoc std::thread::scope"
            }
            Rule::S001 => {
                "every unsafe block carries a // SAFETY: comment; every crate \
                 with zero unsafe declares #![forbid(unsafe_code)]"
            }
        }
    }

    fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One source file handed to the engine: a workspace-relative path
/// (forward slashes) plus its full text.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, e.g. `crates/assign/src/lib.rs`.
    pub path: String,
    /// The file's contents.
    pub text: String,
}

/// A lexed file as rules see it.
#[derive(Debug)]
pub struct LexedFile {
    /// Workspace-relative path.
    pub path: String,
    /// Comment-free token stream (what rules match on).
    pub code: Vec<Token>,
    /// Comment tokens only, for `// SAFETY:` / `// lint:` lookups.
    pub comments: Vec<Token>,
}

impl LexedFile {
    fn new(file: &SourceFile) -> LexedFile {
        let tokens = lex(&file.text);
        let (comments, code): (Vec<Token>, Vec<Token>) = tokens
            .into_iter()
            .partition(|t| t.kind == TokenKind::Comment);
        LexedFile {
            path: file.path.clone(),
            code,
            comments,
        }
    }

    /// True when some comment on `line` (or a block comment starting
    /// there) contains `needle`.
    pub fn comment_on_line_contains(&self, line: u32, needle: &str) -> bool {
        self.comments
            .iter()
            .any(|c| c.line == line && c.text.contains(needle))
    }
}

/// A single rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation, specific to the site.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Parsed `// lint:allow(...)` comments of one file: rule → lines the
/// allow covers. A trailing allow (code before it on the same line)
/// covers exactly that line; a stand-alone allow covers the line
/// below it.
#[derive(Debug, Default)]
pub struct Allows {
    by_rule: BTreeMap<Rule, Vec<u32>>,
}

impl Allows {
    fn parse(file: &LexedFile) -> Allows {
        let mut allows = Allows::default();
        for c in &file.comments {
            let Some(start) = c.text.find("lint:allow(") else {
                continue;
            };
            let trailing = file.code.iter().any(|t| t.line == c.line);
            let covered_line = if trailing { c.line } else { c.line + 1 };
            let args = &c.text[start + "lint:allow(".len()..];
            let Some(end) = args.find(')') else { continue };
            let args = &args[..end];
            // The reason clause is mandatory and must be non-empty.
            let Some(reason_at) = args.find("reason") else {
                continue;
            };
            let reason = args[reason_at..]
                .split('"')
                .nth(1)
                .unwrap_or("")
                .trim()
                .to_string();
            if reason.is_empty() {
                continue;
            }
            for part in args[..reason_at].split(',') {
                if let Some(rule) = Rule::from_id(part.trim()) {
                    allows.by_rule.entry(rule).or_default().push(covered_line);
                }
            }
        }
        allows
    }

    /// Is `rule` allowed at `line`?
    pub fn covers(&self, rule: Rule, line: u32) -> bool {
        self.by_rule
            .get(&rule)
            .is_some_and(|lines| lines.contains(&line))
    }
}

/// Runs every rule over `files` and returns the surviving findings,
/// sorted by (file, line, rule).
///
/// `files` is the whole walked workspace: cross-file context (struct
/// registry for D003, per-crate grouping for S001) is built from the
/// same set, so callers can analyze a real checkout, a fixture
/// directory, or an in-memory synthetic tree identically.
pub fn analyze(files: &[SourceFile]) -> Vec<Finding> {
    let lexed: Vec<LexedFile> = files.iter().map(LexedFile::new).collect();
    let registry = Registry::build(&lexed);

    let mut findings = Vec::new();
    for file in &lexed {
        rules::d001::check(file, &mut findings);
        rules::d002::check(file, &mut findings);
        rules::d003::check(file, &registry, &mut findings);
        rules::d004::check(file, &mut findings);
        rules::s001::check_unsafe_comments(file, &mut findings);
    }
    rules::s001::check_forbid(&lexed, &mut findings);

    let allows: BTreeMap<&str, Allows> = lexed
        .iter()
        .map(|f| (f.path.as_str(), Allows::parse(f)))
        .collect();
    findings.retain(|f| {
        allows
            .get(f.file.as_str())
            .is_none_or(|a| !a.covers(f.rule, f.line))
    });
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings
}

/// Renders findings as the plain `file:line RULE message` report.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    out
}

/// Renders findings as a JSON array (machine-readable `--json` mode).
pub fn render_json(findings: &[Finding]) -> String {
    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            escape(&f.file),
            f.line,
            f.rule,
            escape(&f.message)
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, text: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            text: text.to_string(),
        }
    }

    #[test]
    fn allow_with_reason_suppresses_same_and_next_line() {
        let src = "\
#![forbid(unsafe_code)]
fn f() {
    // lint:allow(D002, reason = \"fixture\")
    let r = thread_rng();
    let s = thread_rng(); // lint:allow(D002, reason = \"fixture\")
    let t = thread_rng();
}
";
        let findings = analyze(&[file("crates/demo/src/lib.rs", src)]);
        let d002: Vec<u32> = findings
            .iter()
            .filter(|f| f.rule == Rule::D002)
            .map(|f| f.line)
            .collect();
        assert_eq!(d002, vec![6], "only the unannotated call survives");
    }

    #[test]
    fn allow_without_reason_is_ignored() {
        let src = "\
#![forbid(unsafe_code)]
// lint:allow(D002)
fn f() -> u64 { thread_rng() }
";
        let findings = analyze(&[file("crates/demo/src/lib.rs", src)]);
        assert!(
            findings.iter().any(|f| f.rule == Rule::D002),
            "reason-less allow must not suppress: {findings:?}"
        );
    }

    #[test]
    fn json_output_escapes_and_shapes() {
        let findings = vec![Finding {
            file: "a.rs".into(),
            line: 3,
            rule: Rule::D001,
            message: "say \"hi\"".into(),
        }];
        let json = render_json(&findings);
        assert_eq!(
            json,
            "[{\"file\":\"a.rs\",\"line\":3,\"rule\":\"D001\",\"message\":\"say \\\"hi\\\"\"}]\n"
        );
    }

    #[test]
    fn findings_are_sorted_and_text_rendered() {
        let src_b = "#![forbid(unsafe_code)]\nfn f() -> u64 { thread_rng() }\n";
        let src_a = "#![forbid(unsafe_code)]\nfn g() -> u64 { thread_rng() }\n";
        let findings = analyze(&[
            file("crates/b/src/lib.rs", src_b),
            file("crates/a/src/lib.rs", src_a),
        ]);
        assert_eq!(findings.len(), 2);
        assert!(findings[0].file < findings[1].file, "sorted by path");
        assert!(render_text(&findings).contains("crates/a/src/lib.rs:2 D002"));
    }
}
