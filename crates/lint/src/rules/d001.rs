//! D001 — no `HashMap`/`HashSet` iteration in report-affecting crates.
//!
//! Hash iteration order depends on the hasher's per-process state and
//! the insertion history, so any loop over a hash container can leak
//! nondeterminism into assignment reports and snapshots. In every
//! crate whose output reaches one — all but the sc-bench and sc-lint
//! tools — the rule requires `BTreeMap`/`BTreeSet` (or an explicit
//! sort, documented via `lint:allow`) wherever a map is *iterated*;
//! pure lookup tables (`get`/`insert`/`contains_key`) remain free to
//! use hashing.
//!
//! Detection is scope-light: the rule tracks identifiers bound to hash
//! containers — `let` bindings whose initializer or type annotation
//! mentions `HashMap`/`HashSet`, and struct fields typed so — then
//! flags iteration on those identifiers: `.iter()`, `.iter_mut()`,
//! `.keys()`, `.values()`, `.values_mut()`, `.into_iter()`,
//! `.into_keys()`, `.into_values()`, `.drain()`, and direct
//! `for … in [&[mut]] map` loops. A field is tracked through any
//! `expr.field` path (`self.field`, `inner.map`), but not through a
//! method call `expr.field(..)`. A `let` whose type or initializer
//! names a hash container twice is a map of maps: iterating it hands
//! each inner map to the closure or `for` pattern that receives it, so
//! that pattern's last binding is tracked too.

use crate::engine::{Finding, LexedFile, Rule};
use crate::lexer::{Token, TokenKind};
use crate::rules::is_report_affecting;
use std::collections::BTreeSet;

const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Runs D001 over one file.
pub fn check(file: &LexedFile, findings: &mut Vec<Finding>) {
    if !is_report_affecting(&file.path) {
        return;
    }
    let code = &file.code;

    // Pass 1: names bound to hash containers.
    let mut locals: BTreeSet<String> = BTreeSet::new();
    let mut nested: BTreeSet<String> = BTreeSet::new();
    let mut fields: BTreeSet<String> = BTreeSet::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_ident("let") {
            // `let [mut] NAME (: TYPE)? = INIT ;` — NAME is tracked when
            // anything up to the terminating `;` names a hash container.
            // Destructuring patterns (`let Some(x) = …`) are skipped:
            // a tracked binding must be `NAME :` or `NAME =`.
            let mut j = i + 1;
            if j < code.len() && code[j].is_ident("mut") {
                j += 1;
            }
            if j + 1 < code.len()
                && code[j].kind == TokenKind::Ident
                && (code[j + 1].is_punct(":") || code[j + 1].is_punct("="))
            {
                let name = code[j].text.clone();
                let mut depth = 0i32;
                let mut k = j + 1;
                // Hash names in the type annotation and in the initializer.
                let (mut in_init, mut hashes) = (false, [0usize; 2]);
                while k < code.len() {
                    let t = &code[k];
                    if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                        depth += 1;
                    } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                    } else if depth == 0 && t.is_punct(";") {
                        break;
                    } else if depth == 0 && t.is_punct("=") {
                        in_init = true;
                    } else if t.is_ident("HashMap") || t.is_ident("HashSet") {
                        hashes[usize::from(in_init)] += 1;
                    }
                    k += 1;
                }
                if hashes.iter().any(|&n| n >= 2) {
                    nested.insert(name.clone());
                }
                if hashes.iter().any(|&n| n > 0) {
                    locals.insert(name);
                }
                i = j + 1;
                continue;
            }
        } else if code[i].is_ident("fn") {
            // Parameters typed `…HashMap…`/`…HashSet…` are tracked like
            // locals: `fn f(live: HashSet<u64>, n: usize)`.
            let mut j = i + 1;
            while j < code.len()
                && !code[j].is_punct("(")
                && !code[j].is_punct("{")
                && !code[j].is_punct(";")
            {
                j += 1;
            }
            if j < code.len() && code[j].is_punct("(") {
                let end = crate::context::skip_balanced(code, j);
                let mut k = j + 1;
                let mut pending: Option<String> = None;
                let mut depth = 0i32;
                while k < end - 1 {
                    let t = &code[k];
                    if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
                        depth += 1;
                    } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
                        depth -= 1;
                    } else if depth == 0
                        && t.kind == TokenKind::Ident
                        && k + 1 < end
                        && code[k + 1].is_punct(":")
                    {
                        pending = Some(t.text.clone());
                    } else if (t.is_ident("HashMap") || t.is_ident("HashSet")) && pending.is_some()
                    {
                        locals.insert(pending.clone().expect("pending param"));
                    } else if depth == 0 && t.is_punct(",") {
                        pending = None;
                    }
                    k += 1;
                }
                i = end;
                continue;
            }
        } else if code[i].is_ident("struct") {
            // Fields typed `…HashMap…` / `…HashSet…` become tracked for
            // `expr.NAME` accesses. A shallow scan of the body suffices:
            // record `IDENT :` entries and whether a hash name appears
            // before the next top-level `,`.
            let mut j = i + 1;
            while j < code.len() && !code[j].is_punct("{") && !code[j].is_punct(";") {
                j += 1;
            }
            if j < code.len() && code[j].is_punct("{") {
                let end = crate::context::skip_balanced(code, j);
                let mut k = j + 1;
                let mut pending: Option<String> = None;
                let mut depth = 0i32;
                while k < end - 1 {
                    let t = &code[k];
                    if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") || t.is_punct("<") {
                        depth += 1;
                    } else if t.is_punct(")")
                        || t.is_punct("]")
                        || t.is_punct("}")
                        || t.is_punct(">")
                    {
                        depth -= 1;
                    } else if depth == 0
                        && t.kind == TokenKind::Ident
                        && k + 1 < end
                        && code[k + 1].is_punct(":")
                    {
                        pending = Some(t.text.clone());
                    } else if (t.is_ident("HashMap") || t.is_ident("HashSet")) && pending.is_some()
                    {
                        fields.insert(pending.clone().expect("pending field"));
                    } else if depth == 0 && t.is_punct(",") {
                        pending = None;
                    }
                    k += 1;
                }
                i = end;
                continue;
            }
        }
        i += 1;
    }

    if locals.is_empty() && fields.is_empty() {
        return;
    }

    // Pass 2: iteration over tracked names.
    let mut i = 0;
    while i < code.len() {
        let t = &code[i];
        // `for … in [&[mut]] NAME {` / `for … in [&[mut]] expr.NAME {`
        if t.is_ident("for") {
            if let Some((name, line, after, in_at)) = for_loop_target(file, i) {
                let tracked = match &name {
                    ForTarget::Local(n) => locals.contains(n),
                    ForTarget::Field(n) => fields.contains(n),
                };
                if matches!(&name, ForTarget::Local(n) if nested.contains(n)) {
                    locals.extend(last_binding(&code[i + 1..in_at]));
                }
                if tracked && code.get(after).is_some_and(|t| t.is_punct("{")) {
                    findings.push(finding(file, line, name.name()));
                    i = after;
                    continue;
                }
            }
        }
        // Method chains rooted at a tracked local or at `.FIELD` (not a
        // `.FIELD(..)` method call).
        let (name, chain_start) = if t.kind == TokenKind::Ident && locals.contains(&t.text) {
            // Exclude definitions (`let NAME`) — pass 1 consumed those
            // positions oddly; a cheap guard: previous token not `let`/`mut`.
            let prev_ok = i == 0
                || !(code[i - 1].is_ident("let")
                    || code[i - 1].is_ident("mut")
                    || code[i - 1].is_punct("."));
            (prev_ok.then_some(&t.text), i + 1)
        } else if t.is_punct(".")
            && code
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident && fields.contains(&t.text))
            && !code.get(i + 2).is_some_and(|t| t.is_punct("("))
        {
            (Some(&code[i + 1].text), i + 2)
        } else {
            (None, 0)
        };
        if let Some(name) = name {
            if let Some((line, method, after)) = chain_hits_iteration(file, chain_start) {
                findings.push(finding_method(file, line, name, &method));
                if nested.contains(name) {
                    locals.extend(closure_binding(code, after));
                }
            }
        }
        i += 1;
    }
}

enum ForTarget {
    Local(String),
    Field(String),
}

impl ForTarget {
    fn name(&self) -> &str {
        match self {
            ForTarget::Local(n) | ForTarget::Field(n) => n,
        }
    }
}

/// For a `for` token at `i`, finds the loop's `in` and returns the
/// target identifier (plain, or the last field of an `expr.field`
/// path), its line, the index just past it, and the index of `in`.
fn for_loop_target(file: &LexedFile, i: usize) -> Option<(ForTarget, u32, usize, usize)> {
    let code = &file.code;
    // Find `in` at pattern depth 0 before the loop body opens.
    let mut depth = 0i32;
    let mut j = i + 1;
    while j < code.len() {
        let t = &code[j];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && t.is_ident("in") {
            break;
        } else if depth == 0 && t.is_punct("{") {
            return None; // not a `for … in` construct we understand
        }
        j += 1;
    }
    let mut k = j + 1;
    while k < code.len() && (code[k].is_punct("&") || code[k].is_ident("mut")) {
        k += 1;
    }
    if !code.get(k).is_some_and(|t| t.kind == TokenKind::Ident) {
        return None;
    }
    // Walk `a.b.c`, stopping before a method call.
    let mut last = k;
    while code.get(last + 1).is_some_and(|t| t.is_punct("."))
        && code
            .get(last + 2)
            .is_some_and(|t| t.kind == TokenKind::Ident)
        && !code.get(last + 3).is_some_and(|t| t.is_punct("("))
    {
        last += 2;
    }
    let name = code[last].text.clone();
    let target = if last == k {
        ForTarget::Local(name)
    } else {
        ForTarget::Field(name)
    };
    Some((target, code[last].line, last + 1, j))
}

/// The last binding a pattern introduces (`(venue, inner)` → `inner`),
/// the one that receives a map's value.
fn last_binding(pattern: &[Token]) -> Option<String> {
    pattern
        .iter()
        .rev()
        .find(|t| t.kind == TokenKind::Ident && !["mut", "ref", "_"].contains(&t.text.as_str()))
        .map(|t| t.text.clone())
}

/// After an iteration method named at `code[at - 1]`, the last binding
/// of the first closure the chain hands the elements to
/// (`.into_iter().map(|(k, inner)| …)` → `inner`).
fn closure_binding(code: &[Token], at: usize) -> Option<String> {
    let mut j = at;
    if code.get(j).is_some_and(|t| t.is_punct("(")) {
        j = crate::context::skip_balanced(code, j);
    }
    let opens = code.get(j).is_some_and(|t| t.is_punct("."))
        && code.get(j + 1).is_some_and(|t| t.kind == TokenKind::Ident)
        && code.get(j + 2).is_some_and(|t| t.is_punct("("))
        && code.get(j + 3).is_some_and(|t| t.is_punct("|"));
    if !opens {
        return None;
    }
    let close = (j + 4..code.len()).find(|&k| code[k].is_punct("|"))?;
    last_binding(&code[j + 4..close])
}

/// Walks a method chain starting at `code[start]` (expected `.`) and
/// returns the first iteration method hit, if any, with the index just
/// past its name.
fn chain_hits_iteration(file: &LexedFile, start: usize) -> Option<(u32, String, usize)> {
    let code = &file.code;
    let mut i = start;
    loop {
        if !code.get(i).is_some_and(|t| t.is_punct(".")) {
            return None;
        }
        let m = code.get(i + 1)?;
        if m.kind != TokenKind::Ident {
            return None;
        }
        if ITER_METHODS.contains(&m.text.as_str()) {
            return Some((m.line, m.text.clone(), i + 2));
        }
        // Skip turbofish and call arguments, then continue the chain.
        let mut j = i + 2;
        if code.get(j).is_some_and(|t| t.is_punct("::")) {
            j += 1;
            if code.get(j).is_some_and(|t| t.is_punct("<")) {
                j = crate::context::skip_balanced(code, j);
            }
        }
        if code.get(j).is_some_and(|t| t.is_punct("(")) {
            j = crate::context::skip_balanced(code, j);
        } else {
            // Field access, not a call: keep walking (`a.b.iter()`).
        }
        i = j;
    }
}

fn finding(file: &LexedFile, line: u32, name: &str) -> Finding {
    Finding {
        file: file.path.clone(),
        line,
        rule: Rule::D001,
        message: format!(
            "iterating hash container `{name}` is order-nondeterministic; \
             use BTreeMap/BTreeSet or sort the keys first"
        ),
    }
}

fn finding_method(file: &LexedFile, line: u32, name: &str, method: &str) -> Finding {
    Finding {
        file: file.path.clone(),
        line,
        rule: Rule::D001,
        message: format!(
            "`.{method}()` on hash container `{name}` is order-nondeterministic; \
             use BTreeMap/BTreeSet or sort the keys first"
        ),
    }
}
