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
//! `for … in [&[mut]] map` loops (both plain and `self.field` forms).

use crate::engine::{Finding, LexedFile, Rule};
use crate::lexer::TokenKind;
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
                let mut is_hash = false;
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
                    } else if t.is_ident("HashMap") || t.is_ident("HashSet") {
                        is_hash = true;
                    }
                    k += 1;
                }
                if is_hash {
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
            // `self.NAME` accesses. A shallow scan of the body suffices:
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
        // `for … in [&[mut]] NAME {` / `for … in [&[mut]] self.NAME {`
        if t.is_ident("for") {
            if let Some((name, line, after)) = for_loop_target(file, i) {
                let tracked = match &name {
                    ForTarget::Local(n) => locals.contains(n),
                    ForTarget::Field(n) => fields.contains(n),
                };
                if tracked && code.get(after).is_some_and(|t| t.is_punct("{")) {
                    findings.push(finding(file, line, name.name()));
                    i = after;
                    continue;
                }
            }
        }
        // Method chains rooted at a tracked name.
        let (rooted, chain_start) = if t.kind == TokenKind::Ident && locals.contains(&t.text) {
            // Exclude definitions (`let NAME`) — pass 1 consumed those
            // positions oddly; a cheap guard: previous token not `let`/`mut`.
            let prev_ok = i == 0
                || !(code[i - 1].is_ident("let")
                    || code[i - 1].is_ident("mut")
                    || code[i - 1].is_punct("."));
            (prev_ok, i + 1)
        } else if t.is_ident("self")
            && code.get(i + 1).is_some_and(|t| t.is_punct("."))
            && code
                .get(i + 2)
                .is_some_and(|t| t.kind == TokenKind::Ident && fields.contains(&t.text))
        {
            (true, i + 3)
        } else {
            (false, 0)
        };
        if rooted {
            if let Some((line, method)) = chain_hits_iteration(file, chain_start) {
                findings.push(finding_method(file, line, &code[i].text, &method));
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
/// target identifier (plain or `self.field`), its line, and the index
/// just past it.
fn for_loop_target(file: &LexedFile, i: usize) -> Option<(ForTarget, u32, usize)> {
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
    if code.get(k).is_some_and(|t| t.is_ident("self"))
        && code.get(k + 1).is_some_and(|t| t.is_punct("."))
        && code.get(k + 2).is_some_and(|t| t.kind == TokenKind::Ident)
    {
        return Some((
            ForTarget::Field(code[k + 2].text.clone()),
            code[k + 2].line,
            k + 3,
        ));
    }
    if code.get(k).is_some_and(|t| t.kind == TokenKind::Ident) {
        return Some((ForTarget::Local(code[k].text.clone()), code[k].line, k + 1));
    }
    None
}

/// Walks a method chain starting at `code[start]` (expected `.`) and
/// returns the first iteration method hit, if any.
fn chain_hits_iteration(file: &LexedFile, start: usize) -> Option<(u32, String)> {
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
            return Some((m.line, m.text.clone()));
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
