//! The detlint rule engine.
//!
//! Operates on the lexed token stream of one file plus the workspace
//! manifest. Rules:
//!
//! - `hash-iter` — iteration over a `HashMap`/`HashSet` in simulation
//!   crates, where unordered order can feed event order or emitted
//!   records. Fires on `.iter()`-family calls and `for _ in map` loops
//!   whose receiver was declared with a hash-collection type in this file.
//! - `wall-clock` — `Instant::now` / `SystemTime` outside the profiling
//!   subsystem; simulation time must come from the virtual clock.
//! - `ad-hoc-rng` — `thread_rng` / `rand::random` anywhere; all
//!   randomness must be derived from the run seed.
//! - `float-accum` — float `sum()`/`fold()` at the end of a method chain
//!   rooted at a hash collection: float addition is not associative, so
//!   unordered accumulation is run-to-run unstable.
//! - `hot-alloc` — `.clone()`, `Vec::new`, `to_vec`, `format!`,
//!   `Box::new` inside functions the manifest pins as allocation-free.
//! - `bad-allow` — a `detlint::allow` annotation without a reason, or
//!   naming an unknown rule.
//! - `stale-allow` — a well-formed allow that no longer suppresses any
//!   finding; the annotation set must stay honest.
//! - `stale-hot` — a `[hot]` manifest entry naming a function that no
//!   longer exists in its file; a renamed or deleted hot function must
//!   not silently drop out of the `hot-alloc` pin.
//!
//! Suppression: `// detlint::allow(rule[, rule]): reason` suppresses
//! matching findings on its own line (trailing comment) or the next line
//! (standalone comment).

use crate::lexer::{self, Comment, Tok, TokKind};
use crate::manifest::Manifest;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    HashIter,
    WallClock,
    AdHocRng,
    FloatAccum,
    HotAlloc,
    BadAllow,
    StaleAllow,
    StaleHot,
}

impl Rule {
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::WallClock => "wall-clock",
            Rule::AdHocRng => "ad-hoc-rng",
            Rule::FloatAccum => "float-accum",
            Rule::HotAlloc => "hot-alloc",
            Rule::BadAllow => "bad-allow",
            Rule::StaleAllow => "stale-allow",
            Rule::StaleHot => "stale-hot",
        }
    }

    /// Rule ids a `detlint::allow` may name (the meta rules cannot be
    /// suppressed, so an honest annotation set stays enforceable).
    pub const ALLOWABLE: [Rule; 5] = [
        Rule::HashIter,
        Rule::WallClock,
        Rule::AdHocRng,
        Rule::FloatAccum,
        Rule::HotAlloc,
    ];
}

#[derive(Debug, Clone)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub rule: Rule,
    pub message: String,
}

struct Allow {
    line: u32,
    col: u32,
    /// Line whose findings this allow suppresses.
    target_line: u32,
    rules: Vec<Rule>,
    used: bool,
}

/// Methods whose call on a hash collection observes iteration order.
const ITER_METHODS: [&str; 11] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
    "extract_if",
];

/// Lints one file; `path` is the workspace-relative path used for manifest
/// scoping and reporting.
pub fn check_file(path: &str, src: &str, manifest: &Manifest) -> Vec<Finding> {
    let (toks, comments) = lexer::lex(src);
    let mut findings = Vec::new();
    let mut allows = parse_allows(path, &comments, &mut findings);

    let sim = manifest.is_sim_path(path);
    let wall_exempt = manifest.is_wall_clock_exempt(path);
    let hot_fns = manifest.hot_fns(path);
    let hot_spans: Vec<_> = if hot_fns.is_empty() {
        Vec::new()
    } else {
        fn_spans(&toks)
            .into_iter()
            .filter(|(name, _, _)| hot_fns.iter().any(|f| f == name))
            .collect()
    };
    for f in hot_fns {
        if !hot_spans.iter().any(|(name, _, _)| name == f) {
            findings.push(Finding {
                file: path.to_string(),
                line: 1,
                col: 1,
                rule: Rule::StaleHot,
                message: format!(
                    "[hot] pins `{f}`, but this file defines no `fn {f}`; update the manifest"
                ),
            });
        }
    }
    let hash_names = if sim { hash_names(&toks) } else { Vec::new() };

    let mut raw = Vec::new();
    for i in 0..toks.len() {
        if sim {
            scan_hash_iter(path, &toks, i, &hash_names, &mut raw);
        }
        if !wall_exempt {
            scan_wall_clock(path, &toks, i, &mut raw);
        }
        scan_rng(path, &toks, i, &mut raw);
        if hot_spans.iter().any(|&(_, s, e)| i >= s && i < e) {
            scan_hot_alloc(path, &toks, i, &hot_spans, &mut raw);
        }
    }

    // Apply suppressions; unmatched well-formed allows become stale.
    for f in raw {
        let allowed = allows
            .iter_mut()
            .find(|a| a.target_line == f.line && a.rules.contains(&f.rule));
        match allowed {
            Some(a) => a.used = true,
            None => findings.push(f),
        }
    }
    for a in &allows {
        if !a.used {
            findings.push(Finding {
                file: path.to_string(),
                line: a.line,
                col: a.col,
                rule: Rule::StaleAllow,
                message: format!(
                    "allow({}) suppresses nothing on line {}; remove it or fix the target",
                    a.rules
                        .iter()
                        .map(|r| r.id())
                        .collect::<Vec<_>>()
                        .join(", "),
                    a.target_line
                ),
            });
        }
    }
    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    findings
}

/// Parses `detlint::allow(rule[, rule]): reason` comments. Malformed
/// annotations produce `bad-allow` findings and suppress nothing.
fn parse_allows(path: &str, comments: &[Comment], findings: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("detlint::allow") else {
            continue;
        };
        let mut bad = |msg: String| {
            findings.push(Finding {
                file: path.to_string(),
                line: c.line,
                col: c.col,
                rule: Rule::BadAllow,
                message: msg,
            });
        };
        let Some(rest) = rest.trim_start().strip_prefix('(') else {
            bad("allow needs a rule list: detlint::allow(rule): reason".into());
            continue;
        };
        let Some((list, tail)) = rest.split_once(')') else {
            bad("unclosed rule list in detlint::allow".into());
            continue;
        };
        let mut rules = Vec::new();
        let mut ok = true;
        for name in list.split(',').map(str::trim) {
            match Rule::ALLOWABLE.iter().find(|r| r.id() == name) {
                Some(&r) => rules.push(r),
                None => {
                    bad(format!(
                        "unknown or non-suppressible rule `{name}` in allow"
                    ));
                    ok = false;
                }
            }
        }
        let reason = tail.trim_start().strip_prefix(':').map(str::trim);
        match reason {
            Some(r) if !r.is_empty() => {}
            _ => {
                bad(
                    "allow without a reason: write detlint::allow(rule): <why this is sound>"
                        .into(),
                );
                ok = false;
            }
        }
        if ok {
            allows.push(Allow {
                line: c.line,
                col: c.col,
                target_line: if c.standalone { c.line + 1 } else { c.line },
                rules,
                used: false,
            });
        }
    }
    allows
}

/// All `fn name` items with their body token ranges (nested included).
fn fn_spans(toks: &[Tok]) -> Vec<(String, usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is_ident("fn") {
            if let Some(name) = toks[i + 1].ident() {
                // Find the body `{` at zero paren/bracket depth; a `;`
                // first means a bodyless declaration.
                let mut j = i + 2;
                let (mut paren, mut bracket) = (0i32, 0i32);
                let mut body = None;
                while j < toks.len() {
                    match toks[j].kind {
                        TokKind::Punct('(') => paren += 1,
                        TokKind::Punct(')') => paren -= 1,
                        TokKind::Punct('[') => bracket += 1,
                        TokKind::Punct(']') => bracket -= 1,
                        TokKind::Punct('{') if paren == 0 && bracket == 0 => {
                            body = Some(j);
                            break;
                        }
                        TokKind::Punct(';') if paren == 0 && bracket == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(start) = body {
                    let mut depth = 0i32;
                    let mut end = toks.len();
                    for (k, t) in toks.iter().enumerate().skip(start) {
                        match t.kind {
                            TokKind::Punct('{') => depth += 1,
                            TokKind::Punct('}') => {
                                depth -= 1;
                                if depth == 0 {
                                    end = k + 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    spans.push((name.to_string(), start, end));
                }
            }
        }
        i += 1;
    }
    spans
}

/// Names declared with a hash-collection type in this file: struct fields
/// and bindings annotated `name: ...HashMap<...>...`, and `let` bindings
/// initialized from `HashMap::`/`HashSet::` constructors.
fn hash_names(toks: &[Tok]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let mut add = |n: &str| {
        if !names.iter().any(|x| x == n) {
            names.push(n.to_string());
        }
    };
    for i in 0..toks.len() {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        if matches!(
            name,
            "fn" | "let" | "mut" | "pub" | "if" | "else" | "match" | "return"
        ) {
            continue;
        }
        // `name : <type containing HashMap/HashSet>` up to a top-level
        // terminator. Angle/paren depth tracked so generic commas don't
        // end the scan early.
        if i + 1 < toks.len() && toks[i + 1].is_punct(':') && !is_path_sep(toks, i + 1) {
            let (mut depth, mut j) = (0i32, i + 2);
            while j < toks.len() && j < i + 64 {
                match &toks[j].kind {
                    TokKind::Punct('<') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct('>') | TokKind::Punct(')') | TokKind::Punct(']') => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1
                    }
                    TokKind::Punct(',')
                    | TokKind::Punct(';')
                    | TokKind::Punct('=')
                    | TokKind::Punct('{')
                        if depth == 0 =>
                    {
                        break
                    }
                    TokKind::Ident(t) if t == "HashMap" || t == "HashSet" => {
                        add(name);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // `let [mut] name = ...HashMap::...` / `HashSet::...` before `;`.
        if name == "let" {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            let Some(bound) = toks.get(j).and_then(Tok::ident) else {
                continue;
            };
            if toks.get(j + 1).map(|t| t.is_punct('=')) == Some(true) {
                let mut k = j + 2;
                while k < toks.len() && k < j + 16 {
                    match toks[k].ident() {
                        Some("HashMap") | Some("HashSet") => {
                            add(bound);
                            break;
                        }
                        _ if toks[k].is_punct(';') => break,
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
    }
    names
}

/// True when the `:` at `i` is half of a `::` path separator.
fn is_path_sep(toks: &[Tok], i: usize) -> bool {
    (i > 0 && toks[i - 1].is_punct(':')) || toks.get(i + 1).map(|t| t.is_punct(':')) == Some(true)
}

fn push(out: &mut Vec<Finding>, path: &str, t: &Tok, rule: Rule, message: String) {
    out.push(Finding {
        file: path.to_string(),
        line: t.line,
        col: t.col,
        rule,
        message,
    });
}

fn scan_hash_iter(path: &str, toks: &[Tok], i: usize, names: &[String], out: &mut Vec<Finding>) {
    // Receiver position: an identifier declared as a hash collection, not
    // itself a call (`series(` is the method, `series.` the field).
    let is_hash_recv = |k: usize| {
        toks.get(k)
            .and_then(Tok::ident)
            .is_some_and(|n| names.iter().any(|h| h == n))
            && toks.get(k + 1).map(|t| t.is_punct('(')) != Some(true)
    };

    // `recv.iter()` and friends.
    if is_hash_recv(i)
        && toks.get(i + 1).map(|t| t.is_punct('.')) == Some(true)
        && toks
            .get(i + 2)
            .and_then(Tok::ident)
            .is_some_and(|m| ITER_METHODS.contains(&m))
        && toks.get(i + 3).map(|t| t.is_punct('(')) == Some(true)
    {
        let name = toks[i].ident().unwrap();
        let method = toks[i + 2].ident().unwrap();
        push(
            out,
            path,
            &toks[i + 2],
            Rule::HashIter,
            format!(
                "unordered iteration: `{name}.{method}()` walks a hash collection in \
                 simulation code; use BTreeMap/sorted order or justify with an allow"
            ),
        );
        scan_float_chain(path, toks, i + 2, out);
    }

    // `for pat in [&[mut]] expr-ending-in-hash-name {`.
    if toks[i].is_ident("for") {
        let (mut depth, mut j) = (0i32, i + 1);
        let mut in_at = None;
        while j < toks.len() && j < i + 48 {
            match toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('{') | TokKind::Punct(';') => break,
                TokKind::Ident(ref s) if s == "in" && depth == 0 => {
                    in_at = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(in_at) = in_at else { return };
        let (mut depth, mut j) = (0i32, in_at + 1);
        let mut last = None;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('{') if depth == 0 => break,
                _ => {}
            }
            last = Some(j);
            j += 1;
        }
        if let Some(l) = last {
            if is_hash_recv(l) {
                let name = toks[l].ident().unwrap();
                push(
                    out,
                    path,
                    &toks[l],
                    Rule::HashIter,
                    format!(
                        "unordered iteration: `for _ in {name}` consumes a hash collection \
                         in simulation code; use BTreeMap/sorted order or justify with an allow"
                    ),
                );
            }
        }
    }
}

/// Walks the method chain starting at the iteration method token and flags
/// float `sum::<f64>()` / `fold(<float literal>, ...)` accumulation.
fn scan_float_chain(path: &str, toks: &[Tok], mut m: usize, out: &mut Vec<Finding>) {
    loop {
        let name = toks[m].ident().unwrap_or_default().to_string();
        let open = m + 1;
        if toks.get(open).map(|t| t.is_punct('(')) != Some(true) {
            // `sum::<f64>()` carries a turbofish between name and parens.
            if name == "sum"
                && toks.get(m + 1).map(|t| t.is_punct(':')) == Some(true)
                && toks.get(m + 2).map(|t| t.is_punct(':')) == Some(true)
                && toks
                    .get(m + 4)
                    .and_then(Tok::ident)
                    .is_some_and(|t| t == "f64" || t == "f32")
            {
                push(
                    out,
                    path,
                    &toks[m],
                    Rule::FloatAccum,
                    "float accumulation over an unordered iterator: float addition is not \
                     associative, so the total depends on hash order"
                        .to_string(),
                );
            }
            return;
        }
        if name == "fold" {
            if let Some(TokKind::Num(n)) = toks.get(open + 1).map(|t| &t.kind) {
                if n.contains('.') || n.ends_with("f32") || n.ends_with("f64") {
                    push(
                        out,
                        path,
                        &toks[m],
                        Rule::FloatAccum,
                        "float accumulation over an unordered iterator: float addition is \
                         not associative, so the total depends on hash order"
                            .to_string(),
                    );
                }
            }
        }
        // Skip the argument list, then continue if the chain goes on.
        let mut depth = 0i32;
        let mut j = open;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('(') => depth += 1,
                TokKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if toks.get(j + 1).map(|t| t.is_punct('.')) == Some(true)
            && toks.get(j + 2).and_then(Tok::ident).is_some()
        {
            m = j + 2;
        } else {
            return;
        }
    }
}

fn scan_wall_clock(path: &str, toks: &[Tok], i: usize, out: &mut Vec<Finding>) {
    if toks[i].is_ident("Instant")
        && toks.get(i + 1).map(|t| t.is_punct(':')) == Some(true)
        && toks.get(i + 2).map(|t| t.is_punct(':')) == Some(true)
        && toks.get(i + 3).map(|t| t.is_ident("now")) == Some(true)
    {
        push(
            out,
            path,
            &toks[i],
            Rule::WallClock,
            "wall-clock read: `Instant::now` outside the profiling subsystem; \
             simulation logic must use virtual time"
                .to_string(),
        );
    }
    if toks[i].is_ident("SystemTime") {
        push(
            out,
            path,
            &toks[i],
            Rule::WallClock,
            "wall-clock read: `SystemTime` outside the profiling subsystem; \
             simulation logic must use virtual time"
                .to_string(),
        );
    }
}

fn scan_rng(path: &str, toks: &[Tok], i: usize, out: &mut Vec<Finding>) {
    if toks[i].is_ident("thread_rng") {
        push(
            out,
            path,
            &toks[i],
            Rule::AdHocRng,
            "ad-hoc RNG: `thread_rng` is seeded from the OS; all randomness must \
             derive from the run seed"
                .to_string(),
        );
    }
    if toks[i].is_ident("rand")
        && toks.get(i + 1).map(|t| t.is_punct(':')) == Some(true)
        && toks.get(i + 2).map(|t| t.is_punct(':')) == Some(true)
        && toks.get(i + 3).map(|t| t.is_ident("random")) == Some(true)
    {
        push(
            out,
            path,
            &toks[i],
            Rule::AdHocRng,
            "ad-hoc RNG: `rand::random` is seeded from the OS; all randomness must \
             derive from the run seed"
                .to_string(),
        );
    }
}

fn scan_hot_alloc(
    path: &str,
    toks: &[Tok],
    i: usize,
    spans: &[(String, usize, usize)],
    out: &mut Vec<Finding>,
) {
    let fn_name = spans
        .iter()
        .find(|&&(_, s, e)| i >= s && i < e)
        .map(|(n, _, _)| n.as_str())
        .unwrap_or("?");
    let hot = |what: &str| {
        format!(
            "allocation in pinned hot path `{fn_name}`: {what} (this function is held \
             at 0 allocs/event by trace_zero_cost.rs)"
        )
    };
    if toks[i].is_punct('.')
        && toks.get(i + 1).map(|t| t.is_ident("clone")) == Some(true)
        && toks.get(i + 2).map(|t| t.is_punct('(')) == Some(true)
    {
        push(out, path, &toks[i + 1], Rule::HotAlloc, hot("`.clone()`"));
    }
    if toks[i].is_punct('.') && toks.get(i + 1).map(|t| t.is_ident("to_vec")) == Some(true) {
        push(out, path, &toks[i + 1], Rule::HotAlloc, hot("`.to_vec()`"));
    }
    let path_call = |head: &str, tail: &str| {
        toks[i].is_ident(head)
            && toks.get(i + 1).map(|t| t.is_punct(':')) == Some(true)
            && toks.get(i + 2).map(|t| t.is_punct(':')) == Some(true)
            && toks.get(i + 3).map(|t| t.is_ident(tail)) == Some(true)
    };
    if path_call("Vec", "new") {
        push(out, path, &toks[i], Rule::HotAlloc, hot("`Vec::new`"));
    }
    if path_call("Box", "new") {
        push(out, path, &toks[i], Rule::HotAlloc, hot("`Box::new`"));
    }
    if toks[i].is_ident("format") && toks.get(i + 1).map(|t| t.is_punct('!')) == Some(true) {
        push(out, path, &toks[i], Rule::HotAlloc, hot("`format!`"));
    }
}
