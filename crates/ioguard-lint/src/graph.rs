//! The interprocedural concurrency pass.
//!
//! One place in the workspace shares memory across threads: the
//! work-stealing engine (`ioguard-core::engine`: mutex-guarded per-worker
//! deques and an atomic steal counter). It runs the Fig. 7 trials, the
//! chaos and reconfig sweeps, `Fleet::choose`'s shard probes and
//! `ServeCluster::ingest`'s frame decode. Per-line token scans cannot
//! reason about that kind of code: a lock-order inversion involves two
//! functions, and which guards are live at a call is a property of a span
//! of code, not a single line.
//!
//! This module builds a lightweight item model on top of the stripped-line
//! scanner ([`crate::scan`]) — no `syn`, the workspace builds offline:
//!
//! * **function spans** found by `fn name` headers and brace depth; bodies
//!   under `#[cfg(test)]` are skipped entirely;
//! * a **call graph** by callee-name matching (`foo(...)`, `x.foo(...)`,
//!   `T::foo(...)` all resolve to every workspace `fn foo`); an
//!   over-approximation, kept honest by the allow escape hatch;
//! * per-function **summaries**: lock acquisitions (`.lock()` with the
//!   receiver's field name), the guard's live range (a `let`-bound guard
//!   lives until its block closes or an explicit `drop(guard)`; an unbound
//!   temporary dies with its statement), `Ordering::*` atomic accesses,
//!   and blocking operations.
//!
//! Three rules run over the model (see [`check_concurrency`]):
//!
//! * [`rule::LOCK_ORDER`] — the workspace lock-acquisition graph, closed
//!   over calls, must be acyclic (a cycle means two threads can take the
//!   same mutexes in opposite orders and deadlock);
//! * [`rule::RELAXED_ORDERING`] — on atomic fields that are both read and
//!   written (the cross-thread ones), `Ordering::Relaxed` and unpaired
//!   `Acquire`/`Release` need a justified allow;
//! * [`rule::BLOCKING_IN_HOT_PATH`] — lock/park/sleep/join reachable from
//!   a `// lint: hot-path` function.
//!
//! Known under-approximations, documented so nobody mistakes this for a
//! type-system guarantee: guards *returned* from a function (e.g.
//! `Channel::lock`) are not tracked into the caller; atomics only count
//! when the accessor and its `Ordering::` sit on one line (rustfmt keeps
//! the workspace that way); call resolution is by simple name.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use crate::rules::{contains_token, is_ident_char, rule, Violation};
use crate::scan::SourceFile;

/// How an atomic access touches its field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicKind {
    /// `.load(..)`.
    Load,
    /// `.store(..)`.
    Store,
    /// `fetch_*` / `swap` / `compare_exchange*` — reads *and* writes.
    Rmw,
}

/// A reportable source position plus the rules allowed there, resolved at
/// extraction time so the checks never need the [`SourceFile`] back.
#[derive(Debug, Clone)]
pub struct Site {
    /// 1-based line number.
    pub line: usize,
    /// Rule names allowed at this line (per-line or file-wide directives).
    pub allows: Vec<String>,
}

impl Site {
    fn allows(&self, rule_name: &str) -> bool {
        self.allows.iter().any(|r| r == rule_name)
    }
}

/// One `.lock()` acquisition.
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// Field name of the mutex (last path segment of the receiver).
    pub lock: String,
    /// Where.
    pub site: Site,
}

/// One atomic access with an explicit ordering.
#[derive(Debug, Clone)]
pub struct AtomicAccess {
    /// Field name of the atomic.
    pub field: String,
    /// Read / write / read-modify-write.
    pub kind: AtomicKind,
    /// The `Ordering::` variant name (`Relaxed`, `Acquire`, ...).
    pub ordering: String,
    /// Where.
    pub site: Site,
}

/// One call site, with the locks whose guards were live when it ran.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee simple name.
    pub callee: String,
    /// Where.
    pub site: Site,
    /// Lock names held (live `let`-bound guards) at the call.
    pub held: Vec<String>,
}

/// One blocking operation (also feeds the hot-path rule).
#[derive(Debug, Clone)]
pub struct BlockingOp {
    /// The matched token, e.g. `.lock()` or `thread::sleep`.
    pub token: &'static str,
    /// Where.
    pub site: Site,
}

/// Summary of one function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Simple name from the `fn` header.
    pub name: String,
    /// File it lives in.
    pub path: PathBuf,
    /// 1-based line of the body-opening `{`.
    pub line: usize,
    /// Marked as a per-cycle hot path (`// lint: hot-path`).
    pub hot: bool,
    /// Direct lock acquisitions.
    pub locks: Vec<LockAcq>,
    /// (held, acquired) pairs observed directly in this body.
    pub lock_pairs: Vec<(String, String, Site)>,
    /// Call sites.
    pub calls: Vec<CallSite>,
    /// Atomic accesses with explicit orderings.
    pub atomics: Vec<AtomicAccess>,
    /// Blocking operations.
    pub blocking: Vec<BlockingOp>,
}

/// The workspace model: every function summary plus a name index.
#[derive(Debug, Default)]
pub struct CodeGraph {
    /// All extracted functions, in (file, line) order.
    pub fns: Vec<FnInfo>,
    by_name: BTreeMap<String, Vec<usize>>,
}

/// Blocking tokens for [`rule::BLOCKING_IN_HOT_PATH`]. `.join()` must be
/// argless so `Path::join(..)` / `str::join(..)` never match.
const BLOCKING_TOKENS: &[&str] = &[
    ".lock()",
    "thread::sleep",
    "thread::park",
    "::park(",
    ".join()",
    ".recv()",
];

/// Atomic accessor tokens and their access kinds.
const ATOMIC_TOKENS: &[(&str, AtomicKind)] = &[
    (".load(", AtomicKind::Load),
    (".store(", AtomicKind::Store),
    (".swap(", AtomicKind::Rmw),
    (".fetch_add(", AtomicKind::Rmw),
    (".fetch_sub(", AtomicKind::Rmw),
    (".fetch_and(", AtomicKind::Rmw),
    (".fetch_or(", AtomicKind::Rmw),
    (".fetch_xor(", AtomicKind::Rmw),
    (".fetch_max(", AtomicKind::Rmw),
    (".fetch_min(", AtomicKind::Rmw),
    (".compare_exchange(", AtomicKind::Rmw),
    (".compare_exchange_weak(", AtomicKind::Rmw),
];

/// Words that look like calls but are not.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "let", "mut", "ref", "move",
    "else", "fn", "impl", "pub", "use", "mod", "struct", "enum", "trait", "type", "const",
    "static", "where", "unsafe", "dyn", "box", "self", "super", "crate",
];

/// A `let`-bound guard live inside an open function.
#[derive(Debug)]
struct Guard {
    lock: String,
    /// Brace depth at the end of the declaring line; released when the
    /// walker's depth drops below it.
    decl_depth: usize,
    binding: Option<String>,
}

/// An open function on the walker's stack.
#[derive(Debug)]
struct OpenFn {
    idx: usize,
    /// Depth *before* the body `{` — the fn closes when depth returns here.
    body_depth: usize,
    guards: Vec<Guard>,
}

impl CodeGraph {
    /// Extracts function summaries from preprocessed files and indexes them
    /// by simple name.
    pub fn build(files: &[SourceFile]) -> Self {
        let mut graph = CodeGraph::default();
        for file in files {
            extract_file(file, &mut graph.fns);
        }
        for (idx, f) in graph.fns.iter().enumerate() {
            graph.by_name.entry(f.name.clone()).or_default().push(idx);
        }
        graph
    }

    /// All function indices a callee name resolves to.
    fn resolve(&self, callee: &str) -> &[usize] {
        self.by_name.get(callee).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Walks one file, appending extracted functions to `fns`.
fn extract_file(file: &SourceFile, fns: &mut Vec<FnInfo>) {
    let mut depth: usize = 0;
    let mut stack: Vec<OpenFn> = Vec::new();
    let mut pending_fn: Option<String> = None;

    for line in &file.lines {
        let code = line.code.as_str();
        let fn_at_start = stack.last().map(|o| o.idx);
        let mut opened_this_line: Option<usize> = None;

        // Pass 1: braces, fn headers, guard-scope closure. Runs on every
        // line (test regions included) to keep the depth tracker honest.
        let chars: Vec<char> = code.chars().collect();
        let mut i = 0;
        let mut expect_name = false;
        while i < chars.len() {
            let c = chars[i];
            if is_ident_char(c) {
                let start = i;
                while i < chars.len() && is_ident_char(chars[i]) {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                if word == "fn" {
                    expect_name = true;
                } else if expect_name {
                    expect_name = false;
                    if !line.in_test {
                        pending_fn = Some(word);
                    }
                }
                continue;
            }
            match c {
                '{' => {
                    if let Some(name) = pending_fn.take() {
                        let idx = fns.len();
                        fns.push(FnInfo {
                            name,
                            path: file.path.clone(),
                            line: line.number,
                            hot: line.in_hot_path,
                            locks: Vec::new(),
                            lock_pairs: Vec::new(),
                            calls: Vec::new(),
                            atomics: Vec::new(),
                            blocking: Vec::new(),
                        });
                        stack.push(OpenFn {
                            idx,
                            body_depth: depth,
                            guards: Vec::new(),
                        });
                        opened_this_line = Some(idx);
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    while stack.last().is_some_and(|o| o.body_depth >= depth) {
                        stack.pop();
                    }
                    if let Some(open) = stack.last_mut() {
                        open.guards.retain(|g| g.decl_depth <= depth);
                    }
                }
                // A trait method signature (`fn f(..);`) has no body.
                ';' => {
                    pending_fn = None;
                    expect_name = false;
                }
                _ => {}
            }
            i += 1;
        }

        if line.in_test {
            continue;
        }
        // Pass 2: events, attributed to the innermost function live on this
        // line — the one opened here if any, else the one open at its start.
        let target = opened_this_line.or(fn_at_start);
        let Some(idx) = target else { continue };
        let site = Site {
            line: line.number,
            allows: line
                .allows
                .iter()
                .chain(file.file_allows.iter())
                .map(|a| a.rule.clone())
                .collect(),
        };
        let held: Vec<String> = stack
            .iter()
            .rev()
            .find(|o| o.idx == idx)
            .map(|o| o.guards.iter().map(|g| g.lock.clone()).collect())
            .unwrap_or_default();
        let info = &mut fns[idx];

        // Lock acquisitions + held-pair edges.
        let lock_names = accessor_fields(code, ".lock()");
        for (lock, _) in &lock_names {
            info.locks.push(LockAcq {
                lock: lock.clone(),
                site: site.clone(),
            });
            for h in &held {
                info.lock_pairs
                    .push((h.clone(), lock.clone(), site.clone()));
            }
        }

        // Calls.
        for callee in call_names(code) {
            info.calls.push(CallSite {
                callee,
                site: site.clone(),
                held: held.clone(),
            });
        }

        // Atomic accesses: accessor and `Ordering::` must share the line.
        if code.contains("Ordering::") {
            for (token, kind) in ATOMIC_TOKENS {
                for (field, at) in accessor_fields(code, token) {
                    for ordering in orderings_after(code, at, token.len()) {
                        info.atomics.push(AtomicAccess {
                            field: field.clone(),
                            kind: *kind,
                            ordering,
                            site: site.clone(),
                        });
                    }
                }
            }
        }

        // Blocking operations.
        for token in BLOCKING_TOKENS {
            if contains_token(code, token) {
                info.blocking.push(BlockingOp {
                    token,
                    site: site.clone(),
                });
            }
        }

        // Register this line's guards *after* events: the held set above is
        // the state before the statement executes.
        if !lock_names.is_empty() {
            if let Some(binding) = let_binding(code) {
                if let Some(open) = stack.iter_mut().rev().find(|o| o.idx == idx) {
                    let single = lock_names.len() == 1;
                    for (lock, _) in &lock_names {
                        open.guards.push(Guard {
                            lock: lock.clone(),
                            decl_depth: depth,
                            binding: single.then(|| binding.clone()),
                        });
                    }
                }
            }
        }
        // Explicit `drop(guard)` releases by binding name.
        for dropped in drop_args(code) {
            if let Some(open) = stack.iter_mut().rev().find(|o| o.idx == idx) {
                open.guards
                    .retain(|g| g.binding.as_deref() != Some(dropped.as_str()));
            }
        }
    }
}

/// Every occurrence of `token` in `code`, with the receiver's field name
/// (last path segment) and the byte offset of the match.
fn accessor_fields(code: &str, token: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let name = receiver_field(code, at);
        if !name.is_empty() {
            out.push((name, at));
        }
        start = at + token.len();
    }
    out
}

/// The field name of the receiver ending at byte offset `at`: the leading
/// identifier of the last depth-0 `.`-segment, with index/call groups
/// skipped — `channels[*chan as usize]` → `channels`, `self.queue` →
/// `queue`.
fn receiver_field(code: &str, at: usize) -> String {
    let mut rev: Vec<char> = Vec::new();
    let mut depth = 0usize;
    for c in code[..at].chars().rev() {
        if depth > 0 {
            if c == '[' || c == '(' {
                depth -= 1;
            } else if c == ']' || c == ')' {
                depth += 1;
            }
            rev.push(c);
        } else if is_ident_char(c) || c == '.' || c == ':' {
            rev.push(c);
        } else if c == ']' || c == ')' {
            depth += 1;
            rev.push(c);
        } else {
            break;
        }
    }
    let receiver: String = rev.into_iter().rev().collect();
    // Last depth-0 segment, then its leading identifier.
    let mut seg_start = 0usize;
    let mut d = 0usize;
    for (i, c) in receiver.char_indices() {
        match c {
            '[' | '(' => d += 1,
            ']' | ')' => d = d.saturating_sub(1),
            '.' if d == 0 => seg_start = i + c.len_utf8(),
            _ => {}
        }
    }
    receiver[seg_start..]
        .chars()
        .take_while(|&c| is_ident_char(c))
        .collect()
}

/// Callee names on a line: lowercase-initial identifiers directly followed
/// by `(`, excluding keywords, macros (`name!(`) and the name in a `fn`
/// header. Uppercase-initial names are type/variant constructors.
fn call_names(code: &str) -> Vec<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut prev_word = String::new();
    let mut i = 0;
    while i < chars.len() {
        if is_ident_char(chars[i]) {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            let next = chars.get(i).copied();
            if next == Some('(')
                && prev_word != "fn"
                && !CALL_KEYWORDS.contains(&word.as_str())
                && word.chars().next().is_some_and(|c| c.is_lowercase())
                && !word.chars().next().is_some_and(|c| c.is_ascii_digit())
            {
                out.push(word.clone());
            }
            prev_word = word;
            continue;
        }
        if !chars[i].is_whitespace() && chars[i] != '(' {
            prev_word.clear();
        }
        i += 1;
    }
    out
}

/// `Ordering::X` variant names between the accessor at `at` and the next
/// accessor occurrence (or end of line).
fn orderings_after(code: &str, at: usize, token_len: usize) -> Vec<String> {
    let from = at + token_len;
    let tail = &code[from..];
    // Stop at the next atomic accessor, so a line with two accesses does
    // not attribute the second access's ordering to the first.
    let stop = ATOMIC_TOKENS
        .iter()
        .filter_map(|(t, _)| tail.find(t))
        .min()
        .unwrap_or(tail.len());
    let slice = &tail[..stop];
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = slice[start..].find("Ordering::") {
        let begin = start + pos + "Ordering::".len();
        let name: String = slice[begin..]
            .chars()
            .take_while(|&c| is_ident_char(c))
            .collect();
        if !name.is_empty() {
            out.push(name);
        }
        start = begin;
    }
    out
}

/// The binding name of a `let` statement (`let mut x = ...` → `x`); `None`
/// for `if let` / `while let` and non-let lines.
fn let_binding(code: &str) -> Option<String> {
    let t = code.trim_start();
    let rest = t.strip_prefix("let ")?.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    (!name.is_empty()).then_some(name)
}

/// Identifier arguments of `drop(...)` calls on the line.
fn drop_args(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = code[start..].find("drop(") {
        let at = start + pos;
        let boundary_ok = at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap_or(' '));
        if boundary_ok {
            let arg: String = code[at + "drop(".len()..]
                .chars()
                .take_while(|&c| is_ident_char(c))
                .collect();
            if !arg.is_empty() {
                out.push(arg);
            }
        }
        start = at + "drop(".len();
    }
    out
}

/// Runs the three concurrency rules over the model built from `files`.
pub fn check_concurrency(files: &[SourceFile]) -> Vec<Violation> {
    let graph = CodeGraph::build(files);
    let mut out = Vec::new();
    check_lock_order(&graph, &mut out);
    check_relaxed_ordering(&graph, &mut out);
    check_blocking_in_hot_path(&graph, &mut out);
    out
}

/// Transitive lock-acquisition sets per function (names, closed over the
/// call graph by fixpoint iteration).
fn transitive_acquisitions(graph: &CodeGraph) -> Vec<BTreeSet<String>> {
    let mut acq: Vec<BTreeSet<String>> = graph
        .fns
        .iter()
        .map(|f| f.locks.iter().map(|l| l.lock.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..graph.fns.len() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for call in &graph.fns[i].calls {
                for &j in graph.resolve(&call.callee) {
                    for lock in &acq[j] {
                        if !acq[i].contains(lock) {
                            add.insert(lock.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                acq[i].extend(add);
                changed = true;
            }
        }
        if !changed {
            return acq;
        }
    }
}

/// `lock-order`: build the held→acquired edge set (direct pairs plus call
/// sites closed over transitive acquisitions) and report every cycle.
fn check_lock_order(graph: &CodeGraph, out: &mut Vec<Violation>) {
    let acq = transitive_acquisitions(graph);
    // (from, to) → first site, in deterministic order.
    let mut edges: BTreeMap<(String, String), (PathBuf, Site)> = BTreeMap::new();
    let mut add_edge = |from: &str, to: &str, path: &PathBuf, site: &Site| {
        edges
            .entry((from.to_string(), to.to_string()))
            .or_insert_with(|| (path.clone(), site.clone()));
    };
    for f in &graph.fns {
        for (held, acquired, site) in &f.lock_pairs {
            add_edge(held, acquired, &f.path, site);
        }
        for call in &f.calls {
            if call.held.is_empty() {
                continue;
            }
            for &j in graph.resolve(&call.callee) {
                for acquired in &acq[j] {
                    for held in &call.held {
                        add_edge(held, acquired, &f.path, &call.site);
                    }
                }
            }
        }
    }
    // Cycle detection: iterative coloring DFS over the (sorted) node set.
    let mut succ: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        succ.entry(from).or_default().push(to);
        succ.entry(to).or_default();
    }
    let mut color: BTreeMap<&str, u8> = succ.keys().map(|&n| (n, 0u8)).collect();
    let nodes: Vec<&str> = succ.keys().copied().collect();
    for &root in &nodes {
        if color[root] != 0 {
            continue;
        }
        // Stack of (node, next successor index); path mirrors the stack.
        let mut stack: Vec<(&str, usize)> = vec![(root, 0)];
        color.insert(root, 1);
        while let Some(top) = stack.last_mut() {
            let node = top.0;
            let next = top.1;
            top.1 = next + 1;
            let succs = &succ[node];
            if next >= succs.len() {
                color.insert(node, 2);
                stack.pop();
                continue;
            }
            let child = succs[next];
            match color[child] {
                0 => {
                    color.insert(child, 1);
                    stack.push((child, 0));
                }
                1 => {
                    // Back edge node→child: the cycle is child ... node.
                    let from = stack
                        .iter()
                        .position(|&(n, _)| n == child)
                        .unwrap_or(stack.len() - 1);
                    let mut cycle: Vec<&str> = stack[from..].iter().map(|&(n, _)| n).collect();
                    cycle.push(child);
                    let (path, site) = &edges[&(node.to_string(), child.to_string())];
                    if !site.allows(rule::LOCK_ORDER) {
                        out.push(Violation {
                            rule: rule::LOCK_ORDER,
                            path: path.clone(),
                            line: site.line,
                            message: format!(
                                "lock-acquisition cycle {} — two threads taking these \
                                 mutexes in opposite orders can deadlock; impose a \
                                 global order, or justify with lint: allow(lock-order)",
                                cycle.join(" -> ")
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
    }
}

/// `relaxed-ordering`: on fields with both reads and writes (the shared
/// ones), flag `Relaxed` anywhere, `Acquire` loads with no Release-class
/// store, and `Release` stores with no Acquire-class load.
fn check_relaxed_ordering(graph: &CodeGraph, out: &mut Vec<Violation>) {
    let mut by_field: BTreeMap<&str, Vec<(&FnInfo, &AtomicAccess)>> = BTreeMap::new();
    for f in &graph.fns {
        for a in &f.atomics {
            by_field.entry(a.field.as_str()).or_default().push((f, a));
        }
    }
    for (field, accesses) in by_field {
        let reads = accesses
            .iter()
            .any(|(_, a)| matches!(a.kind, AtomicKind::Load | AtomicKind::Rmw));
        let writes = accesses
            .iter()
            .any(|(_, a)| matches!(a.kind, AtomicKind::Store | AtomicKind::Rmw));
        if !(reads && writes) {
            continue; // init-only or observe-only: not cross-thread state.
        }
        let has_release_write = accesses.iter().any(|(_, a)| {
            matches!(a.kind, AtomicKind::Store | AtomicKind::Rmw)
                && matches!(a.ordering.as_str(), "Release" | "AcqRel" | "SeqCst")
        });
        let has_acquire_read = accesses.iter().any(|(_, a)| {
            matches!(a.kind, AtomicKind::Load | AtomicKind::Rmw)
                && matches!(a.ordering.as_str(), "Acquire" | "AcqRel" | "SeqCst")
        });
        for (f, a) in &accesses {
            if a.site.allows(rule::RELAXED_ORDERING) {
                continue;
            }
            let problem = if a.ordering == "Relaxed" {
                Some(format!(
                    "Ordering::Relaxed on shared atomic `{field}` — cross-thread \
                     reads may observe stale values"
                ))
            } else if a.kind == AtomicKind::Load && a.ordering == "Acquire" && !has_release_write {
                Some(format!(
                    "Acquire load of `{field}` with no Release-class store — the \
                     acquire pairs with nothing and orders nothing"
                ))
            } else if a.kind == AtomicKind::Store && a.ordering == "Release" && !has_acquire_read {
                Some(format!(
                    "Release store of `{field}` with no Acquire-class load — the \
                     release pairs with nothing and orders nothing"
                ))
            } else {
                None
            };
            if let Some(msg) = problem {
                out.push(Violation {
                    rule: rule::RELAXED_ORDERING,
                    path: f.path.clone(),
                    line: a.site.line,
                    message: format!(
                        "{msg}; strengthen the ordering, or justify with \
                         lint: allow(relaxed-ordering)"
                    ),
                });
            }
        }
    }
}

/// `blocking-in-hot-path`: BFS the call graph from every hot-path function
/// and flag blocking operations in anything reached.
fn check_blocking_in_hot_path(graph: &CodeGraph, out: &mut Vec<Violation>) {
    let mut seen: BTreeSet<(PathBuf, usize)> = BTreeSet::new();
    let hot: Vec<usize> = (0..graph.fns.len()).filter(|&i| graph.fns[i].hot).collect();
    for &h in &hot {
        let mut reach: BTreeSet<usize> = BTreeSet::new();
        let mut queue: Vec<usize> = vec![h];
        while let Some(i) = queue.pop() {
            if !reach.insert(i) {
                continue;
            }
            for call in &graph.fns[i].calls {
                for &j in graph.resolve(&call.callee) {
                    if !reach.contains(&j) {
                        queue.push(j);
                    }
                }
            }
        }
        for &i in &reach {
            let f = &graph.fns[i];
            for b in &f.blocking {
                if b.site.allows(rule::BLOCKING_IN_HOT_PATH) {
                    continue;
                }
                if !seen.insert((f.path.clone(), b.site.line)) {
                    continue;
                }
                let via = if i == h {
                    String::new()
                } else {
                    format!(" (in `{}`)", f.name)
                };
                out.push(Violation {
                    rule: rule::BLOCKING_IN_HOT_PATH,
                    path: f.path.clone(),
                    line: b.site.line,
                    message: format!(
                        "`{}` reachable from hot-path fn `{}`{via} — blocking \
                         inside the per-cycle loop stalls the whole thread; hoist \
                         it out, or justify with lint: allow(blocking-in-hot-path)",
                        b.token.trim_matches(|c| c == '.' || c == '('),
                        graph.fns[h].name
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn conc(text: &str) -> Vec<Violation> {
        let file = SourceFile::parse(Path::new("mem.rs"), text);
        check_concurrency(&[file])
    }

    fn rules_hit(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn extracts_fn_spans_and_locks() {
        let file = SourceFile::parse(
            Path::new("mem.rs"),
            "fn a(&self) {\n    let g = self.alpha.lock();\n    touch(g);\n}\n\
             fn b(&self) {\n    self.beta.lock();\n}\n",
        );
        let graph = CodeGraph::build(&[file]);
        assert_eq!(graph.fns.len(), 2);
        assert_eq!(graph.fns[0].name, "a");
        assert_eq!(graph.fns[0].locks[0].lock, "alpha");
        assert_eq!(graph.fns[1].locks[0].lock, "beta");
        // `touch(g)` is a call; `.lock()` registers a call to `lock` too.
        assert!(graph.fns[0].calls.iter().any(|c| c.callee == "touch"));
    }

    #[test]
    fn receiver_field_handles_indexing() {
        assert_eq!(receiver_field("channels[*chan as usize]", 24), "channels");
        assert_eq!(receiver_field("self.queue", 10), "queue");
        assert_eq!(receiver_field("deques[victim]", 14), "deques");
    }

    #[test]
    fn lock_order_cycle_reported() {
        let v = conc(
            "fn fwd(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n\
             fn rev(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n",
        );
        assert!(rules_hit(&v).contains(&rule::LOCK_ORDER), "{v:?}");
    }

    #[test]
    fn lock_order_cycle_through_call() {
        let v = conc(
            "fn outer(&self) {\n    let a = self.alpha.lock();\n    self.inner();\n}\n\
             fn inner(&self) {\n    let b = self.beta.lock();\n}\n\
             fn other(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n",
        );
        assert!(rules_hit(&v).contains(&rule::LOCK_ORDER), "{v:?}");
    }

    #[test]
    fn consistent_lock_order_clean() {
        let v = conc(
            "fn one(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n\
             fn two(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n",
        );
        assert!(!rules_hit(&v).contains(&rule::LOCK_ORDER), "{v:?}");
    }

    #[test]
    fn guard_scope_ends_with_block() {
        // The alpha guard dies with its block, so beta is not nested.
        let v = conc(
            "fn fwd(&self) {\n    {\n        let a = self.alpha.lock();\n    }\n    let b = self.beta.lock();\n}\n\
             fn rev(&self) {\n    {\n        let b = self.beta.lock();\n    }\n    let a = self.alpha.lock();\n}\n",
        );
        assert!(!rules_hit(&v).contains(&rule::LOCK_ORDER), "{v:?}");
    }

    #[test]
    fn explicit_drop_releases_guard() {
        let v = conc(
            "fn fwd(&self) {\n    let a = self.alpha.lock();\n    drop(a);\n    let b = self.beta.lock();\n}\n\
             fn rev(&self) {\n    let b = self.beta.lock();\n    drop(b);\n    let a = self.alpha.lock();\n}\n",
        );
        assert!(!rules_hit(&v).contains(&rule::LOCK_ORDER), "{v:?}");
    }

    #[test]
    fn relaxed_on_shared_field_flagged() {
        let v = conc(
            "fn w(&self) {\n    self.seq.store(1, Ordering::Relaxed);\n}\n\
             fn r(&self) -> u64 {\n    self.seq.load(Ordering::Acquire)\n}\n",
        );
        let hits = rules_hit(&v);
        assert!(hits.contains(&rule::RELAXED_ORDERING), "{v:?}");
    }

    #[test]
    fn acquire_release_pairing_clean() {
        let v = conc(
            "fn w(&self) {\n    self.seq.store(1, Ordering::Release);\n}\n\
             fn r(&self) -> u64 {\n    self.seq.load(Ordering::Acquire)\n}\n",
        );
        assert!(!rules_hit(&v).contains(&rule::RELAXED_ORDERING), "{v:?}");
    }

    #[test]
    fn unpaired_acquire_flagged() {
        let v = conc(
            "fn w(&self) {\n    self.seq.store(1, Ordering::Relaxed);\n}\n\
             fn r(&self) -> u64 {\n    self.seq.load(Ordering::Acquire)\n}\n",
        );
        let msgs: Vec<&str> = v.iter().map(|x| x.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("no Release-class store")),
            "{msgs:?}"
        );
    }

    #[test]
    fn observe_only_counter_ignored() {
        // Loads with no writes (or vice versa) are init-time or test-side.
        let v = conc("fn r(&self) -> u64 {\n    self.seq.load(Ordering::Relaxed)\n}\n");
        assert!(!rules_hit(&v).contains(&rule::RELAXED_ORDERING), "{v:?}");
    }

    #[test]
    fn relaxed_allow_respected() {
        let v = conc(
            "fn w(&self) {\n    self.hits.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed-ordering) — monotonic stats counter, no ordering needed\n}\n\
             fn r(&self) -> u64 {\n    self.hits.load(Ordering::Relaxed) // lint: allow(relaxed-ordering) — monotonic stats counter, no ordering needed\n}\n",
        );
        assert!(!rules_hit(&v).contains(&rule::RELAXED_ORDERING), "{v:?}");
    }

    #[test]
    fn blocking_in_hot_path_direct_and_nested() {
        let v = conc(
            "// lint: hot-path — per-cycle stepper\nfn step_cycle(&self) {\n    self.drain();\n}\n\
             fn drain(&self) {\n    let g = self.queue.lock();\n}\n",
        );
        let hits = rules_hit(&v);
        assert!(hits.contains(&rule::BLOCKING_IN_HOT_PATH), "{v:?}");
    }

    #[test]
    fn blocking_outside_hot_path_clean() {
        let v = conc("fn cold(&self) {\n    let g = self.queue.lock();\n}\n");
        assert!(
            !rules_hit(&v).contains(&rule::BLOCKING_IN_HOT_PATH),
            "{v:?}"
        );
    }

    #[test]
    fn blocking_allow_respected() {
        let v = conc(
            "// lint: hot-path — per-cycle stepper\nfn step_cycle(&self) {\n    let g = self.queue.lock(); // lint: allow(blocking-in-hot-path) — uncontended SPSC mutex, one bounded acquisition per cycle\n}\n",
        );
        assert!(
            !rules_hit(&v).contains(&rule::BLOCKING_IN_HOT_PATH),
            "{v:?}"
        );
    }

    #[test]
    fn test_functions_excluded_from_model() {
        let file = SourceFile::parse(
            Path::new("mem.rs"),
            "#[cfg(test)]\nmod tests {\n    fn helper(&self) {\n        let a = self.alpha.lock();\n        let b = self.beta.lock();\n    }\n}\n",
        );
        let graph = CodeGraph::build(&[file]);
        assert!(graph.fns.is_empty());
    }

    #[test]
    fn join_with_args_not_blocking() {
        let v = conc(
            "// lint: hot-path — per-cycle stepper\nfn step_cycle(&self) {\n    let p = base.join(name);\n    let s = parts.join(sep);\n}\n",
        );
        assert!(
            !rules_hit(&v).contains(&rule::BLOCKING_IN_HOT_PATH),
            "{v:?}"
        );
    }
}
