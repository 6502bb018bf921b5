//! The source-level lint rules and their engine.
//!
//! Every rule is a deterministic token/line-level check over the stripped
//! code produced by [`crate::scan`]. Rules are scoped per crate (see
//! [`RuleSet::for_crate`]): the hot deterministic-simulation crates get the
//! full set, support crates only the cross-cutting checks. When a file is
//! linted explicitly (fixture mode) every rule applies.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::scan::{LineInfo, SourceFile};

/// Rule identifiers (kebab-case, used in allow directives and reports).
pub mod rule {
    /// `.unwrap()` / `.expect(` / `panic!` / `unreachable!` / `todo!` /
    /// `unimplemented!` in non-test library code.
    pub const PANIC_SITE: &str = "panic-site";
    /// Direct slice/array indexing `expr[...]` in non-test library code.
    pub const INDEXING: &str = "indexing";
    /// Bare `+` / `*` (or `+=` / `*=`) on time/slot arithmetic that should
    /// use `checked_*` / `saturating_*`.
    pub const UNCHECKED_ARITH: &str = "unchecked-arith";
    /// `as` cast to a type narrower than 64 bits.
    pub const CAST_NARROWING: &str = "cast-narrowing";
    /// `HashMap`/`HashSet`/`std::time` in deterministic-simulation code.
    pub const NONDETERMINISM: &str = "nondeterminism";
    /// Keyed-container lookup inside a loop in a function marked as a
    /// per-cycle hot path (`// lint: hot-path`): the
    /// dense-storage invariant of the event-driven simulation core.
    pub const HOT_PATH_LOOKUP: &str = "hot-path-lookup";
    /// Crate root missing `#![forbid(unsafe_code)]`.
    pub const FORBID_UNSAFE: &str = "forbid-unsafe";
    /// An allow directive without the mandatory justification text.
    pub const MISSING_JUSTIFICATION: &str = "missing-justification";
    /// A cycle in the workspace lock-acquisition graph (closed over calls):
    /// two threads taking the same mutexes in opposite orders can deadlock.
    pub const LOCK_ORDER: &str = "lock-order";
    /// `Ordering::Relaxed` (or an unpaired `Acquire`/`Release`) on an atomic
    /// field that other threads also write.
    pub const RELAXED_ORDERING: &str = "relaxed-ordering";
    /// A lock/park/sleep/join reachable from a `// lint: hot-path` function.
    pub const BLOCKING_IN_HOT_PATH: &str = "blocking-in-hot-path";
    /// A plain assignment to a live configuration field (σ\* layout,
    /// scheduling policy, servers, watchdog/admission/degradation policies)
    /// outside a consuming `(mut self)` builder: configuration changes on a
    /// running system must go through the staged, verified, hyperperiod-
    /// aligned reconfiguration protocol (`ioguard-reconfig`), never an
    /// in-place patch.
    pub const LIVE_CONFIG_MUTATION: &str = "live-config-mutation";
    /// A grow accessor on a spillover/retry/backlog queue with no adjacent
    /// capacity guard: rejected-admission buffers must stay bounded, or the
    /// fleet trades a hard admission verdict for an unbounded memory debt.
    pub const UNBOUNDED_SPILLOVER: &str = "unbounded-spillover";
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (one of [`rule`]'s constants).
    pub rule: &'static str,
    /// File the violation was found in.
    pub path: PathBuf,
    /// 1-based line, zero for whole-file findings.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(
                f,
                "{}: [{}] {}",
                self.path.display(),
                self.rule,
                self.message
            )
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.path.display(),
                self.line,
                self.rule,
                self.message
            )
        }
    }
}

/// Which rules run on a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    /// Deny panic sites.
    pub panic_site: bool,
    /// Deny direct indexing.
    pub indexing: bool,
    /// Deny unchecked time/slot arithmetic.
    pub unchecked_arith: bool,
    /// Deny narrowing casts.
    pub cast_narrowing: bool,
    /// Deny nondeterministic containers/clocks.
    pub nondeterminism: bool,
    /// Deny keyed-container lookups in loops of annotated hot paths.
    pub hot_path: bool,
    /// Deny in-place assignments to live configuration fields outside
    /// consuming builders.
    pub live_config: bool,
    /// Deny unguarded growth of spillover/retry/backlog queues.
    pub spillover: bool,
}

/// Crates whose library code must be panic-free (hypervisor hot paths and
/// everything feeding the deterministic simulator).
pub const PANIC_FREE_CRATES: &[&str] = &[
    "ioguard-hypervisor",
    "ioguard-sched",
    "ioguard-noc",
    "ioguard-obs",
    "ioguard-reconfig",
    "ioguard-fleet",
    "ioguard-serve",
];

/// Crates whose `u64` time/slot arithmetic must be checked/saturating.
pub const CHECKED_ARITH_CRATES: &[&str] = &[
    "ioguard-sched",
    "ioguard-hypervisor",
    "ioguard-reconfig",
    "ioguard-fleet",
    "ioguard-serve",
];

/// Crates where configuration is immutable once live: every change goes
/// through the staged reconfiguration protocol, so plain assignments to
/// config fields outside consuming builders are forbidden.
pub const LIVE_CONFIG_CRATES: &[&str] = &["ioguard-hypervisor", "ioguard-reconfig"];

/// Crates on the deterministic-simulation path: no hash-ordered containers,
/// no wall clocks.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "ioguard-noc",
    "ioguard-sched",
    "ioguard-hypervisor",
    "ioguard-sim",
    "ioguard-workload",
    "ioguard-baselines",
    "ioguard-obs",
    "ioguard-reconfig",
    "ioguard-fleet",
    "ioguard-serve",
];

/// Crates holding rejected-admission spillover/retry buffers: every grow
/// site must sit next to an explicit capacity guard (see
/// [`rule::UNBOUNDED_SPILLOVER`]).
pub const BOUNDED_SPILLOVER_CRATES: &[&str] = &["ioguard-fleet", "ioguard-serve"];

impl RuleSet {
    /// Every rule enabled (fixture mode / explicit paths).
    pub fn all() -> Self {
        Self {
            panic_site: true,
            indexing: true,
            unchecked_arith: true,
            cast_narrowing: true,
            nondeterminism: true,
            hot_path: true,
            live_config: true,
            spillover: true,
        }
    }

    /// The rule set for a workspace crate, by package name.
    pub fn for_crate(name: &str) -> Self {
        Self {
            panic_site: PANIC_FREE_CRATES.contains(&name),
            indexing: PANIC_FREE_CRATES.contains(&name),
            unchecked_arith: CHECKED_ARITH_CRATES.contains(&name),
            cast_narrowing: CHECKED_ARITH_CRATES.contains(&name),
            nondeterminism: DETERMINISTIC_CRATES.contains(&name),
            hot_path: DETERMINISTIC_CRATES.contains(&name),
            live_config: LIVE_CONFIG_CRATES.contains(&name),
            spillover: BOUNDED_SPILLOVER_CRATES.contains(&name),
        }
    }

    /// True when no rule is enabled.
    pub fn is_empty(&self) -> bool {
        !(self.panic_site
            || self.indexing
            || self.unchecked_arith
            || self.cast_narrowing
            || self.nondeterminism
            || self.hot_path
            || self.live_config
            || self.spillover)
    }
}

/// Identifier components that mark a line as time/slot arithmetic. An
/// identifier participates when any of its `_`-separated components is in
/// this set (so `horizon_slots`, `free_count` and `enqueued_at` all match).
const TIME_VOCAB: &[&str] = &[
    "slot",
    "slots",
    "deadline",
    "deadlines",
    "period",
    "periods",
    "wcet",
    "release",
    "releases",
    "hyper",
    "budget",
    "horizon",
    "now",
    "supply",
    "demand",
    "free",
    "enqueued",
    "cycles",
    "reserved",
];

/// Panic-site tokens. `.unwrap_or*` / `.expect_err` deliberately do not
/// match (`(` and `)` anchor the exact method).
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Nondeterminism tokens: hash-ordered containers and wall clocks.
const NONDET_TOKENS: &[&str] = &[
    "HashMap",
    "HashSet",
    "RandomState",
    "std::time",
    "Instant::now",
    "SystemTime",
];

/// Identifier components that mark a receiver as a spillover/retry buffer:
/// the holding pen for work the admission control rejected. A component
/// matches after `_`-splitting, so `self.spillover`, `retry_queue` and
/// `arrival_backlog` all qualify.
const SPILLOVER_VOCAB: &[&str] = &[
    "spillover",
    "spill",
    "spills",
    "spilled",
    "retry",
    "retries",
    "backlog",
    "backlogs",
];

/// Accessors that grow a collection. On a spillover buffer each of these
/// must sit next to an explicit capacity guard, or rejected work accretes
/// without bound.
const SPILLOVER_GROW_TOKENS: &[&str] = &[
    ".push(",
    ".push_back(",
    ".push_front(",
    ".insert(",
    ".extend(",
];

/// Identifier components that mark a line as a capacity guard. A growth
/// site is exempt when this vocabulary appears on the growth line itself or
/// on one of the two preceding code lines — the bound must be *locally*
/// evident, not established in some distant invariant.
const CAPACITY_VOCAB: &[&str] = &["cap", "capacity", "bound", "bounded", "limit", "limits"];

/// Keyed-container signatures that have no place inside a per-cycle hot
/// loop: container type names plus the `&`-keyed accessor shapes maps use
/// (slice `get` takes a plain index, so `.get(&` / `.remove(&` single out
/// keyed lookups). O(log n) or hashing per flit is exactly what the dense
/// event-driven core exists to avoid.
const HOT_LOOKUP_TOKENS: &[&str] = &[
    "BTreeMap",
    "BTreeSet",
    "HashMap",
    "HashSet",
    ".contains_key(",
    ".entry(",
    ".get(&",
    ".get_mut(&",
    ".remove(&",
];

/// Configuration fields that are immutable once a system is live. A plain
/// `receiver.<field> = …` assignment outside a consuming `(mut self)`
/// builder (and outside tests) is an in-place config patch — the exact
/// shape the staged reconfiguration protocol replaces. Matched as whole
/// field names, not `_`-components, so runtime state like `watchdog_state`
/// never trips the rule.
const LIVE_CONFIG_FIELDS: &[&str] = &[
    "pchannel",
    "policy",
    "servers",
    "task_sets",
    "predefined",
    "owners",
    "sigma",
    "reclaim",
    "watchdog",
    "degradation",
    "admission_guard",
    "pool_capacity",
    "max_table_len",
];

/// Narrowing cast targets: anything below 64 bits loses range on the `u64`
/// slot/time domain. `as usize`/`as u64`/`as i64`/`as f64` stay legal (the
/// simulator asserts a 64-bit platform at compile time).
const NARROW_CASTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Lints one preprocessed file with the given rule set, appending findings
/// to `out`. Allow directives suppress findings per rule; an allow without a
/// justification is itself a violation.
pub fn lint_file(file: &SourceFile, rules: RuleSet, out: &mut Vec<Violation>) {
    // Unjustified allows are violations wherever they appear.
    for allow in file
        .file_allows
        .iter()
        .chain(file.lines.iter().flat_map(|l| l.allows.iter()))
    {
        if !allow.justified() {
            out.push(Violation {
                rule: rule::MISSING_JUSTIFICATION,
                path: file.path.clone(),
                line: allow.line,
                message: format!(
                    "allow({}) requires a justification of at least {} characters",
                    allow.rule,
                    crate::scan::MIN_JUSTIFICATION
                ),
            });
        }
    }
    if rules.is_empty() {
        return;
    }
    for (index, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if rules.panic_site {
            check_tokens(file, line, rule::PANIC_SITE, PANIC_TOKENS, out);
        }
        if rules.nondeterminism {
            check_tokens(file, line, rule::NONDETERMINISM, NONDET_TOKENS, out);
        }
        if rules.indexing {
            check_indexing(file, line, out);
        }
        if rules.cast_narrowing {
            check_casts(file, line, out);
        }
        if rules.unchecked_arith {
            check_arith(file, line, out);
        }
        if rules.hot_path && line.in_hot_path && line.in_loop {
            check_hot_lookup(file, line, out);
        }
        if rules.live_config && !line.in_builder {
            check_live_config(file, line, out);
        }
        if rules.spillover {
            check_spillover_growth(file, index, line, out);
        }
    }
}

/// In-place assignments to live configuration fields outside consuming
/// builders: `receiver.<config-field> = …` where the `=` is a plain
/// assignment (not `==`, `=>`, or a compound operator). Builders taking
/// `mut self` by value are exempt via [`crate::scan::LineInfo::in_builder`];
/// struct literals (`field: value`) never match the assignment shape.
fn check_live_config(file: &SourceFile, line: &LineInfo, out: &mut Vec<Violation>) {
    let Some(field) = find_live_config_assignment(&line.code) else {
        return;
    };
    if file.allow_for(rule::LIVE_CONFIG_MUTATION, line).is_some() {
        return;
    }
    out.push(Violation {
        rule: rule::LIVE_CONFIG_MUTATION,
        path: file.path.clone(),
        line: line.number,
        message: format!(
            "in-place assignment to live config field `{field}` — stage a new \
             config through the reconfiguration protocol (or a consuming \
             `with_*` builder before activation)"
        ),
    });
}

/// The first live-config field assigned on the line, if any: a
/// `.<field>` access with a real receiver, followed (after whitespace) by a
/// single `=` that is not part of `==`, `=>` or a compound operator.
fn find_live_config_assignment(code: &str) -> Option<&'static str> {
    let bytes = code.as_bytes();
    for field in LIVE_CONFIG_FIELDS {
        let dotted = format!(".{field}");
        let mut start = 0;
        while let Some(pos) = code[start..].find(&dotted) {
            let at = start + pos;
            start = at + 1;
            // A real receiver ends just before the dot.
            let has_receiver = at > 0 && {
                let prev = bytes[at - 1] as char;
                is_ident_char(prev) || prev == ')' || prev == ']'
            };
            if !has_receiver {
                continue;
            }
            // Whole-field match: the name must end at an identifier boundary.
            let end = at + dotted.len();
            if bytes.get(end).is_some_and(|&b| is_ident_char(b as char)) {
                continue;
            }
            // A plain `=` follows (skipping whitespace): assignment, not
            // comparison (`==`), pattern arm (`=>`) or compound op (`+=`).
            let mut j = end;
            while bytes.get(j).is_some_and(|b| (*b as char).is_whitespace()) {
                j += 1;
            }
            if bytes.get(j) == Some(&b'=')
                && bytes.get(j + 1) != Some(&b'=')
                && bytes.get(j + 1) != Some(&b'>')
            {
                return Some(field);
            }
        }
    }
    None
}

/// Keyed lookups in loops of hot-path-annotated functions.
///
/// Lines calling `.record(` are exempt: `TraceSink::record` is a
/// constant-time ring-buffer write, designed for exactly these loops, and
/// its argument expressions are the sink's concern, not a storage-layout
/// violation.
fn check_hot_lookup(file: &SourceFile, line: &LineInfo, out: &mut Vec<Violation>) {
    if contains_token(&line.code, ".record(") {
        return;
    }
    for token in HOT_LOOKUP_TOKENS {
        if !contains_token(&line.code, token) {
            continue;
        }
        if file.allow_for(rule::HOT_PATH_LOOKUP, line).is_some() {
            continue;
        }
        out.push(Violation {
            rule: rule::HOT_PATH_LOOKUP,
            path: file.path.clone(),
            line: line.number,
            message: format!(
                "`{}` inside a per-cycle hot-path loop — use dense indexed storage, \
                 or justify with lint: allow(hot-path-lookup)",
                token.trim_matches('.')
            ),
        });
    }
}

fn check_tokens(
    file: &SourceFile,
    line: &LineInfo,
    rule_name: &'static str,
    tokens: &[&str],
    out: &mut Vec<Violation>,
) {
    for token in tokens {
        if !contains_token(&line.code, token) {
            continue;
        }
        if file.allow_for(rule_name, line).is_some() {
            continue;
        }
        out.push(Violation {
            rule: rule_name,
            path: file.path.clone(),
            line: line.number,
            message: format!("`{}` in non-test library code", token.trim_matches('.')),
        });
    }
}

/// True when any identifier in `text` has a `_`-component in `vocab`.
fn mentions_vocab(text: &str, vocab: &[&str]) -> bool {
    text.split(|c: char| !is_ident_char(c))
        .filter(|w| !w.is_empty())
        .flat_map(|w| w.split('_'))
        .any(|part| {
            let lower = part.to_ascii_lowercase();
            vocab.contains(&lower.as_str())
        })
}

/// Unguarded growth of a spillover/retry buffer: a
/// [`SPILLOVER_GROW_TOKENS`] accessor whose receiver expression mentions
/// the [`SPILLOVER_VOCAB`], with no [`CAPACITY_VOCAB`] in the local window
/// (the growth line itself or the two code lines above it — the usual
/// `if len < capacity { … }` guard shape). A bound proven elsewhere is
/// documented with a `lint: allow(unbounded-spillover)` justification.
fn check_spillover_growth(
    file: &SourceFile,
    index: usize,
    line: &LineInfo,
    out: &mut Vec<Violation>,
) {
    let Some(token) = find_spillover_growth(&line.code) else {
        return;
    };
    let guarded = file.lines[index.saturating_sub(2)..=index]
        .iter()
        .any(|l| mentions_vocab(&l.code, CAPACITY_VOCAB));
    if guarded {
        return;
    }
    if file.allow_for(rule::UNBOUNDED_SPILLOVER, line).is_some() {
        return;
    }
    out.push(Violation {
        rule: rule::UNBOUNDED_SPILLOVER,
        path: file.path.clone(),
        line: line.number,
        message: format!(
            "`{}` grows a spillover/retry buffer with no adjacent capacity \
             guard — compare against an explicit capacity/limit first, or \
             justify with lint: allow(unbounded-spillover)",
            token.trim_matches(|c| c == '.' || c == '(')
        ),
    });
}

/// The last spillover-growth accessor on the line, if any: a
/// [`SPILLOVER_GROW_TOKENS`] accessor whose receiver expression mentions
/// the [`SPILLOVER_VOCAB`].
fn find_spillover_growth(code: &str) -> Option<&'static str> {
    let mut flagged: Option<&'static str> = None;
    for token in SPILLOVER_GROW_TOKENS {
        let mut start = 0;
        while let Some(pos) = code[start..].find(token) {
            let at = start + pos;
            let receiver: String = code[..at]
                .chars()
                .rev()
                .take_while(|&c| is_ident_char(c) || matches!(c, '.' | '(' | ')' | '[' | ']' | ':'))
                .collect::<Vec<char>>()
                .into_iter()
                .rev()
                .collect();
            if mentions_vocab(&receiver, SPILLOVER_VOCAB) {
                flagged = Some(token);
            }
            start = at + token.len();
        }
    }
    flagged
}

/// Token containment with identifier-boundary checks on both sides, so
/// `HashMap` does not match `MyHashMapLike` and `panic!` does not match
/// `dont_panic!`.
pub(crate) fn contains_token(code: &str, token: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(code.as_bytes()[at - 1] as char);
        let end = at + token.len();
        let first = token.chars().next().unwrap_or(' ');
        let last = token.chars().last().unwrap_or(' ');
        // Only enforce the trailing boundary for tokens ending in an
        // identifier character (e.g. `HashMap`, `std::time`).
        let after_ok = !is_ident_char(last)
            || end >= code.len()
            || !is_ident_char(code.as_bytes()[end] as char);
        let leading_ok = !is_ident_char(first) || before_ok;
        if leading_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Direct indexing: `[` immediately preceded by an identifier character,
/// `)` or `]`. Attribute syntax (`#[...]`), array literals (`= [...]`),
/// slice types (`&[...]`) and macros (`vec![...]`) never match.
fn check_indexing(file: &SourceFile, line: &LineInfo, out: &mut Vec<Violation>) {
    let bytes = line.code.as_bytes();
    let mut hits = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1] as char;
        if is_ident_char(prev) || prev == ')' || prev == ']' {
            hits += 1;
        }
    }
    if hits == 0 || file.allow_for(rule::INDEXING, line).is_some() {
        return;
    }
    out.push(Violation {
        rule: rule::INDEXING,
        path: file.path.clone(),
        line: line.number,
        message: format!(
            "direct indexing ({hits} site{}) — use get()/get_mut() or an allow with bounds justification",
            if hits == 1 { "" } else { "s" }
        ),
    });
}

fn check_casts(file: &SourceFile, line: &LineInfo, out: &mut Vec<Violation>) {
    let code = &line.code;
    let mut start = 0;
    let mut flagged: Option<&str> = None;
    while let Some(pos) = code[start..].find(" as ") {
        let at = start + pos + 4;
        let rest = &code[at..];
        for target in NARROW_CASTS {
            if rest.starts_with(target) {
                let end = at + target.len();
                if end >= code.len() || !is_ident_char(code.as_bytes()[end] as char) {
                    flagged = Some(target);
                }
            }
        }
        start = at;
    }
    let Some(target) = flagged else { return };
    if file.allow_for(rule::CAST_NARROWING, line).is_some() {
        return;
    }
    out.push(Violation {
        rule: rule::CAST_NARROWING,
        path: file.path.clone(),
        line: line.number,
        message: format!("narrowing `as {target}` cast — use try_from or a saturating conversion"),
    });
}

/// True when any identifier in `text` has a `_`-component in the time
/// vocabulary.
fn mentions_time_vocab(text: &str) -> bool {
    text.split(|c: char| !is_ident_char(c))
        .filter(|w| !w.is_empty())
        .flat_map(|w| w.split('_'))
        .any(|part| {
            let lower = part.to_ascii_lowercase();
            TIME_VOCAB.contains(&lower.as_str())
        })
}

/// True when either operand adjacent to the operator at byte `op_at`
/// mentions the time vocabulary. An operand is the maximal run of
/// identifier/`.`/`(`/`)`/`[`/`]`/`:` characters next to the operator
/// (whitespace between operand and operator is skipped).
fn operand_mentions_vocab(code: &str, op_at: usize) -> bool {
    let is_operand_char =
        |c: char| is_ident_char(c) || matches!(c, '.' | '(' | ')' | '[' | ']' | ':');
    // Collected walking back from the operator, then put back in reading
    // order so that a time word on the left matches the vocabulary.
    let left = code[..op_at]
        .trim_end()
        .chars()
        .rev()
        .take_while(|&c| is_operand_char(c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect::<String>();
    let right = code
        .get(op_at + 1..)
        .unwrap_or("")
        .trim_start_matches('=')
        .trim_start()
        .chars()
        .take_while(|&c| is_operand_char(c))
        .collect::<String>();
    mentions_time_vocab(&left) || mentions_time_vocab(&right)
}

fn check_arith(file: &SourceFile, line: &LineInfo, out: &mut Vec<Violation>) {
    let code = &line.code;
    // Heuristic exclusions, documented in DESIGN.md: float math cannot
    // overflow into wrong slots; checked/saturating/wrapping lines already
    // comply; assertion lines are diagnostics, not production arithmetic.
    if code.contains("f64")
        || code.contains("f32")
        || code.contains("checked_")
        || code.contains("saturating_")
        || code.contains("wrapping_")
        || code.contains("assert")
    {
        return;
    }
    if !mentions_time_vocab(code) {
        return;
    }
    let bytes = code.as_bytes();
    let mut op: Option<char> = None;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'+' && b != b'*' {
            continue;
        }
        // Binary use: the previous non-space char ends an operand.
        let prev = bytes[..i]
            .iter()
            .rev()
            .map(|&p| p as char)
            .find(|c| !c.is_whitespace());
        let prev_ok = prev.is_some_and(|c| is_ident_char(c) || c == ')' || c == ']');
        // The next non-space char starts an operand (rejects `+ 'a` bounds
        // and `*const`-style tokens).
        let next = bytes[i + 1..]
            .iter()
            .map(|&n| n as char)
            .find(|c| !c.is_whitespace());
        let compound = next == Some('=');
        let next_ok =
            compound || next.is_some_and(|c| is_ident_char(c) || c == '(' || c == '&' || c == '.');
        // The vocabulary word must sit in an adjacent operand, not merely
        // somewhere on the line — `T: Clone + Send` in a fn named `slots`
        // is a trait bound, not slot arithmetic.
        if prev_ok && next_ok && operand_mentions_vocab(code, i) {
            op = Some(b as char);
            break;
        }
    }
    let Some(op) = op else { return };
    if file.allow_for(rule::UNCHECKED_ARITH, line).is_some() {
        return;
    }
    out.push(Violation {
        rule: rule::UNCHECKED_ARITH,
        path: file.path.clone(),
        line: line.number,
        message: format!(
            "unchecked `{op}` on time/slot arithmetic — use checked_/saturating_ operations"
        ),
    });
}

/// Crate-root rule: `lib.rs` must carry `#![forbid(unsafe_code)]`.
pub fn check_forbid_unsafe(file: &SourceFile, out: &mut Vec<Violation>) {
    let has = file
        .lines
        .iter()
        .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
    if !has {
        out.push(Violation {
            rule: rule::FORBID_UNSAFE,
            path: file.path.clone(),
            line: 0,
            message: "crate root missing #![forbid(unsafe_code)]".into(),
        });
    }
}

/// Every `.rs` file under `dir` (recursively), sorted by path — the
/// deterministic work-list both the sequential and the engine-parallel
/// scans share.
pub fn collect_rs_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut stack = vec![dir.to_path_buf()];
    let mut files: Vec<PathBuf> = Vec::new();
    while let Some(d) = stack.pop() {
        if d.is_file() {
            if d.extension().is_some_and(|e| e == "rs") {
                files.push(d);
            }
            continue;
        }
        let entries =
            std::fs::read_dir(&d).map_err(|e| format!("cannot list {}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", d.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn lint_src(text: &str, rules: RuleSet) -> Vec<Violation> {
        let file = SourceFile::parse(Path::new("mem.rs"), text);
        let mut out = Vec::new();
        lint_file(&file, rules, &mut out);
        out
    }

    #[test]
    fn flags_unguarded_spillover_growth() {
        // Every grow shape on spillover-vocabulary receivers is caught when
        // no capacity guard sits in the local window.
        let v = lint_src(
            "fn f() {\n\
             self.spillover.push_back(entry);\n\
             retry_queue.push(item);\n\
             backlog.insert(key, value);\n\
             spilled[shard].extend(batch);\n\
             }\n",
            RuleSet::all(),
        );
        assert_eq!(
            v.iter()
                .filter(|v| v.rule == rule::UNBOUNDED_SPILLOVER)
                .count(),
            4,
            "{v:?}"
        );
    }

    #[test]
    fn guarded_spillover_growth_is_exempt() {
        // The canonical guard shape — a capacity comparison on the growth
        // line or within the two lines above it — is the documented bound.
        let v = lint_src(
            "fn f() {\n\
             if self.spillover.len() < self.config.spill_capacity {\n\
             self.spillover.push_back(entry);\n\
             }\n\
             if retries.len() < retry_limit { retries.push(item); }\n\
             }\n",
            RuleSet::all(),
        );
        assert!(
            !v.iter().any(|v| v.rule == rule::UNBOUNDED_SPILLOVER),
            "{v:?}"
        );
    }

    #[test]
    fn ordinary_growth_is_not_a_spillover_violation() {
        // The same accessors on non-spillover receivers stay legal: the
        // rule keys on the rejected-work vocabulary, not Vec::push at large.
        let v = lint_src(
            "fn f() {\n\
             decisions.push(d);\n\
             residents.insert(vm, tasks);\n\
             }\n",
            RuleSet::all(),
        );
        assert!(
            !v.iter().any(|v| v.rule == rule::UNBOUNDED_SPILLOVER),
            "{v:?}"
        );
    }

    #[test]
    fn justified_spillover_growth_is_allowed() {
        let v = lint_src(
            "fn f() {\n\
             // lint: allow(unbounded-spillover) — drained every hyperperiod by the reaper\n\
             backlog.push_back(entry);\n\
             }\n",
            RuleSet::all(),
        );
        assert!(
            !v.iter().any(|v| v.rule == rule::UNBOUNDED_SPILLOVER),
            "{v:?}"
        );
    }

    #[test]
    fn flags_unwrap_and_expect_in_library_code() {
        let v = lint_src("fn f() { x.unwrap(); y.expect(\"m\"); }\n", RuleSet::all());
        assert_eq!(
            v.iter().filter(|v| v.rule == rule::PANIC_SITE).count(),
            2,
            "{v:?}"
        );
    }

    #[test]
    fn unwrap_or_variants_do_not_match() {
        let v = lint_src(
            "fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 0); x.unwrap_or_default(); }\n",
            RuleSet::all(),
        );
        assert!(v.iter().all(|v| v.rule != rule::PANIC_SITE), "{v:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let v = lint_src(
            "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); v[0]; }\n}\n",
            RuleSet::all(),
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allow_with_justification_suppresses() {
        let v = lint_src(
            "fn f() { x.unwrap(); } // lint: allow(panic-site) — invariant: x was checked above\n",
            RuleSet::all(),
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allow_without_justification_is_flagged() {
        let v = lint_src(
            "fn f() { x.unwrap(); } // lint: allow(panic-site)\n",
            RuleSet::all(),
        );
        assert!(v.iter().any(|v| v.rule == rule::MISSING_JUSTIFICATION));
        // The panic-site itself stays suppressed — the finding is about the
        // justification, not the site.
        assert!(v.iter().all(|v| v.rule != rule::PANIC_SITE));
    }

    #[test]
    fn flags_indexing_but_not_attributes_or_literals() {
        let v = lint_src(
            "#[derive(Debug)]\nfn f(v: &[u64]) -> u64 { let a = [0u64; 4]; v[0] + a[1] }\n",
            RuleSet {
                indexing: true,
                ..RuleSet::for_crate("other")
            },
        );
        assert_eq!(v.iter().filter(|v| v.rule == rule::INDEXING).count(), 1);
    }

    #[test]
    fn file_wide_indexing_allow() {
        let v = lint_src(
            "// lint: allow(indexing, file) — arrays are sized to mesh.nodes() at construction\nfn f(v: &[u64]) -> u64 { v[0] }\n",
            RuleSet::all(),
        );
        assert!(v.iter().all(|v| v.rule != rule::INDEXING), "{v:?}");
    }

    #[test]
    fn flags_unchecked_time_arithmetic() {
        let v = lint_src(
            "fn f(deadline: u64, period: u64) -> u64 { deadline + period }\n",
            RuleSet::all(),
        );
        assert_eq!(
            v.iter().filter(|v| v.rule == rule::UNCHECKED_ARITH).count(),
            1,
            "{v:?}"
        );
    }

    #[test]
    fn flags_a_time_word_left_of_the_operator() {
        let v = lint_src(
            "fn f(now: u64) -> u64 { now + 1 }\nfn g(s: &mut S) { s.now += 1; }\n",
            RuleSet::all(),
        );
        let lines: Vec<usize> = v
            .iter()
            .filter(|v| v.rule == rule::UNCHECKED_ARITH)
            .map(|v| v.line)
            .collect();
        assert_eq!(lines, [1, 2], "{v:?}");
    }

    #[test]
    fn checked_and_float_lines_pass() {
        let v = lint_src(
            "fn f(deadline: u64, period: u64) -> u64 { deadline.checked_add(period).unwrap_or(u64::MAX) }\nfn g(u: f64, period: u64) -> f64 { u * period as f64 }\n",
            RuleSet {
                unchecked_arith: true,
                ..RuleSet::for_crate("other")
            },
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn trait_bounds_and_lifetimes_do_not_trip_arith() {
        let v = lint_src(
            "fn slots<'a, T: Clone + Send>(x: &'a T) -> impl Iterator<Item = bool> + 'a { std::iter::empty() }\n",
            RuleSet {
                unchecked_arith: true,
                ..RuleSet::for_crate("other")
            },
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn non_vocab_arithmetic_passes() {
        let v = lint_src(
            "fn f(a: u64, b: u64) -> u64 { a + b }\n",
            RuleSet {
                unchecked_arith: true,
                ..RuleSet::for_crate("other")
            },
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn flags_narrowing_casts_only() {
        let v = lint_src(
            "fn f(x: u64) -> u32 { let _k = x as usize; let _m = x as u64; x as u32 }\n",
            RuleSet::all(),
        );
        assert_eq!(
            v.iter().filter(|v| v.rule == rule::CAST_NARROWING).count(),
            1,
            "{v:?}"
        );
    }

    #[test]
    fn flags_hash_containers_and_clocks() {
        let v = lint_src(
            "use std::collections::HashMap;\nfn f() { let t = Instant::now(); }\n",
            RuleSet::all(),
        );
        assert_eq!(
            v.iter().filter(|v| v.rule == rule::NONDETERMINISM).count(),
            2,
            "{v:?}"
        );
    }

    #[test]
    fn hot_path_loop_lookup_is_flagged() {
        let v = lint_src(
            "// lint: hot-path — per-cycle stepper\nfn step_cycle(m: &std::collections::BTreeMap<u64, u64>) {\n    for i in 0..4 {\n        let _ = m.get(&i);\n    }\n}\n",
            RuleSet {
                hot_path: true,
                ..RuleSet::for_crate("other")
            },
        );
        assert!(v.iter().any(|v| v.rule == rule::HOT_PATH_LOOKUP), "{v:?}");
    }

    #[test]
    fn hot_path_lookup_outside_loop_or_cold_fn_passes() {
        let rules = RuleSet {
            hot_path: true,
            ..RuleSet::for_crate("other")
        };
        // Lookup in a hot fn but outside any loop: setup cost, allowed.
        let v = lint_src(
            "// lint: hot-path — per-cycle stepper\nfn step_cycle(m: &M) {\n    let _ = m.ids.get(&7);\n}\n",
            rules,
        );
        assert!(v.iter().all(|v| v.rule != rule::HOT_PATH_LOOKUP), "{v:?}");
        // Loop lookup in an unannotated fn: not a hot path.
        let v = lint_src(
            "fn cold(m: &M) {\n    for i in 0..4 {\n        let _ = m.ids.get(&i);\n    }\n}\n",
            rules,
        );
        assert!(v.iter().all(|v| v.rule != rule::HOT_PATH_LOOKUP), "{v:?}");
        // Slice-style positional get in a hot loop: not a keyed lookup.
        let v = lint_src(
            "// lint: hot-path — per-cycle stepper\nfn step_cycle(v: &[u64]) {\n    for i in 0..4 {\n        let _ = v.get(i);\n    }\n}\n",
            rules,
        );
        assert!(v.iter().all(|v| v.rule != rule::HOT_PATH_LOOKUP), "{v:?}");
    }

    #[test]
    fn hot_path_lookup_allow_escape_hatch() {
        let v = lint_src(
            "// lint: hot-path — per-cycle stepper\nfn step_cycle(m: &M) {\n    for i in 0..4 {\n        let _ = m.ids.get(&i); // lint: allow(hot-path-lookup) — cold slow path taken once per fault window\n    }\n}\n",
            RuleSet {
                hot_path: true,
                ..RuleSet::for_crate("other")
            },
        );
        assert!(v.iter().all(|v| v.rule != rule::HOT_PATH_LOOKUP), "{v:?}");
    }

    #[test]
    fn crate_scoping_disables_rules() {
        let rules = RuleSet::for_crate("ioguard-hw");
        assert!(rules.is_empty());
        let rules = RuleSet::for_crate("ioguard-noc");
        assert!(rules.panic_site && !rules.unchecked_arith);
        let rules = RuleSet::for_crate("ioguard-sched");
        assert!(rules.panic_site && rules.unchecked_arith && rules.nondeterminism);
        let rules = RuleSet::for_crate("ioguard-obs");
        assert!(rules.panic_site && rules.nondeterminism && !rules.unchecked_arith);
    }

    #[test]
    fn hot_path_record_call_is_exempt() {
        let rules = RuleSet {
            hot_path: true,
            ..RuleSet::for_crate("other")
        };
        // A trace-sink record in a hot loop is an O(1) ring write — legal
        // even when its arguments contain keyed-accessor shapes.
        let v = lint_src(
            "// lint: hot-path — per-cycle stepper\nfn step_cycle(m: &M) {\n    for i in 0..4 {\n        sink.record(now, m.kinds.get(&i));\n    }\n}\n",
            rules,
        );
        assert!(v.iter().all(|v| v.rule != rule::HOT_PATH_LOOKUP), "{v:?}");
        // The same lookup without the record call still fires.
        let v = lint_src(
            "// lint: hot-path — per-cycle stepper\nfn step_cycle(m: &M) {\n    for i in 0..4 {\n        let _ = m.kinds.get(&i);\n    }\n}\n",
            rules,
        );
        assert!(v.iter().any(|v| v.rule == rule::HOT_PATH_LOOKUP), "{v:?}");
    }

    #[test]
    fn flags_live_config_mutation_outside_builders() {
        let v = lint_src(
            "fn patch(live: &mut Hv) {\n    live.predefined = Vec::new();\n    live.params.watchdog = None;\n}\n",
            RuleSet::all(),
        );
        assert_eq!(
            v.iter()
                .filter(|v| v.rule == rule::LIVE_CONFIG_MUTATION)
                .count(),
            2,
            "{v:?}"
        );
    }

    #[test]
    fn builder_config_assignment_is_legal() {
        let v = lint_src(
            "impl P {\n    pub fn with_policy(mut self, p: G) -> Self {\n        self.policy = p;\n        self\n    }\n}\n",
            RuleSet::all(),
        );
        assert!(
            v.iter().all(|v| v.rule != rule::LIVE_CONFIG_MUTATION),
            "{v:?}"
        );
    }

    #[test]
    fn comparisons_literals_and_lookalikes_do_not_trip_live_config() {
        let v = lint_src(
            "fn f(p: &P) -> bool {\n\
             let same = p.policy == other.policy;\n\
             let s = Params { policy: g() };\n\
             let n = p.policy_epoch = 3;\n\
             match k { K::A if p.watchdog => {} _ => {} }\n\
             same\n}\n",
            RuleSet::all(),
        );
        assert!(
            v.iter().all(|v| v.rule != rule::LIVE_CONFIG_MUTATION),
            "{v:?}"
        );
    }

    #[test]
    fn justified_live_config_mutation_is_allowed() {
        let v = lint_src(
            "fn f(p: &mut P) {\n    p.degradation = d; // lint: allow(live-config-mutation) — pre-activation setup before the system goes live\n}\n",
            RuleSet::all(),
        );
        assert!(
            v.iter().all(|v| v.rule != rule::LIVE_CONFIG_MUTATION),
            "{v:?}"
        );
    }

    #[test]
    fn live_config_rule_scopes_to_hypervisor_and_reconfig() {
        assert!(RuleSet::for_crate("ioguard-hypervisor").live_config);
        let r = RuleSet::for_crate("ioguard-reconfig");
        assert!(r.live_config && r.panic_site && r.unchecked_arith && r.nondeterminism);
        assert!(!RuleSet::for_crate("ioguard-faults").live_config);
        assert!(!RuleSet::for_crate("ioguard-core").live_config);
    }

    #[test]
    fn forbid_unsafe_rule() {
        let good = SourceFile::parse(Path::new("lib.rs"), "#![forbid(unsafe_code)]\n");
        let bad = SourceFile::parse(Path::new("lib.rs"), "//! docs only\npub fn f() {}\n");
        let mut out = Vec::new();
        check_forbid_unsafe(&good, &mut out);
        assert!(out.is_empty());
        check_forbid_unsafe(&bad, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, rule::FORBID_UNSAFE);
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let v = lint_src(
            "// x.unwrap() panic! HashMap\nfn f() { let s = \"deadline + period HashMap .unwrap()\"; }\n",
            RuleSet::all(),
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
