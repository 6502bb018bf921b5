//! Source preprocessing for the token/line-level lint rules.
//!
//! The analyzer deliberately avoids a full Rust parser (the workspace builds
//! offline against vendored stubs, so `syn` is not available). Instead each
//! file is preprocessed into per-line *stripped code*:
//!
//! * line comments, block comments (nested) and doc comments are removed —
//!   doc examples therefore never trigger rules;
//! * string, raw-string, byte-string and char literal *contents* are blanked
//!   so operator and keyword scans cannot match inside text;
//! * `#[cfg(test)]` items and `#[test]` functions are tracked by brace depth
//!   and marked as test code, which most rules skip.
//!
//! Comments are not discarded entirely: they are scanned for allowlist
//! directives of the form
//!
//! ```text
//! // lint: allow(rule-name) — justification text
//! // lint: allow(rule-name, file) — justification text
//! ```
//!
//! A same-line directive applies to that line; a directive on its own line
//! applies to the next code line; the `file` form applies to the whole file.
//! The justification text is mandatory (see [`Allow::justified`]).

use std::fmt;
use std::path::{Path, PathBuf};

/// Minimum length of a non-empty allowlist justification. Shorter texts are
/// treated as missing: the policy requires a real explanation, not "ok".
pub const MIN_JUSTIFICATION: usize = 10;

/// Minimum number of alphanumeric characters a justification must contain.
/// Length alone is not enough: `----------` pads past [`MIN_JUSTIFICATION`]
/// without saying anything.
pub const MIN_JUSTIFICATION_ALNUM: usize = 8;

/// One allowlist directive extracted from a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule being allowed (e.g. `panic-site`).
    pub rule: String,
    /// Free-text justification following the directive.
    pub justification: String,
    /// True for `allow(rule, file)` — applies to the entire file.
    pub file_wide: bool,
    /// 1-based line the directive appeared on.
    pub line: usize,
}

impl Allow {
    /// True when the justification satisfies the policy: long enough AND
    /// composed of actual words, not punctuation/whitespace padding.
    pub fn justified(&self) -> bool {
        let t = self.justification.trim();
        t.len() >= MIN_JUSTIFICATION
            && t.chars().filter(|c| c.is_alphanumeric()).count() >= MIN_JUSTIFICATION_ALNUM
    }
}

/// One preprocessed source line.
#[derive(Debug, Clone)]
pub struct LineInfo {
    /// 1-based line number.
    pub number: usize,
    /// Code with comments removed and literal contents blanked.
    pub code: String,
    /// True when the line sits inside a `#[cfg(test)]` item or `#[test]`
    /// function.
    pub in_test: bool,
    /// True when the line sits inside a function marked as a per-cycle hot
    /// path by a `// lint: hot-path` comment directly above it. A name
    /// alone marks nothing.
    pub in_hot_path: bool,
    /// True when the line sits inside (or on the header of) a `for`/
    /// `while`/`loop` body.
    pub in_loop: bool,
    /// True when the line sits inside a consuming-builder method — a
    /// function taking `mut self` by value (`fn with_x(mut self, ..)`).
    /// Builders are the one legitimate place to assign configuration
    /// fields; the live-config-mutation rule exempts them.
    pub in_builder: bool,
    /// Rules allowed on this line (same-line or preceding-line directives).
    pub allows: Vec<Allow>,
}

/// A fully preprocessed source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path the file was read from.
    pub path: PathBuf,
    /// Preprocessed lines, in order.
    pub lines: Vec<LineInfo>,
    /// File-wide allow directives.
    pub file_allows: Vec<Allow>,
}

impl SourceFile {
    /// Reads and preprocesses a file.
    ///
    /// # Errors
    ///
    /// Returns the I/O error message when the file cannot be read.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Ok(Self::parse(path, &text))
    }

    /// Preprocesses source text (exposed for tests and fixtures).
    pub fn parse(path: &Path, text: &str) -> Self {
        let stripped = strip(text);
        let mut lines = Vec::with_capacity(stripped.len());
        let mut file_allows = Vec::new();
        let mut pending: Vec<Allow> = Vec::new();

        // Test-region tracking over the stripped code.
        let mut depth: usize = 0;
        let mut test_stack: Vec<usize> = Vec::new();
        let mut test_attr_armed = false;
        // Hot-path-region tracking: armed by a `lint: hot-path` comment, the
        // region opens at the next `{` — the fn body — exactly like the
        // test-attribute pattern above.
        let mut hot_stack: Vec<usize> = Vec::new();
        let mut hot_armed = false;
        // Loop tracking: `for`/`while`/`loop` arms a region opening at the
        // next `{`. Loops nest, so the stack may hold several depths.
        let mut loop_stack: Vec<usize> = Vec::new();
        let mut loop_armed = false;
        // Builder tracking: a `(mut self` parameter list arms a region
        // opening at the next `{` — the consuming builder's body.
        let mut builder_stack: Vec<usize> = Vec::new();
        let mut builder_armed = false;

        for (idx, (code, comment)) in stripped.into_iter().enumerate() {
            let number = idx + 1;
            let mut allows: Vec<Allow> = Vec::new();
            for mut allow in parse_directives(&comment, number) {
                if allow.file_wide {
                    file_allows.push(allow);
                } else if code.trim().is_empty() {
                    // Comment-only line: applies to the next code line.
                    pending.push(allow);
                } else {
                    allow.file_wide = false;
                    allows.push(allow);
                }
            }
            let comment_only = code.trim().is_empty();
            if !comment_only {
                allows.append(&mut pending);
            }

            let in_test_before = !test_stack.is_empty();
            let in_hot_before = !hot_stack.is_empty();
            let in_loop_before = !loop_stack.is_empty();
            let in_builder_before = !builder_stack.is_empty();
            let mut saw_hot = false;
            let mut saw_loop = false;
            let mut saw_builder = false;
            if code.contains("#[cfg(test)]") || code.contains("#[test]") {
                test_attr_armed = true;
            }
            if comment.contains("lint: hot-path") {
                hot_armed = true;
            }
            if code.contains("(mut self") {
                builder_armed = true;
            }
            let bytes = code.as_bytes();
            let mut j = 0;
            while j < bytes.len() {
                let ch = bytes[j] as char;
                if ch.is_ascii_alphanumeric() || ch == '_' {
                    // Read the maximal identifier/keyword word.
                    let start = j;
                    while j < bytes.len()
                        && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                    {
                        j += 1;
                    }
                    if matches!(&code[start..j], "for" | "while" | "loop") {
                        loop_armed = true;
                    }
                    continue;
                }
                match ch {
                    '{' => {
                        if test_attr_armed {
                            test_stack.push(depth);
                            test_attr_armed = false;
                        }
                        if hot_armed {
                            hot_stack.push(depth);
                            hot_armed = false;
                            saw_hot = true;
                        }
                        if loop_armed {
                            loop_stack.push(depth);
                            saw_loop = true;
                        }
                        if builder_armed {
                            builder_stack.push(depth);
                            builder_armed = false;
                            saw_builder = true;
                        }
                        loop_armed = false;
                        depth += 1;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if test_stack.last().is_some_and(|&d| d >= depth) {
                            test_stack.pop();
                        }
                        if hot_stack.last().is_some_and(|&d| d >= depth) {
                            hot_stack.pop();
                        }
                        if builder_stack.last().is_some_and(|&d| d >= depth) {
                            builder_stack.pop();
                        }
                        while loop_stack.last().is_some_and(|&d| d >= depth) {
                            loop_stack.pop();
                        }
                    }
                    // `#[cfg(test)] use foo;` — attribute consumed
                    // without opening a body. Same for a stray hot-path
                    // directive over a non-fn item.
                    ';' if depth == 0 => {
                        test_attr_armed = false;
                        hot_armed = false;
                        builder_armed = false;
                    }
                    _ => {}
                }
                j += 1;
            }
            let in_test = in_test_before || !test_stack.is_empty() || test_attr_armed;
            let in_hot_path = in_hot_before || !hot_stack.is_empty() || saw_hot;
            let in_loop = in_loop_before || !loop_stack.is_empty() || saw_loop || loop_armed;
            let in_builder =
                in_builder_before || !builder_stack.is_empty() || saw_builder || builder_armed;

            lines.push(LineInfo {
                number,
                code,
                in_test,
                in_hot_path,
                in_loop,
                in_builder,
                allows,
            });
        }

        Self {
            path: path.to_path_buf(),
            lines,
            file_allows,
        }
    }

    /// The file-wide or per-line allow covering `rule` at `line`, if any.
    pub fn allow_for<'a>(&'a self, rule: &str, line: &'a LineInfo) -> Option<&'a Allow> {
        line.allows
            .iter()
            .chain(self.file_allows.iter())
            .find(|a| a.rule == rule)
    }
}

impl fmt::Display for SourceFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} lines)", self.path.display(), self.lines.len())
    }
}

/// Splits source text into per-line `(stripped code, comment text)` pairs.
fn strip(text: &str) -> Vec<(String, String)> {
    #[derive(PartialEq)]
    enum State {
        Normal,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let mut out: Vec<(String, String)> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Normal;
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            if state == State::LineComment {
                state = State::Normal;
            }
            out.push((std::mem::take(&mut code), std::mem::take(&mut comment)));
            i += 1;
            continue;
        }
        match state {
            State::Normal => match (c, next) {
                ('/', Some('/')) => {
                    state = State::LineComment;
                    i += 2;
                }
                ('/', Some('*')) => {
                    state = State::BlockComment(1);
                    i += 2;
                }
                ('"', _) => {
                    // Keep the quotes so tokens cannot merge across them.
                    code.push('"');
                    state = State::Str;
                    i += 1;
                }
                ('r', Some('"' | '#')) if is_raw_string_start(&chars, i) => {
                    let hashes = count_hashes(&chars, i + 1);
                    code.push('"');
                    state = State::RawStr(hashes);
                    i += 2 + hashes; // r, hashes, opening quote
                }
                // Byte raw strings `br"..."` / `br#"..."#` have NO escape
                // processing — they must take the RawStr path, not Str, or a
                // trailing `\` in the content swallows the closing quote.
                ('b', Some('r')) if !prev_is_ident(&chars, i) && raw_quote_after(&chars, i + 1) => {
                    let hashes = count_hashes(&chars, i + 2);
                    code.push('"');
                    state = State::RawStr(hashes);
                    i += 3 + hashes; // b, r, hashes, opening quote
                }
                ('\'', _) => {
                    // Distinguish lifetimes from char literals: a lifetime is
                    // `'ident` NOT followed by a closing quote.
                    let is_lifetime = next.is_some_and(|n| n.is_alphabetic() || n == '_')
                        && chars.get(i + 2).copied() != Some('\'');
                    if is_lifetime {
                        // Consume the whole lifetime name: its identifier
                        // chars must not re-enter the normal state, where a
                        // leading `r`/`br` would read as a raw-string prefix
                        // (`'r"…"` is a lifetime then a plain string).
                        code.push('\'');
                        i += 1;
                        while chars
                            .get(i)
                            .copied()
                            .is_some_and(|ch| ch.is_alphanumeric() || ch == '_')
                        {
                            code.push(chars[i]);
                            i += 1;
                        }
                    } else {
                        code.push('\'');
                        state = State::Char;
                        i += 1;
                    }
                }
                _ => {
                    code.push(c);
                    i += 1;
                }
            },
            State::LineComment => {
                comment.push(c);
                i += 1;
            }
            State::BlockComment(d) => match (c, next) {
                ('*', Some('/')) => {
                    state = if d == 1 {
                        // One space marks the removed comment, so the code
                        // on either side cannot splice into a new token
                        // (`un/*…*/safe`, or a lifetime meeting a quote) —
                        // which also makes stripping idempotent.
                        code.push(' ');
                        State::Normal
                    } else {
                        State::BlockComment(d - 1)
                    };
                    i += 2;
                }
                ('/', Some('*')) => {
                    state = State::BlockComment(d + 1);
                    i += 2;
                }
                _ => {
                    comment.push(c);
                    i += 1;
                }
            },
            State::Str => match (c, next) {
                ('\\', Some(_)) => i += 2,
                ('"', _) => {
                    code.push('"');
                    state = State::Normal;
                    i += 1;
                }
                _ => i += 1,
            },
            State::RawStr(hashes) => {
                if c == '"' && closes_raw_string(&chars, i, hashes) {
                    code.push('"');
                    state = State::Normal;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
            }
            State::Char => match (c, next) {
                ('\\', Some(_)) => i += 2,
                ('\'', _) => {
                    code.push('\'');
                    state = State::Normal;
                    i += 1;
                }
                _ => i += 1,
            },
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        out.push((code, comment));
    }
    out
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // `r"..."` or `r#..#"..."#..#` — but NOT an identifier like `raw`.
    !prev_is_ident(chars, i) && raw_quote_after(chars, i)
}

/// True when the character before `i` continues an identifier, i.e. the
/// `r`/`b` at `i` is the tail of a name like `raw` rather than a prefix.
fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && {
        let prev = chars[i - 1];
        prev.is_alphanumeric() || prev == '_'
    }
}

/// True when position `i` is followed by zero or more `#` and then `"` —
/// the hash-run/opening-quote shape shared by `r`- and `br`-prefixed raws.
fn raw_quote_after(chars: &[char], i: usize) -> bool {
    let mut j = i + 1;
    while chars.get(j).copied() == Some('#') {
        j += 1;
    }
    chars.get(j).copied() == Some('"')
}

fn count_hashes(chars: &[char], mut i: usize) -> usize {
    let mut n = 0;
    while chars.get(i).copied() == Some('#') {
        n += 1;
        i += 1;
    }
    n
}

fn closes_raw_string(chars: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(i + k).copied() == Some('#'))
}

/// Extracts `lint: allow(...)` directives from a line's comment text.
fn parse_directives(comment: &str, line: usize) -> Vec<Allow> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("lint: allow(") {
        let after = &rest[pos + "lint: allow(".len()..];
        let Some(close) = after.find(')') else { break };
        let inner = &after[..close];
        let tail = &after[close + 1..];
        let mut parts = inner.splitn(2, ',');
        let rule = parts.next().unwrap_or("").trim().to_string();
        let file_wide = parts
            .next()
            .is_some_and(|scope| scope.trim().eq_ignore_ascii_case("file"));
        let justification = tail
            .trim_start_matches([' ', '\t'])
            .trim_start_matches(['—', '-', ':', '–'])
            .trim()
            .to_string();
        if !rule.is_empty() {
            out.push(Allow {
                rule,
                justification,
                file_wide,
                line,
            });
        }
        rest = tail;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(text: &str) -> SourceFile {
        SourceFile::parse(Path::new("mem.rs"), text)
    }

    #[test]
    fn strips_line_and_block_comments() {
        let f = parse("let a = 1; // unwrap()\nlet b = /* panic! */ 2;\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(!f.lines[1].code.contains("panic"));
        assert!(f.lines[1].code.contains("let b ="));
    }

    #[test]
    fn strips_nested_block_comments() {
        let f = parse("a /* x /* y */ z */ b\n");
        assert_eq!(
            f.lines[0].code.split_whitespace().collect::<Vec<_>>(),
            ["a", "b"]
        );
    }

    #[test]
    fn blanks_string_contents_but_keeps_quotes() {
        let f = parse("let s = \"call .unwrap() now\";\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("\"\""));
    }

    #[test]
    fn blanks_raw_strings_and_chars() {
        let f = parse("let s = r#\"panic!\"#; let c = '['; let l: &'static str = \"\";\n");
        let code = &f.lines[0].code;
        assert!(!code.contains("panic"));
        assert!(!code.contains('['));
        assert!(code.contains("'static"));
    }

    #[test]
    fn escaped_quotes_inside_strings() {
        let f = parse("let s = \"a\\\"b.unwrap()\"; x\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.ends_with(" x"));
    }

    #[test]
    fn blanks_multi_hash_raw_strings() {
        // `"#` inside an `r##` raw must not terminate it early.
        let f = parse("let s = r##\"has \"# inside .unwrap()\"##; tail();\n");
        let code = &f.lines[0].code;
        assert!(!code.contains("unwrap"), "content leaked: {code}");
        assert!(code.contains("tail()"), "code after literal lost: {code}");
        let g = parse("let s = r###\"x\"## .unwrap() \"###; tail();\n");
        assert!(!g.lines[0].code.contains("unwrap"));
        assert!(g.lines[0].code.contains("tail()"));
    }

    #[test]
    fn blanks_byte_strings() {
        let f = parse("let s = b\"call .unwrap()\"; tail();\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("tail()"));
    }

    #[test]
    fn blanks_byte_raw_strings() {
        // br-raws have no escapes: a trailing backslash is literal content
        // and must not swallow the closing quote (and the rest of the line).
        let f = parse("let t = br\"x\\\"; z.unwrap();\n");
        assert!(!f.lines[0].code.contains('x'), "content leaked");
        assert!(
            f.lines[0].code.contains("z.unwrap()"),
            "code after literal lost: {}",
            f.lines[0].code
        );
        let g = parse("let s = br#\"say \\\" .unwrap()\"#; tail();\n");
        assert!(!g.lines[0].code.contains("unwrap"));
        assert!(g.lines[0].code.contains("tail()"));
        // An identifier ending in `br` followed by generics is untouched.
        let h = parse("let v = abr\"s\"; keep();\n");
        assert!(h.lines[0].code.contains("abr"));
        assert!(h.lines[0].code.contains("keep()"));
    }

    #[test]
    fn marks_cfg_test_regions() {
        let text = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn prod2() {}\n";
        let f = parse(text);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test); // the attribute line itself
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn cfg_test_on_use_item_does_not_poison_rest_of_file() {
        let text = "#[cfg(test)]\nuse foo::bar;\nfn prod() { x.unwrap(); }\n";
        let f = parse(text);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn same_line_allow_applies_to_line() {
        let f = parse("x.unwrap(); // lint: allow(panic-site) — contract documented upstream\n");
        assert_eq!(f.lines[0].allows.len(), 1);
        let a = &f.lines[0].allows[0];
        assert_eq!(a.rule, "panic-site");
        assert!(a.justified());
    }

    #[test]
    fn standalone_allow_applies_to_next_code_line() {
        let f = parse("// lint: allow(indexing) — bounded by construction above\nlet y = v[0];\n");
        assert!(f.lines[0].allows.is_empty());
        assert_eq!(f.lines[1].allows.len(), 1);
        assert_eq!(f.lines[1].allows[0].rule, "indexing");
    }

    #[test]
    fn file_wide_allow_collected_separately() {
        let f = parse(
            "// lint: allow(indexing, file) — dense arrays sized at construction\nfn a() {}\n",
        );
        assert_eq!(f.file_allows.len(), 1);
        assert!(f.file_allows[0].file_wide);
        assert!(f.allow_for("indexing", &f.lines[1]).is_some());
    }

    #[test]
    fn hot_path_directive_marks_fn_body() {
        let text = "// lint: hot-path — per-cycle stepper\nfn step_cycle(&mut self) {\n    let x = 1;\n}\nfn cold() { let y = 2; }\n";
        let f = parse(text);
        assert!(f.lines[1].in_hot_path, "fn header line");
        assert!(f.lines[2].in_hot_path, "body line");
        assert!(f.lines[3].in_hot_path, "closing brace line");
        assert!(!f.lines[4].in_hot_path, "next fn is cold");
    }

    #[test]
    fn hot_path_fn_name_alone_does_not_mark_body() {
        // Only the directive marks a hot path: the rules' own
        // `check_blocking_in_hot_path` is no hot root.
        let f = parse("fn check_blocking_in_hot_path(&self) {\n    let x = 1;\n}\n");
        assert!(f.lines.iter().all(|l| !l.in_hot_path));
    }

    #[test]
    fn loops_are_tracked_with_nesting() {
        let text = "fn f() {\n    let a = 0;\n    for i in 0..4 {\n        inner();\n        while go() {\n            deep();\n        }\n    }\n    let b = 1;\n}\n";
        let f = parse(text);
        assert!(!f.lines[1].in_loop, "before the loop");
        assert!(f.lines[2].in_loop, "for header");
        assert!(f.lines[3].in_loop, "loop body");
        assert!(f.lines[5].in_loop, "nested while body");
        assert!(f.lines[7].in_loop, "still inside for");
        assert!(!f.lines[8].in_loop, "after the loop");
    }

    #[test]
    fn for_each_and_identifiers_do_not_arm_loops() {
        let f = parse("fn f() {\n    items.for_each(|x| use_it(x));\n    let looping = 3;\n}\n");
        assert!(!f.lines[1].in_loop);
        assert!(!f.lines[2].in_loop);
    }

    #[test]
    fn builder_methods_mark_their_bodies() {
        let text = "impl P {\n    pub fn with_policy(mut self, p: u64) -> Self {\n        self.policy = p;\n        self\n    }\n    pub fn apply(&mut self, p: u64) {\n        self.policy = p;\n    }\n}\n";
        let f = parse(text);
        assert!(f.lines[1].in_builder, "builder header line");
        assert!(f.lines[2].in_builder, "builder body line");
        assert!(f.lines[4].in_builder, "builder closing brace");
        assert!(!f.lines[5].in_builder, "&mut self method is not a builder");
        assert!(!f.lines[6].in_builder, "&mut self body is not a builder");
    }

    #[test]
    fn unjustified_allow_detected() {
        let f = parse("x.unwrap(); // lint: allow(panic-site)\n");
        assert!(!f.lines[0].allows[0].justified());
        let g = parse("x.unwrap(); // lint: allow(panic-site) — ok\n");
        assert!(!g.lines[0].allows[0].justified());
    }

    #[test]
    fn padding_justification_rejected() {
        // Long enough, but pure punctuation — not an explanation.
        let f = parse("x.unwrap(); // lint: allow(panic-site) — -------------\n");
        assert!(!f.lines[0].allows[0].justified());
        let g = parse("x.unwrap(); // lint: allow(panic-site) — . . . . . . . .\n");
        assert!(!g.lines[0].allows[0].justified());
        let h = parse("x.unwrap(); // lint: allow(panic-site) — checked above\n");
        assert!(h.lines[0].allows[0].justified());
    }
}
