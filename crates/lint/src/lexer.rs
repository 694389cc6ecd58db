//! A comment- and string-aware scanner for Rust source.
//!
//! soclint does not need full type information — every rule it enforces
//! is a *lexical* invariant (a justification comment next to an
//! `Ordering::` token, a method-call shape, a string literal in a call).
//! The build environment has no crates.io access, so instead of `syn`
//! this module implements the small slice of lexing the rules need:
//! comment stripping (line, nested block, doc), string/char/raw-string
//! literals, lifetime-vs-char disambiguation, brace-depth tracking,
//! function extents, `impl` context, and `#[cfg(test)]` block extents.
//!
//! The output is a [`SourceFile`]: raw lines, code lines (comments
//! removed, literal contents blanked so rules never match inside them),
//! per-line comment text, extracted string literals, and structural
//! spans. Line numbers are 1-based throughout.

use std::path::PathBuf;

/// A string literal extracted from the source (contents, not delimiters).
#[derive(Clone, Debug)]
pub struct StrLit {
    /// 1-based line where the literal starts.
    pub line: usize,
    /// The literal's value with escapes left as written (the rules only
    /// match plain identifiers and dots, which never need unescaping).
    pub value: String,
}

/// One function item: `fn` keyword through its closing brace.
#[derive(Clone, Debug)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub header_line: usize,
    /// 1-based line of the closing brace.
    pub end_line: usize,
    /// Enclosing `impl` type name, if any.
    pub impl_type: Option<String>,
    /// The trait, when the enclosing `impl` is `impl Trait for Type`.
    pub impl_trait: Option<String>,
}

/// One lexed token with its position.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// 1-based line.
    pub line: usize,
    /// Identifier, keyword, number, or a single punctuation character.
    pub text: String,
}

impl Token {
    fn is_ident(&self) -> bool {
        self.text.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_')
    }
}

/// A fully scanned source file.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated (stable in reports).
    pub rel: String,
    /// Absolute path on disk.
    pub path: PathBuf,
    /// The crate this file belongs to (directory under `crates/`/`shims/`).
    pub crate_name: String,
    /// Raw source lines.
    pub raw: Vec<String>,
    /// Source lines with comments removed and literal contents blanked.
    pub code: Vec<String>,
    /// Per-line comment text (all comments on the line, concatenated).
    pub comment: Vec<String>,
    /// String literals in source order.
    pub strings: Vec<StrLit>,
    /// Per-line flag: line is inside a `#[cfg(test)]` block (or attribute
    /// target), or the file is a `tests.rs` module, which a parent declares
    /// as `#[cfg(test)] mod tests;`.
    pub is_test: Vec<bool>,
    /// File carries the `#![doc = "soclint:hot"]` marker.
    pub hot: bool,
    /// Function extents, outermost first.
    pub fns: Vec<FnSpan>,
    /// Token stream of the code view.
    pub tokens: Vec<Token>,
}

impl SourceFile {
    /// Scan `text` into a [`SourceFile`].
    pub fn scan(rel: String, path: PathBuf, crate_name: String, text: &str) -> SourceFile {
        let raw: Vec<String> = text.lines().map(str::to_string).collect();
        let (code, comment, strings) = strip(text, raw.len());
        let tokens = tokenize(&code);
        let is_test = if rel.ends_with("/tests.rs") {
            vec![true; raw.len().max(1)]
        } else {
            mark_test_blocks(&code, raw.len())
        };
        let hot = raw.iter().take(40).any(|l| l.contains("#![doc = \"soclint:hot\"]"));
        let fns = find_fns(&tokens);
        SourceFile { rel, path, crate_name, raw, code, comment, strings, is_test, hot, fns, tokens }
    }

    /// Comment text adjacent to `line`: the line's own trailing comment
    /// plus the contiguous run of comment-only lines directly above.
    pub fn adjacent_comments(&self, line: usize) -> String {
        let mut out = String::new();
        let idx = line - 1;
        if idx < self.comment.len() {
            out.push_str(&self.comment[idx]);
        }
        // Walk upward over comment-only lines (code column blank).
        let mut i = idx;
        while i > 0 {
            i -= 1;
            let code_blank = self.code[i].trim().is_empty();
            let has_comment = !self.comment[i].trim().is_empty();
            if code_blank && has_comment {
                out.push('\n');
                out.push_str(&self.comment[i]);
            } else {
                break;
            }
        }
        out
    }

    /// The innermost function containing `line`, if any.
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.header_line <= line && line <= f.end_line)
            .min_by_key(|f| f.end_line - f.header_line)
    }
}

/// Comment/string stripping state machine. Returns (code lines, per-line
/// comment text, string literals).
fn strip(text: &str, n_lines: usize) -> (Vec<String>, Vec<String>, Vec<StrLit>) {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut code = vec![String::new(); n_lines.max(1)];
    let mut comment = vec![String::new(); n_lines.max(1)];
    let mut strings = Vec::new();
    let mut st = St::Code;
    let mut line = 0usize;
    let mut cur_lit = String::new();
    let mut lit_start = 0usize;
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if st == St::LineComment {
                st = St::Code;
            }
            line += 1;
            i += 1;
            continue;
        }
        let next = chars.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::LineComment;
                    comment[line].push_str("//");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    st = St::BlockComment(1);
                    i += 2;
                }
                '"' => {
                    st = St::Str;
                    code[line].push('"');
                    cur_lit.clear();
                    lit_start = line + 1;
                    i += 1;
                }
                'r' | 'b' if is_raw_string_start(&chars, i) => {
                    // r"..."  r#"..."#  br#"..."#  b"..."
                    let mut j = i;
                    while chars.get(j) == Some(&'r') || chars.get(j) == Some(&'b') {
                        code[line].push(chars[j]);
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    // chars[j] is the opening quote.
                    code[line].push('"');
                    cur_lit.clear();
                    lit_start = line + 1;
                    st = if hashes > 0 || chars.get(i) == Some(&'r') || raw_after_b(&chars, i) {
                        St::RawStr(hashes)
                    } else {
                        St::Str
                    };
                    i = j + 1;
                }
                '\'' => {
                    // Char literal vs lifetime: a char literal closes with
                    // a quote within a few chars; a lifetime never does.
                    if is_char_literal(&chars, i) {
                        st = St::Char;
                        code[line].push('\'');
                        i += 1;
                    } else {
                        code[line].push('\'');
                        i += 1;
                    }
                }
                _ => {
                    code[line].push(c);
                    i += 1;
                }
            },
            St::LineComment => {
                comment[line].push(c);
                i += 1;
            }
            St::BlockComment(d) => {
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(d + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    st = if d == 1 { St::Code } else { St::BlockComment(d - 1) };
                    i += 2;
                } else {
                    comment[line].push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    cur_lit.push(c);
                    if let Some(n) = next {
                        cur_lit.push(n);
                    }
                    i += 2;
                } else if c == '"' {
                    code[line].push('"');
                    strings.push(StrLit { line: lit_start, value: std::mem::take(&mut cur_lit) });
                    st = St::Code;
                    i += 1;
                } else {
                    cur_lit.push(c);
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    code[line].push('"');
                    strings.push(StrLit { line: lit_start, value: std::mem::take(&mut cur_lit) });
                    st = St::Code;
                    i += 1 + hashes as usize;
                } else {
                    cur_lit.push(c);
                    i += 1;
                }
            }
            St::Char => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    code[line].push('\'');
                    st = St::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    (code, comment, strings)
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // Only treat r/b as a literal prefix when not part of an identifier.
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    let mut saw_prefix = false;
    while matches!(chars.get(j), Some('r') | Some('b')) && j - i < 2 {
        saw_prefix = true;
        j += 1;
    }
    if !saw_prefix {
        return false;
    }
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn raw_after_b(chars: &[char], i: usize) -> bool {
    chars.get(i) == Some(&'b') && chars.get(i + 1) == Some(&'r')
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

fn is_char_literal(chars: &[char], i: usize) -> bool {
    // 'x' or '\n' or '\u{..}' — a closing quote within 12 chars with no
    // intervening whitespace-run typical of lifetimes.
    if chars.get(i + 1) == Some(&'\\') {
        return true;
    }
    if chars.get(i + 2) == Some(&'\'') {
        // 'a' — but "'a'" in `<'a'` is impossible; safe.
        return true;
    }
    false
}

/// Tokenize the code view into identifiers/numbers and punctuation.
fn tokenize(code: &[String]) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, line) in code.iter().enumerate() {
        let mut cur = String::new();
        for c in line.chars() {
            if c.is_alphanumeric() || c == '_' {
                cur.push(c);
            } else {
                if !cur.is_empty() {
                    out.push(Token { line: idx + 1, text: std::mem::take(&mut cur) });
                }
                if !c.is_whitespace() {
                    out.push(Token { line: idx + 1, text: c.to_string() });
                }
            }
        }
        if !cur.is_empty() {
            out.push(Token { line: idx + 1, text: cur });
        }
    }
    out
}

/// Mark lines covered by `#[cfg(test)]`-gated items (test modules and
/// test-only fns): from the attribute to the end of the following braced
/// block, or to the trailing `;` if no block opens first.
fn mark_test_blocks(code: &[String], n_lines: usize) -> Vec<bool> {
    let mut flags = vec![false; n_lines.max(1)];
    let mut i = 0usize;
    while i < code.len() {
        if code[i].contains("#[cfg(test)]") || code[i].contains("#[cfg(all(test") {
            // Find the opening brace of the gated item.
            let mut depth = 0i32;
            let mut opened = false;
            let mut j = i;
            'outer: while j < code.len() {
                for c in code[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth -= 1;
                            if opened && depth == 0 {
                                break 'outer;
                            }
                        }
                        ';' if !opened => break 'outer, // `#[cfg(test)] use ...;`
                        _ => {}
                    }
                }
                j += 1;
            }
            for f in flags.iter_mut().take((j + 1).min(n_lines)).skip(i) {
                *f = true;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    flags
}

/// Find function extents and their enclosing `impl` type.
fn find_fns(tokens: &[Token]) -> Vec<FnSpan> {
    struct OpenFn {
        name: String,
        header_line: usize,
        open_depth: i32,
        impl_type: Option<String>,
        impl_trait: Option<String>,
    }
    struct OpenImpl {
        ty: String,
        trait_: Option<String>,
        open_depth: i32,
    }
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut open_fns: Vec<OpenFn> = Vec::new();
    let mut open_impls: Vec<OpenImpl> = Vec::new();
    // Pending fn header: set when `fn name` seen, consumed at `{` or `;`.
    let mut pending: Option<(String, usize)> = None;
    let mut pending_impl: Option<(String, Option<String>)> = None;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.text.as_str() {
            "fn" => {
                if let Some(name_tok) = tokens.get(i + 1) {
                    if name_tok.is_ident() {
                        pending = Some((name_tok.text.clone(), t.line));
                    }
                }
            }
            "impl" => {
                // `impl Type`, `impl<T> Type<T>`, `impl Trait for Type`.
                let mut j = i + 1;
                // Skip a leading generic parameter list.
                if tokens.get(j).map(|t| t.text.as_str()) == Some("<") {
                    let mut angle = 0i32;
                    while j < tokens.len() {
                        match tokens[j].text.as_str() {
                            "<" => angle += 1,
                            ">" => {
                                angle -= 1;
                                if angle == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
                // First ident is either the type or the trait; if a `for`
                // follows before `{`, the type is after `for`.
                let mut ty: Option<String> = None;
                let mut trait_: Option<String> = None;
                let mut k = j;
                while k < tokens.len() {
                    match tokens[k].text.as_str() {
                        "for" => {
                            trait_ = ty.take(); // what we saw was the trait
                            k += 1;
                            continue;
                        }
                        "{" | "where" => break,
                        s => {
                            if ty.is_none()
                                && tokens[k].is_ident()
                                && s != "dyn"
                                && !s.chars().next().is_some_and(|c| c.is_ascii_digit())
                            {
                                ty = Some(s.to_string());
                            }
                            k += 1;
                        }
                    }
                }
                pending_impl = ty.map(|ty| (ty, trait_));
            }
            "{" => {
                depth += 1;
                if let Some((name, header_line)) = pending.take() {
                    let impl_type = open_impls.last().map(|oi| oi.ty.clone());
                    let impl_trait = open_impls.last().and_then(|oi| oi.trait_.clone());
                    open_fns.push(OpenFn {
                        name,
                        header_line,
                        open_depth: depth,
                        impl_type,
                        impl_trait,
                    });
                } else if let Some((ty, trait_)) = pending_impl.take() {
                    open_impls.push(OpenImpl { ty, trait_, open_depth: depth });
                }
            }
            "}" => {
                if let Some(f) = open_fns.last() {
                    if f.open_depth == depth {
                        let f = open_fns.pop().expect("non-empty");
                        out.push(FnSpan {
                            name: f.name,
                            header_line: f.header_line,
                            end_line: t.line,
                            impl_type: f.impl_type,
                            impl_trait: f.impl_trait,
                        });
                    }
                }
                if let Some(im) = open_impls.last() {
                    if im.open_depth == depth {
                        open_impls.pop();
                    }
                }
                depth -= 1;
            }
            ";" => {
                // Trait method declaration without a body.
                pending = None;
            }
            _ => {}
        }
        i += 1;
    }
    out.sort_by_key(|f| f.header_line);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> SourceFile {
        SourceFile::scan("t.rs".into(), "t.rs".into(), "t".into(), src)
    }

    #[test]
    fn strips_comments_and_strings() {
        let f = scan("let a = \"x // not a comment\"; // real\nlet b = 'y';\n");
        assert!(!f.code[0].contains("not a comment"));
        assert!(f.comment[0].contains("real"));
        assert_eq!(f.strings[0].value, "x // not a comment");
        assert!(f.code[1].contains("let b ="));
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let f = scan("fn f<'a>(x: &'a str) { let r = r#\"raw \"q\" end\"#; }\n");
        assert_eq!(f.strings.len(), 1);
        assert_eq!(f.strings[0].value, "raw \"q\" end");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "f");
    }

    #[test]
    fn fn_and_impl_extents() {
        let src = "impl Foo {\n    fn bar(&self) {\n        body();\n    }\n}\nfn baz() {}\n";
        let f = scan(src);
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "bar");
        assert_eq!(f.fns[0].impl_type.as_deref(), Some("Foo"));
        assert_eq!((f.fns[0].header_line, f.fns[0].end_line), (2, 4));
        assert_eq!(f.fns[1].impl_type, None);
    }

    #[test]
    fn test_blocks_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let f = scan(src);
        assert!(!f.is_test[0]);
        assert!(f.is_test[1] && f.is_test[2] && f.is_test[3] && f.is_test[4]);
    }

    #[test]
    fn a_tests_module_file_is_all_test() {
        let src = "use super::*;\nfn helper() {}\n";
        let f = SourceFile::scan("c/src/m/tests.rs".into(), PathBuf::new(), "c".into(), src);
        assert!(f.is_test.iter().all(|t| *t));
        let f = SourceFile::scan("c/src/m/attests.rs".into(), PathBuf::new(), "c".into(), src);
        assert!(!f.is_test.iter().any(|t| *t));
    }

    #[test]
    fn adjacent_comments_walk_upward() {
        let src = "// ordering: above\n// second line\nlet x = 1;\nlet y = 2; // trailing\n";
        let f = scan(src);
        assert!(f.adjacent_comments(3).contains("ordering: above"));
        assert!(f.adjacent_comments(4).contains("trailing"));
        assert!(!f.adjacent_comments(4).contains("above"));
    }
}
