//! A lightweight item parser on top of [`crate::lexer`].
//!
//! Recovers just enough structure for scope-aware analysis: `fn` items
//! with their body token ranges, the `mod`/`impl`/`trait` nesting that
//! qualifies their names, visibility, and `#[cfg(test)]`/`#[test]`
//! scoping. It is *recovery-oriented*, not a grammar: any byte sequence
//! parses (the proptest suite mutates real workspace files at random),
//! unbalanced scopes are closed at EOF, and everything the analyzer
//! does not need (expressions, types, generics) is skipped by brace
//! matching. The one hard invariant is that every recovered body range
//! lies inside the token stream and every nested item's range lies
//! inside its parent's.

use crate::lexer::{Tok, TokKind};
use std::ops::Range;

/// One recovered `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Bare function name (`search_batch`).
    pub name: String,
    /// Fully-qualified path: `<prefix>::<mods>::<SelfType>::<name>`,
    /// where `<prefix>` is the caller-supplied crate/module prefix.
    pub qualified: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub self_type: Option<String>,
    /// `pub` without a restriction (`pub(crate)`/`pub(super)` are not
    /// public API and parse as private).
    pub is_pub: bool,
    /// Under `#[test]`, `#[cfg(test)]`, or inside a test-scoped mod.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the body's closing brace (or the last body
    /// token at EOF).
    pub end_line: u32,
    /// Body token range — indices into the **code-token slice** passed
    /// to [`parse_items`] (exclusive of the braces). Empty for
    /// bodiless trait-method declarations.
    pub body: Range<usize>,
}

impl FnItem {
    /// `true` when `idx` (a code-token index) falls inside this body.
    pub fn contains_token(&self, idx: usize) -> bool {
        idx >= self.body.start && idx < self.body.end
    }
}

/// What a scope on the parser stack is.
#[derive(Debug, Clone)]
enum ScopeKind {
    /// `mod name { ... }` — contributes a path segment.
    Mod(String),
    /// `impl [Trait for] Type { ... }` / `trait Name { ... }` —
    /// contributes the self type.
    SelfTyped(Option<String>),
    /// A fn body; holds the index of its item in the output vector.
    Fn(usize),
    /// Any other brace pair (blocks, struct bodies, match arms, ...).
    Block,
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    /// This scope was introduced by a test-scoped item.
    test: bool,
}

/// Parses the **code-token** stream of one file (comments already
/// filtered out) into its `fn` items. `prefix` is the crate/module
/// qualification for top-level items (e.g. `core::soa`).
pub fn parse_items(code: &[&Tok], prefix: &str) -> Vec<FnItem> {
    Parser {
        code,
        prefix,
        scopes: Vec::new(),
        items: Vec::new(),
        pending_pub: false,
        pending_test: false,
    }
    .run()
}

struct Parser<'a, 'b> {
    code: &'b [&'b Tok<'a>],
    prefix: &'b str,
    scopes: Vec<Scope>,
    items: Vec<FnItem>,
    pending_pub: bool,
    pending_test: bool,
}

impl<'a, 'b> Parser<'a, 'b> {
    fn run(mut self) -> Vec<FnItem> {
        let mut i = 0usize;
        while i < self.code.len() {
            let t = self.code[i];
            match t.text {
                "#" if self.peek_text(i + 1) == Some("[") => {
                    let (end, is_test) = scan_attribute(self.code, i + 1);
                    self.pending_test |= is_test;
                    i = end + 1;
                }
                "pub" if t.kind == TokKind::Ident => {
                    if self.peek_text(i + 1) == Some("(") {
                        // `pub(crate)` / `pub(in ...)`: restricted, not
                        // public API. Skip the restriction parens.
                        i = skip_balanced(self.code, i + 1, "(", ")");
                    } else {
                        self.pending_pub = true;
                        i += 1;
                    }
                }
                // Modifiers between `pub` and `fn` keep pending flags.
                "async" | "unsafe" | "extern" if t.kind == TokKind::Ident => i += 1,
                "const" if t.kind == TokKind::Ident && self.peek_text(i + 1) == Some("fn") => {
                    i += 1;
                }
                "mod" if t.kind == TokKind::Ident => {
                    let name = self
                        .peek_ident(i + 1)
                        .map(str::to_string)
                        .unwrap_or_else(|| "?".to_string());
                    // `mod name;` declares an out-of-line module: no scope.
                    if self.peek_text(i + 2) == Some("{") {
                        self.scopes
                            .push(Scope { kind: ScopeKind::Mod(name), test: self.pending_test });
                        i += 3;
                    } else {
                        i += 2;
                    }
                    self.reset_pending();
                }
                "impl" | "trait" if t.kind == TokKind::Ident => {
                    i = self.item_with_self_type(i, t.text == "trait");
                }
                "fn" if t.kind == TokKind::Ident => {
                    i = self.fn_item(i);
                }
                "{" => {
                    self.scopes.push(Scope { kind: ScopeKind::Block, test: false });
                    self.reset_pending();
                    i += 1;
                }
                "}" => {
                    self.close_scope(t.line, i);
                    self.reset_pending();
                    i += 1;
                }
                ";" => {
                    self.reset_pending();
                    i += 1;
                }
                // Any other item keyword consumes the pending flags so a
                // stray `pub struct` cannot leak onto the next fn.
                "struct" | "enum" | "union" | "use" | "static" | "type" | "const"
                    if t.kind == TokKind::Ident =>
                {
                    self.reset_pending();
                    i += 1;
                }
                _ => i += 1,
            }
        }
        // EOF with open scopes (mutated / truncated input): close them
        // all so every fn still gets a well-formed range.
        let last_line = self.code.last().map(|t| t.line).unwrap_or(1);
        let end = self.code.len();
        while !self.scopes.is_empty() {
            self.close_scope(last_line, end);
        }
        self.items
    }

    fn peek_text(&self, i: usize) -> Option<&'a str> {
        self.code.get(i).map(|t| t.text)
    }

    fn peek_ident(&self, i: usize) -> Option<&'a str> {
        self.code.get(i).filter(|t| t.kind == TokKind::Ident).map(|t| t.text)
    }

    fn reset_pending(&mut self) {
        self.pending_pub = false;
        self.pending_test = false;
    }

    fn in_test_scope(&self) -> bool {
        self.scopes.iter().any(|s| s.test)
    }

    fn close_scope(&mut self, line: u32, token_idx: usize) {
        if let Some(scope) = self.scopes.pop() {
            if let ScopeKind::Fn(item) = scope.kind {
                if let Some(f) = self.items.get_mut(item) {
                    f.body.end = token_idx;
                    f.end_line = line;
                }
            }
        }
    }

    /// Current self type: the innermost `impl`/`trait` scope's type.
    fn self_type(&self) -> Option<String> {
        self.scopes.iter().rev().find_map(|s| match &s.kind {
            ScopeKind::SelfTyped(t) => Some(t.clone()),
            _ => None,
        })?
    }

    /// Qualification segments from the scope stack: mod names and
    /// enclosing fn names (nested fns qualify under their parent).
    fn path_segments(&self) -> Vec<String> {
        self.scopes
            .iter()
            .filter_map(|s| match &s.kind {
                ScopeKind::Mod(name) => Some(name.clone()),
                ScopeKind::Fn(item) => self.items.get(*item).map(|f| f.name.clone()),
                _ => None,
            })
            .collect()
    }

    /// Handles `impl ... {` and `trait Name {`: extracts the self type
    /// from the header and pushes a scope at the body brace. Returns
    /// the index after the brace (or past the header on `;`).
    fn item_with_self_type(&mut self, start: usize, is_trait: bool) -> usize {
        // Skip a leading generics block (`impl<T: Clone> ...`) so its
        // bounds can neither be mistaken for the self type nor for an
        // `impl Trait for Type` splitter (`for<'a>` HRTBs).
        let mut after_generics = start + 1;
        if self.peek_text(after_generics) == Some("<") {
            let mut depth = 0i32;
            while after_generics < self.code.len() {
                match self.code[after_generics].text {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            after_generics += 1;
                            break;
                        }
                    }
                    "{" | ";" => break, // recovery
                    _ => {}
                }
                after_generics += 1;
            }
        }
        let mut depth = 0i32;
        let mut j = after_generics;
        let mut for_at: Option<usize> = None;
        while j < self.code.len() {
            match self.code[j].text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "for" if depth == 0 && self.code[j].kind == TokKind::Ident => for_at = Some(j),
                "{" if depth <= 0 => break,
                ";" if depth <= 0 => {
                    self.reset_pending();
                    return j + 1;
                }
                "}" if depth <= 0 => {
                    // Recovery: a stray close before any body brace.
                    self.reset_pending();
                    return j;
                }
                _ => {}
            }
            j += 1;
        }
        let ty = if is_trait {
            self.peek_ident(start + 1).map(str::to_string)
        } else {
            // `impl [<..>] Type {` or `impl [<..>] Trait for Type {`:
            // the self type is the path after `for` when present, else
            // the first path after the (optional) generics.
            let ty_start = for_at.map(|f| f + 1).unwrap_or(after_generics);
            self_type_name(self.code, ty_start, j)
        };
        self.scopes.push(Scope { kind: ScopeKind::SelfTyped(ty), test: self.pending_test });
        self.reset_pending();
        if j < self.code.len() {
            j + 1
        } else {
            j
        }
    }

    /// Handles `fn name ... { body }` (or `;` for trait declarations).
    /// Records the item and pushes a Fn scope at the body brace.
    /// Returns the index after the brace / semicolon.
    fn fn_item(&mut self, start: usize) -> usize {
        let line = self.code[start].line;
        let Some(name) = self.peek_ident(start + 1) else {
            self.reset_pending();
            return start + 1;
        };
        // Scan the signature to the body `{` or declaration `;` at
        // paren/bracket depth zero. `where` clauses and return types
        // contain no braces; closure bodies only appear after `{`.
        let mut depth = 0i32;
        let mut j = start + 2;
        while j < self.code.len() {
            match self.code[j].text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth <= 0 => break,
                ";" if depth <= 0 => break,
                "}" if depth <= 0 => break, // recovery: truncated signature
                _ => {}
            }
            j += 1;
        }
        let is_test = self.pending_test || self.in_test_scope();
        let is_pub = self.pending_pub;
        let self_type = self.self_type();
        let mut segments = vec![self.prefix.to_string()];
        segments.extend(self.path_segments());
        if let Some(t) = &self_type {
            segments.push(t.clone());
        }
        segments.push(name.to_string());
        let qualified = segments.join("::");
        self.reset_pending();

        let has_body = self.peek_text(j) == Some("{");
        let body_start = if has_body { j + 1 } else { j };
        let item_idx = self.items.len();
        self.items.push(FnItem {
            name: name.to_string(),
            qualified,
            self_type,
            is_pub,
            is_test,
            line,
            end_line: self.code.get(j).map(|t| t.line).unwrap_or(line),
            body: body_start..body_start,
        });
        if has_body {
            self.scopes.push(Scope { kind: ScopeKind::Fn(item_idx), test: is_test });
            j + 1
        } else if self.peek_text(j) == Some(";") {
            j + 1
        } else {
            j
        }
    }
}

/// Last path-segment identifier of a type between `start` and `end`,
/// skipping `&`/`mut`/`dyn` and stopping at generics: `crate::x::Bar<T>`
/// → `Bar`.
fn self_type_name(code: &[&Tok], start: usize, end: usize) -> Option<String> {
    let mut last: Option<&str> = None;
    let mut i = start;
    while i < end.min(code.len()) {
        let t = code[i];
        match t.text {
            "&" | "mut" | "dyn" => {}
            "<" | "where" => break,
            "::" => {}
            _ if t.kind == TokKind::Ident => last = Some(t.text),
            _ if t.kind == TokKind::Lifetime => {}
            _ => break,
        }
        i += 1;
    }
    last.map(str::to_string)
}

/// From the `[` at `open`, returns (index of the matching `]`, whether
/// the attribute marks test code: `#[test]`, `#[cfg(test)]` and
/// friends — `cfg(not(test))` does not count).
pub(crate) fn scan_attribute(code: &[&Tok], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut saw_test = false;
    let mut first_ident: Option<&str> = None;
    let mut i = open;
    while i < code.len() {
        match code[i].text {
            "[" | "(" | "{" => depth += 1,
            "]" | ")" | "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            }
            t if code[i].kind == TokKind::Ident => {
                if first_ident.is_none() {
                    first_ident = Some(t);
                }
                let negated = i >= 2 && code[i - 1].text == "(" && code[i - 2].text == "not";
                saw_test |= t == "test" && !negated;
            }
            _ => {}
        }
        i += 1;
    }
    let is_test = saw_test && matches!(first_ident, Some("test") | Some("cfg"));
    (i.min(code.len().saturating_sub(1)), is_test)
}

/// Skips a balanced `open`..`close` pair starting at `start` (which
/// must hold `open`); returns the index after the closer, or EOF.
fn skip_balanced(code: &[&Tok], start: usize, open: &str, close: &str) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < code.len() {
        if code[i].text == open {
            depth += 1;
        } else if code[i].text == close {
            depth -= 1;
            if depth <= 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnItem> {
        let toks = lex(src);
        let code: Vec<&Tok> = toks.iter().filter(|t| t.is_code()).collect();
        parse_items(&code, "x")
    }

    #[test]
    fn free_fns_and_visibility() {
        let items = parse(
            "pub fn serve(a: u32) -> u32 { a }\n\
             fn helper() {}\n\
             pub(crate) fn internal() {}\n",
        );
        let names: Vec<(&str, bool)> = items.iter().map(|f| (f.name.as_str(), f.is_pub)).collect();
        assert_eq!(names, vec![("serve", true), ("helper", false), ("internal", false)]);
        assert_eq!(items[0].qualified, "x::serve");
        assert_eq!(items[0].line, 1);
    }

    #[test]
    fn impl_methods_get_self_type() {
        let items = parse(
            "impl Foo {\n\
             pub fn a(&self) {}\n\
             fn b() {}\n\
             }\n\
             impl fmt::Display for Bar<T> {\n\
             fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }\n\
             }\n\
             impl<T: Clone> Baz<T> {\n\
             pub fn c(&self) {}\n\
             }\n",
        );
        let got: Vec<(&str, Option<&str>)> =
            items.iter().map(|f| (f.name.as_str(), f.self_type.as_deref())).collect();
        assert_eq!(
            got,
            vec![("a", Some("Foo")), ("b", Some("Foo")), ("fmt", Some("Bar")), ("c", Some("Baz"))]
        );
        assert_eq!(items[2].qualified, "x::Bar::fmt");
    }

    #[test]
    fn mods_qualify_and_cfg_test_propagates() {
        let items = parse(
            "mod inner {\n\
             pub fn deep() {}\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             fn helper() {}\n\
             #[test]\n\
             fn case() {}\n\
             }\n\
             fn outside() {}\n",
        );
        let got: Vec<(&str, bool)> =
            items.iter().map(|f| (f.qualified.as_str(), f.is_test)).collect();
        assert_eq!(
            got,
            vec![
                ("x::inner::deep", false),
                ("x::tests::helper", true),
                ("x::tests::case", true),
                ("x::outside", false),
            ]
        );
    }

    #[test]
    fn body_ranges_cover_bodies_and_nested_fns_nest() {
        let src = "fn outer() {\n\
                   let a = 1;\n\
                   fn inner() { let b = 2; }\n\
                   a\n\
                   }\n";
        let items = parse(src);
        assert_eq!(items.len(), 2);
        let outer = &items[0];
        let inner = &items[1];
        assert_eq!(inner.qualified, "x::outer::inner");
        assert!(outer.body.start < inner.body.start && inner.body.end <= outer.body.end);
        assert_eq!(outer.end_line, 5);
        assert_eq!(inner.end_line, 3);
    }

    #[test]
    fn trait_decls_and_default_bodies() {
        let items = parse(
            "pub trait Node {\n\
             fn id(&self) -> usize;\n\
             fn label(&self) -> String { String::new() }\n\
             }\n",
        );
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "id");
        assert!(items[0].body.is_empty(), "bodiless declaration has an empty range");
        assert_eq!(items[1].self_type.as_deref(), Some("Node"));
        assert!(!items[1].body.is_empty());
    }

    #[test]
    fn modifiers_do_not_drop_pub() {
        let items = parse("pub async fn a() {}\npub const fn b() {}\npub unsafe fn c() {}\n");
        assert!(items.iter().all(|f| f.is_pub), "{items:?}");
    }

    #[test]
    fn const_items_and_structs_reset_pending_flags() {
        let items = parse(
            "pub struct S { x: u32 }\n\
             const N: usize = { 4 };\n\
             fn private_after() {}\n",
        );
        assert_eq!(items.len(), 1);
        assert!(!items[0].is_pub, "struct's pub must not leak onto the fn");
    }

    #[test]
    fn unbalanced_input_recovers() {
        // Truncated file: open braces at EOF still produce an item with
        // an in-bounds range.
        let items = parse("pub fn cut_off(a: u32) {\nlet x = a;\n");
        assert_eq!(items.len(), 1);
        assert!(items[0].body.end >= items[0].body.start);
        // Stray closers parse without panicking.
        let items = parse("}}}} fn after() {}");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "after");
    }
}
