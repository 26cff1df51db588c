//! Item-level parsing over the flat token stream: functions (with body
//! spans, owning `impl` type and return type) and structs (named-field
//! or not).
//!
//! This is the symbol layer `exhaustive-destructure` and the `merge*`
//! body spans of `float-accumulation-in-merge` (DESIGN.md §14) stand
//! on. It is **not** a Rust grammar: it recognizes exactly the item
//! shapes the rules need, with a scope stack over brace tokens, and it
//! degrades gracefully — anything it cannot shape-match is simply not
//! an item, which the rule layer treats as *opaque* (no finding, never
//! a false one). The stated parsing assumptions:
//!
//! * `{` never appears inside a `fn` signature before the body (no
//!   const-generic brace expressions in signatures in this workspace);
//! * generic angle brackets are balanced, counting the maximal-munch
//!   `<<`/`>>` tokens as two each;
//! * closures are not items — their tokens belong to the enclosing
//!   function.

use crate::lexer::{Token, TokenKind};

/// A `fn` item: free function, inherent/trait method, or bodiless
/// trait-method declaration.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name (raw identifiers keep their `r#`).
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// Token-index span `(open, close)` of the body braces in the
    /// comment-free token stream; `None` for bodiless declarations.
    pub body: Option<(usize, usize)>,
    /// Last path segment of the `impl` (or `trait`) target this fn
    /// sits in, e.g. `WorldStats` for `impl WorldStats { fn merge … }`.
    pub owner: Option<String>,
    /// Last segment of the leading return-type path (`WorldFingerprint`
    /// for `-> runtime::WorldFingerprint`, `Result` for
    /// `-> Result<X, E>`); `None` when the fn returns `()`.
    pub ret: Option<String>,
}

/// A `struct` item.
#[derive(Clone, Debug)]
pub struct StructItem {
    pub name: String,
    /// `true` for `struct S { … }`, `false` for tuple/unit structs.
    pub named_fields: bool,
}

/// Everything item-shaped in one file.
#[derive(Clone, Debug, Default)]
pub struct ItemIndex {
    pub fns: Vec<FnItem>,
    pub structs: Vec<StructItem>,
}

/// What kind of scope a `{` opened, so `}` can close it precisely.
enum Scope {
    Impl(String),
    Fn(usize),
    Other,
}

/// Angle-bracket depth delta of a punct token (`<<`/`>>` are single
/// maximal-munch tokens worth two).
fn angle_delta(text: &str) -> i32 {
    match text {
        "<" => 1,
        "<<" => 2,
        ">" => -1,
        ">>" => -2,
        _ => 0,
    }
}

/// Parses the comment-free token stream `code` of `src` into items.
/// Never panics on malformed input; unrecognized shapes are skipped.
pub fn parse(src: &str, code: &[Token]) -> ItemIndex {
    let text = |i: usize| code.get(i).map(|t| t.text(src)).unwrap_or("");
    let is_ident = |i: usize| code.get(i).is_some_and(|t| t.kind == TokenKind::Ident);

    let mut idx = ItemIndex::default();
    let mut stack: Vec<Scope> = Vec::new();
    let mut i = 0usize;

    while i < code.len() {
        match text(i) {
            "impl" if is_ident(i) => {
                if let Some((target, open)) = parse_impl_header(src, code, i) {
                    stack.push(Scope::Impl(target));
                    i = open + 1;
                    continue;
                }
            }
            "trait" if is_ident(i) && is_ident(i + 1) => {
                // Treat the trait body like an impl: default methods get
                // the trait name as owner.
                let name = text(i + 1).to_string();
                let mut j = i + 2;
                while j < code.len() && text(j) != "{" && text(j) != ";" {
                    j += 1;
                }
                if j < code.len() && text(j) == "{" {
                    stack.push(Scope::Impl(name));
                    i = j + 1;
                    continue;
                }
                i = j + 1;
                continue;
            }
            "fn" if is_ident(i) && is_ident(i + 1) => {
                let owner = stack.iter().rev().find_map(|s| match s {
                    Scope::Impl(t) => Some(t.clone()),
                    _ => None,
                });
                let (item, body_open) = parse_fn_sig(src, code, i, owner);
                let fn_id = idx.fns.len();
                idx.fns.push(item);
                match body_open {
                    Some(open) => {
                        stack.push(Scope::Fn(fn_id));
                        i = open + 1;
                    }
                    None => {
                        // Bodiless declaration: resume after the `;`.
                        let mut j = i + 2;
                        while j < code.len() && text(j) != ";" && text(j) != "{" {
                            j += 1;
                        }
                        i = j + 1;
                    }
                }
                continue;
            }
            "struct" if is_ident(i) && is_ident(i + 1) => {
                let next = parse_struct(src, code, i, &mut idx);
                i = next;
                continue;
            }
            "{" => stack.push(Scope::Other),
            "}" => {
                if let Some(Scope::Fn(fn_id)) = stack.pop() {
                    // The open index is recovered from the recorded
                    // placeholder; close it here.
                    if let Some((open, _)) = idx.fns[fn_id].body {
                        idx.fns[fn_id].body = Some((open, i));
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }

    // Unterminated bodies (malformed input) extend to the last token.
    let last = code.len().saturating_sub(1);
    for f in &mut idx.fns {
        if let Some((open, close)) = f.body {
            if close == usize::MAX {
                f.body = Some((open, last));
            }
        }
    }
    idx
}

/// Parses from the `impl` token to the body `{`, returning the target
/// type's last path segment and the open-brace index. For
/// `impl Trait for Type`, the target is `Type`.
fn parse_impl_header(src: &str, code: &[Token], i: usize) -> Option<(String, usize)> {
    let text = |j: usize| code.get(j).map(|t| t.text(src)).unwrap_or("");
    let mut angle = 0i32;
    let mut last_ident: Option<String> = None;
    let mut j = i + 1;
    while j < code.len() {
        let t = text(j);
        angle += angle_delta(t);
        if angle == 0 {
            match t {
                "{" => return last_ident.map(|n| (n, j)),
                ";" => return None,
                "for" => last_ident = None,
                "where" => {}
                _ if code[j].kind == TokenKind::Ident
                    && !matches!(t, "dyn" | "mut" | "const" | "unsafe" | "async") =>
                {
                    last_ident = Some(t.to_string());
                }
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// Parses a `fn` signature starting at the `fn` token: returns the
/// item (body open recorded with a `usize::MAX` close placeholder) and
/// the body-open token index, or `None` for bodiless declarations.
fn parse_fn_sig(
    src: &str,
    code: &[Token],
    i: usize,
    owner: Option<String>,
) -> (FnItem, Option<usize>) {
    let text = |j: usize| code.get(j).map(|t| t.text(src)).unwrap_or("");
    let name_tok = &code[i + 1];
    let mut j = i + 2;
    let mut paren = 0i32;
    let mut ret_at: Option<usize> = None;
    while j < code.len() {
        match text(j) {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "->" if paren == 0 && ret_at.is_none() => ret_at = Some(j + 1),
            "{" if paren == 0 => break,
            ";" if paren == 0 => break,
            _ => {}
        }
        j += 1;
    }
    let body_open = (j < code.len() && text(j) == "{").then_some(j);
    let ret = ret_at.and_then(|r| leading_path_last_segment(src, code, r, j));
    let item = FnItem {
        name: name_tok.text(src).to_string(),
        line: name_tok.line,
        col: name_tok.col,
        body: body_open.map(|open| (open, usize::MAX)),
        owner,
        ret,
    };
    (item, body_open)
}

/// Last segment of the path starting at `from` (stopping before
/// `until`), skipping reference/lifetime/`dyn`/`impl`/`mut` prefixes:
/// `&'a mut runtime::WorldFingerprint` → `WorldFingerprint`.
fn leading_path_last_segment(
    src: &str,
    code: &[Token],
    from: usize,
    until: usize,
) -> Option<String> {
    let text = |j: usize| code.get(j).map(|t| t.text(src)).unwrap_or("");
    let mut j = from;
    while j < until
        && (matches!(text(j), "&" | "dyn" | "impl" | "mut")
            || code.get(j).is_some_and(|t| t.kind == TokenKind::Lifetime))
    {
        j += 1;
    }
    let mut last: Option<String> = None;
    while j < until && code.get(j).is_some_and(|t| t.kind == TokenKind::Ident) {
        last = Some(text(j).to_string());
        if text(j + 1) == "::" {
            j += 2;
        } else {
            break;
        }
    }
    last
}

/// Parses a `struct` item starting at the `struct` token; records it
/// and returns the token index to resume scanning from. Named-field
/// bodies are skipped here (the scope stack never sees their braces).
fn parse_struct(src: &str, code: &[Token], i: usize, idx: &mut ItemIndex) -> usize {
    let text = |j: usize| code.get(j).map(|t| t.text(src)).unwrap_or("");
    let name = text(i + 1).to_string();
    // Skip generics/where to the body opener.
    let mut j = i + 2;
    let mut angle = 0i32;
    while j < code.len() {
        let t = text(j);
        angle += angle_delta(t);
        if angle == 0 && matches!(t, "{" | "(" | ";") {
            break;
        }
        j += 1;
    }
    if j >= code.len() || text(j) != "{" {
        // Tuple or unit struct: no named fields; resume right here (the
        // paren group carries no item syntax).
        idx.structs.push(StructItem {
            name,
            named_fields: false,
        });
        return j;
    }
    // Named fields: skip to the matching close brace.
    let mut depth = 0i32;
    let mut k = j;
    while k < code.len() {
        match text(k) {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        k += 1;
    }
    idx.structs.push(StructItem {
        name,
        named_fields: true,
    });
    k + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::code_tokens;

    fn items(src: &str) -> ItemIndex {
        parse(src, &code_tokens(src))
    }

    #[test]
    fn fns_with_owner_and_ret() {
        let src = "\
mod outer {
    struct S { a: u64, b: f64 }
    impl S {
        fn merge(&mut self, o: &S) -> u64 { o.a }
        fn bare(&self);
    }
    fn free() -> Vec<u32> { Vec::new() }
}
fn top() {}
";
        let idx = items(src);
        let names: Vec<(&str, Option<&str>)> = idx
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("merge", Some("S")),
                ("bare", Some("S")),
                ("free", None),
                ("top", None)
            ]
        );
        assert_eq!(idx.fns[0].ret.as_deref(), Some("u64"));
        assert_eq!(idx.fns[1].body, None);
        assert_eq!(idx.fns[2].ret.as_deref(), Some("Vec"));
        assert_eq!(idx.structs.len(), 1);
        assert!(idx.structs[0].named_fields);
    }

    #[test]
    fn impl_trait_for_type_targets_the_type() {
        let src = "\
impl<T: Ord> fmt::Display for Wrapper<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }
}
impl Plain { fn go(&self) {} }
trait Seam { fn hook(&self) { helper(); } }
";
        let idx = items(src);
        assert_eq!(idx.fns[0].owner.as_deref(), Some("Wrapper"));
        assert_eq!(idx.fns[1].owner.as_deref(), Some("Plain"));
        assert_eq!(idx.fns[2].owner.as_deref(), Some("Seam"));
    }

    #[test]
    fn struct_shapes_handle_generics_and_tuples() {
        let src = "\
struct Soa<T> {
    pub bandwidth: Vec<u64>,
    map: BTreeMap<u64, Vec<T>>,
    pub(crate) live: bool,
}
struct Tup(u64, f64);
struct Unit;
";
        let idx = items(src);
        assert!(idx.structs[0].named_fields);
        assert!(!idx.structs[1].named_fields);
        assert!(!idx.structs[2].named_fields);
    }

    #[test]
    fn nested_fn_bodies_nest() {
        let idx = items("fn outer() { fn inner() { work(); } inner(); }");
        assert_eq!(idx.fns.len(), 2);
        let (Some((oa, ob)), Some((ia, ib))) = (idx.fns[0].body, idx.fns[1].body) else {
            panic!("both fns have bodies: {idx:?}");
        };
        assert!(oa < ia && ib < ob, "{idx:?}");
    }

    #[test]
    fn enum_bodies_and_match_blocks_do_not_confuse_the_stack() {
        let src = "\
enum E { A, B(u64), C { f: u64 } }
fn after(e: E) -> u64 {
    match e { E::A => 0, E::B(x) => x, E::C { f } => f }
}
";
        let idx = items(src);
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].name, "after");
        // `C { f: u64 }` is an enum variant, not a struct item.
        assert!(idx.structs.is_empty());
    }

    #[test]
    fn malformed_input_never_panics() {
        for src in [
            "fn broken( {",
            "impl {",
            "struct",
            "use ::;",
            "fn f() { {{{",
            "}",
            "impl X for {}",
        ] {
            items(src);
        }
    }
}
