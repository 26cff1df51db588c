//! `exhaustive-destructure` (DESIGN.md §14): `fn merge*` / `fn export*`
//! / fingerprint constructors over workspace structs must bind fields
//! through an exhaustive `Self { … }` pattern or literal with no `..`
//! rest.
//!
//! The rule is workspace-wide only in its struct lookup: a function's
//! struct is found in its own crate first, then by a workspace-unique
//! name. Anything that does not resolve — a tuple struct, a foreign
//! type, a name defined twice — is opaque and never fires.

use std::collections::BTreeMap;

use crate::items::ItemIndex;
use crate::lexer::{Token, TokenKind};
use crate::rules::{RawFinding, Rule};

/// One file's view into the workspace analysis.
pub struct FileView<'a> {
    /// Cargo package name ([`crate::policy::classify`]).
    pub krate: &'a str,
    pub src: &'a str,
    /// Comment-free token stream.
    pub code: &'a [Token],
    pub items: &'a ItemIndex,
}

/// Runs the rule over the workspace files and returns `(file index, raw
/// finding)` pairs for the engine to scope and suppress like any
/// token-level finding.
pub fn analyze(files: &[FileView<'_>]) -> Vec<(usize, RawFinding)> {
    // struct name → every (file index, struct index) defining it.
    let mut struct_by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (si, s) in file.items.structs.iter().enumerate() {
            struct_by_name.entry(&s.name).or_default().push((fi, si));
        }
    }
    // Whether the workspace struct `name` visible from `krate` (same-crate
    // definition first, then a workspace-unique one) has named fields.
    let named_struct = |krate: &str, name: &str| -> bool {
        let Some(defs) = struct_by_name.get(name) else {
            return false;
        };
        let same_crate: Vec<_> = defs
            .iter()
            .filter(|(fi, _)| files[*fi].krate == krate)
            .collect();
        let (fi, si) = match same_crate.as_slice() {
            [one] => **one,
            [] if defs.len() == 1 => defs[0],
            _ => return false, // ambiguous: opaque
        };
        files[fi].items.structs[si].named_fields
    };

    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for f in &file.items.fns {
            let is_merge_like = f.name.starts_with("merge") || f.name.starts_with("export");
            let is_fingerprint = f.name.starts_with("fingerprint");
            if !is_merge_like && !is_fingerprint {
                continue;
            }
            let Some((open, close)) = f.body else {
                continue;
            };
            // The struct whose fields must all be bound: the impl
            // target for merge/export, the impl target or the return
            // type for fingerprint constructors.
            let candidates: Vec<&str> = if is_merge_like {
                f.owner.as_deref().into_iter().collect()
            } else {
                f.owner
                    .as_deref()
                    .into_iter()
                    .chain(f.ret.as_deref())
                    .collect()
            };
            let Some(struct_name) = candidates
                .iter()
                .copied()
                .find(|n| named_struct(file.krate, n))
            else {
                continue; // tuple struct, foreign type, plain value: opaque
            };
            match scan_destructure(file.src, file.code, open, close, struct_name) {
                DestructureState::Exhaustive => {}
                DestructureState::Missing => out.push((
                    fi,
                    RawFinding {
                        rule: Rule::ExhaustiveDestructure,
                        line: f.line,
                        col: f.col,
                        detail: Some(format!(
                            "`{}` over struct `{struct_name}` never binds its fields with \
                             `let Self {{ … }}`, so a new field silently escapes the \
                             merge/export/fingerprint path",
                            f.name,
                        )),
                    },
                )),
                DestructureState::RestPattern(line, col) => out.push((
                    fi,
                    RawFinding {
                        rule: Rule::ExhaustiveDestructure,
                        line,
                        col,
                        detail: Some(format!(
                            "`..` rest pattern in `{}` defeats exhaustiveness over \
                             `{struct_name}`: a new field no longer breaks the build here",
                            f.name,
                        )),
                    },
                )),
            }
        }
    }
    out
}

enum DestructureState {
    Exhaustive,
    Missing,
    /// Line/col of the offending `..`.
    RestPattern(u32, u32),
}

/// Scans a fn body for `Self { … }` / `Name { … }` groups and decides
/// whether at least one is an exhaustive binding. `..` counts as a rest
/// pattern only at the group's top nesting level and only in pattern
/// position (after `{` or `,`), so ranges like `(0..n)` inside field
/// expressions stay invisible.
fn scan_destructure(
    src: &str,
    code: &[Token],
    open: usize,
    close: usize,
    struct_name: &str,
) -> DestructureState {
    let text = |i: usize| code.get(i).map(|t| t.text(src)).unwrap_or("");
    let mut first_rest: Option<(u32, u32)> = None;
    let mut i = open + 1;
    while i < close {
        let w = text(i);
        if code[i].kind == TokenKind::Ident
            && (w == "Self" || w == struct_name)
            && text(i + 1) == "{"
        {
            let gopen = i + 1;
            let mut depth = 0i32;
            let mut rest: Option<(u32, u32)> = None;
            let mut j = gopen;
            while j <= close {
                match text(j) {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    ".." | "..="
                        if depth == 1 && rest.is_none() && matches!(text(j - 1), "{" | ",") =>
                    {
                        rest = Some((code[j].line, code[j].col));
                    }
                    _ => {}
                }
                j += 1;
            }
            match rest {
                None => return DestructureState::Exhaustive,
                Some(at) => {
                    first_rest.get_or_insert(at);
                    i = j;
                }
            }
        }
        i += 1;
    }
    match first_rest {
        Some((line, col)) => DestructureState::RestPattern(line, col),
        None => DestructureState::Missing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use crate::lexer::code_tokens;

    /// Runs the rule over one `crates/simstats` file.
    fn run(src: &str) -> Vec<(usize, Rule, u32)> {
        let code = code_tokens(src);
        let items = items::parse(src, &code);
        let view = FileView {
            krate: "simstats",
            src,
            code: &code,
            items: &items,
        };
        analyze(&[view])
            .into_iter()
            .map(|(fi, f)| (fi, f.rule, f.line))
            .collect()
    }

    #[test]
    fn merge_without_destructure_fires_on_the_fn_line() {
        let got = run("\
pub struct Agg { total: u64, count: u64 }
impl Agg {
    pub fn merge(&mut self, other: &Agg) {
        self.total += other.total;
        self.count += other.count;
    }
}
");
        assert_eq!(got, vec![(0, Rule::ExhaustiveDestructure, 3)]);
    }

    #[test]
    fn destructured_merge_is_clean_and_ranges_are_not_rest_patterns() {
        let got = run("\
pub struct Agg { total: u64, count: u64 }
impl Agg {
    pub fn merge(&mut self, other: &Agg) {
        let Agg { total, count } = *other;
        self.total += total;
        self.count += count;
    }
}
pub struct Fp { ids: Vec<u64> }
pub fn fingerprint(n: u64) -> Fp {
    Fp { ids: (0..n).collect() }
}
");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn rest_pattern_fires_on_the_dotdot_line() {
        let got = run("\
pub struct Agg { total: u64, count: u64 }
impl Agg {
    pub fn merge(&mut self, other: &Agg) {
        let Agg { total, .. } = *other;
        self.total += total;
    }
}
");
        assert_eq!(got, vec![(0, Rule::ExhaustiveDestructure, 4)]);
    }

    #[test]
    fn tuple_and_foreign_structs_are_opaque() {
        let got = run("\
pub struct Pair(u64, u64);
impl Pair {
    pub fn merge(&mut self, other: &Pair) { self.0 += other.0; }
}
impl External {
    pub fn merge(&mut self, other: &External) { self.join(other); }
}
");
        assert!(got.is_empty(), "{got:?}");
    }
}
