//! Item/token-tree syntax model over stripped source.
//!
//! The lexical rules in [`crate::rules`] match patterns line by line; the
//! semantic packs in [`crate::semantic`] need *structure*: which `impl`
//! block a statement lives in, what a function's body calls, which field
//! chains it writes. This module supplies exactly that much syntax — a
//! tokenizer with matched delimiters and an item-level parser producing
//! per-file symbol tables ([`FileModel`]: structs with field names, fns
//! with impl context and body ranges) that aggregate into per-crate
//! models ([`CrateModel`]) with an intra-crate call graph.
//!
//! It is deliberately *not* a Rust parser: expressions are never built
//! into trees. Function bodies stay flat token slices, and the analysis
//! helpers ([`BodyFacts`]) extract the two shapes the rule packs
//! consume — call sites with receiver chains, and field-write chains
//! (walking assignment targets backwards through `.field`, `[index]` and
//! `.method()` links). Anything the flat model cannot see (writes through
//! a binding of a `&mut` projection, macro-generated code) is documented
//! as out of scope; the runtime auditor remains the backstop for those.

use std::collections::BTreeSet;

/// Token category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier, keyword, or numeric literal chunk.
    Ident,
    /// Single punctuation byte (operators are sequences of these).
    Punct,
    /// `(`, `[` or `{`.
    Open,
    /// `)`, `]` or `}`.
    Close,
}

/// One token of masked source.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// Token text (identifier text or the punctuation byte).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 0-based byte offset into the file (adjacency checks for fused
    /// operators like `+=` compare offsets).
    pub off: u32,
}

impl Tok {
    pub fn is(&self, s: &str) -> bool {
        self.text == s
    }

    /// Byte offset one past the token.
    fn end(&self) -> u32 {
        self.off + self.text.len() as u32
    }
}

/// Tokenizes masked source (comments/strings already blanked by
/// [`crate::lexer::strip`]). Returns the tokens plus a matching-delimiter
/// index: `match_idx[i]` is the partner of an `Open`/`Close` token at `i`
/// (or `i` itself for unmatched delimiters and non-delimiters, so jumps
/// on malformed input degrade to no-ops instead of panics).
pub fn tokenize(masked: &str) -> (Vec<Tok>, Vec<usize>) {
    let b = masked.as_bytes();
    let mut toks: Vec<Tok> = Vec::with_capacity(b.len() / 4);
    let mut line = 1u32;
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphanumeric() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: masked[start..i].to_string(),
                line,
                off: start as u32,
            });
            continue;
        }
        let kind = match c {
            b'(' | b'[' | b'{' => TokKind::Open,
            b')' | b']' | b'}' => TokKind::Close,
            _ => TokKind::Punct,
        };
        toks.push(Tok {
            kind,
            text: (c as char).to_string(),
            line,
            off: i as u32,
        });
        i += 1;
    }

    let mut match_idx: Vec<usize> = (0..toks.len()).collect();
    let mut stack: Vec<(usize, u8)> = Vec::new();
    for (idx, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Open => stack.push((idx, t.text.as_bytes()[0])),
            TokKind::Close => {
                let want = match t.text.as_bytes()[0] {
                    b')' => b'(',
                    b']' => b'[',
                    _ => b'{',
                };
                // Pop through mismatched opens (malformed input from a
                // half-edited file) rather than corrupting the pairing.
                while let Some((oi, oc)) = stack.pop() {
                    if oc == want {
                        match_idx[oi] = idx;
                        match_idx[idx] = oi;
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    (toks, match_idx)
}

/// A `struct` item with its named fields (tuple and unit structs record
/// an empty field list).
#[derive(Debug, Clone)]
pub struct StructItem {
    pub name: String,
    pub fields: Vec<String>,
    pub line: u32,
}

/// A `fn` item with enough context for the semantic packs.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Self type of the enclosing `impl` block, if any.
    pub impl_type: Option<String>,
    pub line: u32,
    /// Token indices of the body's `{` and `}` (absent for trait method
    /// declarations and extern fns).
    pub body: Option<(usize, usize)>,
    /// Inside `#[cfg(test)]` / `#[test]` scope (or a `tests/` file —
    /// callers overlay path knowledge).
    pub in_test: bool,
}

/// Per-file symbol table: the token stream plus every struct and fn.
#[derive(Debug)]
pub struct FileModel {
    /// Repo-relative `/`-separated path.
    pub path: String,
    pub toks: Vec<Tok>,
    pub match_idx: Vec<usize>,
    pub structs: Vec<StructItem>,
    pub fns: Vec<FnItem>,
}

/// All files of one crate (keyed by path prefix), forming the unit the
/// intra-crate call graph is resolved over.
#[derive(Debug)]
pub struct CrateModel {
    /// Path prefix identifying the crate (e.g. `crates/simdfs`).
    pub root: String,
    pub files: Vec<FileModel>,
}

impl CrateModel {
    /// Looks up a struct by name anywhere in the crate.
    pub fn find_struct(&self, name: &str) -> Option<&StructItem> {
        self.files
            .iter()
            .flat_map(|f| f.structs.iter())
            .find(|s| s.name == name)
    }

    /// Whether `fn_name` (restricted to `impl impl_type` when given)
    /// reaches any of `targets` through same-crate calls, following
    /// `self.`/bare-call edges up to `depth` hops. The walk is
    /// conservative: calls it cannot resolve are ignored, so an
    /// unreachable verdict may be a resolution gap — rules treat that as
    /// a finding to pragma-document, never as silent acceptance.
    pub fn reaches(
        &self,
        impl_type: Option<&str>,
        fn_name: &str,
        targets: &BTreeSet<&str>,
        depth: usize,
    ) -> bool {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut frontier: Vec<String> = vec![fn_name.to_string()];
        for _ in 0..=depth {
            let mut next = Vec::new();
            for name in frontier.drain(..) {
                if targets.contains(name.as_str()) {
                    return true;
                }
                if !seen.insert(name.clone()) {
                    continue;
                }
                for f in &self.files {
                    for func in &f.fns {
                        if func.name != name {
                            continue;
                        }
                        if let (Some(want), Some(have)) = (impl_type, func.impl_type.as_deref()) {
                            if want != have {
                                continue;
                            }
                        }
                        let Some((open, close)) = func.body else {
                            continue;
                        };
                        let facts = BodyFacts::extract(f, open, close);
                        for call in &facts.calls {
                            let local = call.segs.len() == 1
                                || call.segs.first().map(String::as_str) == Some("self");
                            if local {
                                next.push(call.segs.last().expect("call has a name").clone());
                            }
                        }
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            frontier = next;
        }
        false
    }
}

/// A field/method access chain, root first: `self.cluster.storage
/// .get_mut(&id).unwrap().volumes[0].used += 1` becomes
/// `[self, cluster, storage, get_mut, unwrap, volumes, used]` with
/// `op = "+="`. Index expressions contribute no segment.
#[derive(Debug, Clone)]
pub struct Chain {
    pub segs: Vec<String>,
    /// `=`, compound assignment, or the mutating method name.
    pub op: String,
    pub line: u32,
}

impl Chain {
    /// Whether `a` appears in the chain with `b` somewhere after it.
    pub fn has_pair(&self, a: &str, b: &str) -> bool {
        self.segs
            .iter()
            .position(|s| s == a)
            .is_some_and(|i| self.segs[i + 1..].iter().any(|s| s == b))
    }

    /// Whether the chain ends with a write to field `f` (assignment ops
    /// only, not mutating method calls).
    pub fn writes_field(&self, f: &str) -> bool {
        self.op.ends_with('=') && self.segs.last().is_some_and(|s| s == f)
    }
}

/// Container/entry methods treated as mutable access when they terminate
/// a chain (writes *through* them are invisible to the flat model, so the
/// access itself is the auditable event).
const MUT_METHODS: &[&str] = &[
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "clear",
    "drain",
    "retain",
    "swap_remove",
    "truncate",
    "extend",
    "entry",
    "take",
    "replace",
    "push_front",
    "push_back",
    "pop_front",
    "pop_back",
];

/// Keywords never recorded as call names.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "fn",
    "pub", "impl", "struct", "enum", "trait", "mod", "use", "crate", "super", "where", "as", "in",
    "ref", "mut", "move", "dyn", "unsafe", "async", "await", "const", "static", "type",
];

/// Facts extracted from one fn body's token slice.
#[derive(Debug, Default)]
pub struct BodyFacts {
    /// Call sites, each with its receiver chain (last segment is the
    /// callee name; bare calls have a single segment).
    pub calls: Vec<Chain>,
    /// Field-write chains (`=` and compound assignments) plus chains
    /// ending in a mutating container method.
    pub chains: Vec<Chain>,
}

impl BodyFacts {
    /// Extracts facts from the body delimited by token indices
    /// `(open, close)` (the `{`/`}` pair of [`FnItem::body`]).
    pub fn extract(file: &FileModel, open: usize, close: usize) -> BodyFacts {
        let toks = &file.toks;
        let mut facts = BodyFacts::default();
        let mut i = open + 1;
        while i < close {
            let t = &toks[i];
            if t.kind == TokKind::Ident {
                // Call site: ident directly followed by `(` (methods are
                // distinguished by a preceding `.`).
                if toks
                    .get(i + 1)
                    .is_some_and(|n| n.is("(") && n.kind == TokKind::Open)
                    && !KEYWORDS.contains(&t.text.as_str())
                {
                    let mut segs = walk_chain_back(toks, file, i.saturating_sub(1), open);
                    segs.push(t.text.clone());
                    if MUT_METHODS.contains(&t.text.as_str()) && segs.len() > 1 {
                        facts.chains.push(Chain {
                            segs: segs.clone(),
                            op: t.text.clone(),
                            line: t.line,
                        });
                    }
                    facts.calls.push(Chain {
                        segs,
                        op: t.text.clone(),
                        line: t.line,
                    });
                }
            } else if t.kind == TokKind::Punct
                && is_write_op(toks, i)
                && !is_let_init(file, i, open)
            {
                let op = write_op_text(toks, i);
                let start = if op == "=" { i } else { i - 1 };
                let segs = walk_chain_back(toks, file, start.saturating_sub(1), open);
                if !segs.is_empty() {
                    facts.chains.push(Chain {
                        segs,
                        op,
                        line: t.line,
                    });
                }
            }
            i += 1;
        }
        facts
    }
}

/// Whether the punct at `i` is the `=` of an assignment (plain or the
/// tail of a fused compound operator). `==`, `!=`, `<=`, `>=`, `=>` and
/// `..=` are excluded; `<<=`/`>>=` are not recognized (shift-assignment
/// does not occur in the audited state paths).
fn is_write_op(toks: &[Tok], i: usize) -> bool {
    if !toks[i].is("=") {
        return false;
    }
    // `==` / `=>` (look right, adjacency required for fusion).
    if let Some(n) = toks.get(i + 1) {
        if (n.is("=") || n.is(">")) && n.off == toks[i].end() {
            return false;
        }
    }
    // Fused left neighbor decides comparison vs compound assignment.
    if i > 0 && toks[i - 1].kind == TokKind::Punct && toks[i - 1].end() == toks[i].off {
        let p = toks[i - 1].text.as_bytes()[0];
        return matches!(p, b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^');
    }
    true
}

/// Whether the write op at `i` initializes a `let` binding (`let x =`,
/// `let mut x: T =`): an initialization, not a mutation of existing
/// state. Scans back to the statement boundary, hopping over delimiter
/// groups so a `let` inside a nested index expression is not mistaken
/// for the statement's own.
fn is_let_init(file: &FileModel, op: usize, floor: usize) -> bool {
    let toks = &file.toks;
    let mut j = op;
    while j > floor {
        j -= 1;
        match toks[j].kind {
            TokKind::Close => {
                let o = file.match_idx[j];
                if o < j {
                    j = o;
                }
            }
            TokKind::Open => return false, // statement starts inside this group
            TokKind::Punct if toks[j].is(";") => return false,
            TokKind::Ident if toks[j].is("let") => return true,
            _ => {}
        }
    }
    false
}

/// The operator text for a write op at `i` (`=` or e.g. `+=`).
fn write_op_text(toks: &[Tok], i: usize) -> String {
    if i > 0 && toks[i - 1].kind == TokKind::Punct && toks[i - 1].end() == toks[i].off {
        let p = toks[i - 1].text.as_bytes()[0];
        if matches!(p, b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^') {
            return format!("{}=", p as char);
        }
    }
    "=".to_string()
}

/// Walks an access chain backwards from token index `from` (inclusive),
/// collecting identifier segments through `.field`, `.method(...)` and
/// `[index]` links until the chain root. Returns segments root-first.
/// `floor` bounds the walk to the current body.
fn walk_chain_back(toks: &[Tok], file: &FileModel, mut from: usize, floor: usize) -> Vec<String> {
    let mut rev: Vec<String> = Vec::new();
    loop {
        if from <= floor {
            break;
        }
        let t = &toks[from];
        match t.kind {
            TokKind::Punct if t.is(".") && from > floor => {
                from -= 1;
                continue;
            }
            TokKind::Ident => {
                rev.push(t.text.clone());
                // Continue only through a `.` link.
                if from >= 1 && toks[from - 1].is(".") {
                    from -= 2;
                    // Tuple-index links (`pair.0.used`): the numeric
                    // segment was just pushed; nothing special needed.
                    continue;
                }
                break;
            }
            TokKind::Close => {
                // `)` of a call or `]` of an index: jump to the matching
                // open and look at what precedes it.
                let o = file.match_idx[from];
                if o >= from || o <= floor {
                    break;
                }
                if t.is("]") {
                    // Index expression: contributes no segment.
                    from = o - 1;
                    continue;
                }
                // Call arguments: the callee ident sits before the open.
                from = o.saturating_sub(1);
                continue;
            }
            _ => break,
        }
    }
    rev.reverse();
    rev
}

/// Parses one masked file into a [`FileModel`].
pub fn parse_file(path: &str, masked: &str) -> FileModel {
    let (toks, match_idx) = tokenize(masked);
    let mut model = FileModel {
        path: path.to_string(),
        toks,
        match_idx,
        structs: Vec::new(),
        fns: Vec::new(),
    };
    let in_tests_dir = path.contains("/tests/") || path.starts_with("tests/");
    let end = model.toks.len();
    walk_items(&mut model, 0, end, None, in_tests_dir);
    model
}

/// Item-level walk of `toks[range]`. Descends into `impl` and `mod`
/// blocks; fn bodies are recorded but not descended into (nested fns
/// fold into their parent's body facts).
fn walk_items(
    model: &mut FileModel,
    mut i: usize,
    end: usize,
    impl_type: Option<&str>,
    in_test: bool,
) {
    let mut attr_test = false;
    while i < end {
        let (kind, text, line) = {
            let t = &model.toks[i];
            (t.kind, t.text.clone(), t.line)
        };
        // Attributes: `#[...]` — note test markers, then skip.
        if kind == TokKind::Punct && text == "#" {
            if let Some(open) = model
                .toks
                .get(i + 1)
                .filter(|t| t.is("[") && t.kind == TokKind::Open)
                .map(|_| i + 1)
            {
                let close = model.match_idx[open];
                if close > open {
                    attr_test |= model.toks[open..close].iter().any(|t| t.is("test"));
                    i = close + 1;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        if kind != TokKind::Ident {
            // `!` after an ident was already consumed with the item scan;
            // stray puncts at item level are separators.
            if kind == TokKind::Open {
                // A brace we did not classify (e.g. trait body we skip):
                // jump over it wholesale.
                i = model.match_idx[i].max(i) + 1;
                attr_test = false;
                continue;
            }
            i += 1;
            continue;
        }
        match text.as_str() {
            "fn" => {
                let name = match model.toks.get(i + 1) {
                    Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                // Scan for the body `{` or a `;`, hopping over any
                // parenthesized/bracketed groups (argument lists, array
                // types); `{` cannot occur inside them at item level.
                let mut j = i + 2;
                let mut body = None;
                while j < end {
                    match model.toks[j].kind {
                        TokKind::Open if model.toks[j].is("{") => {
                            body = Some((j, model.match_idx[j]));
                            break;
                        }
                        TokKind::Open => {
                            j = model.match_idx[j].max(j) + 1;
                        }
                        TokKind::Punct if model.toks[j].is(";") => break,
                        _ => j += 1,
                    }
                }
                model.fns.push(FnItem {
                    name,
                    impl_type: impl_type.map(str::to_string),
                    line,
                    body,
                    in_test: in_test || attr_test,
                });
                i = match body {
                    Some((_, c)) if c > i => c + 1,
                    _ => j + 1,
                };
                attr_test = false;
            }
            "impl" => {
                // Optional generics after `impl`: skip a balanced `<...>`
                // run (no braces occur inside item-level generics).
                let mut j = i + 1;
                if model.toks.get(j).is_some_and(|t| t.is("<")) {
                    let mut angle = 0i32;
                    while j < end {
                        if model.toks[j].is("<") {
                            angle += 1;
                        } else if model.toks[j].is(">") {
                            angle -= 1;
                            if angle == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                }
                // Collect the header up to `{`; the self type is the
                // last path segment before any generic args, taken from
                // the `for` side when present.
                let mut hdr_end = j;
                while hdr_end < end && !model.toks[hdr_end].is("{") {
                    if model.toks[hdr_end].kind == TokKind::Open {
                        hdr_end = model.match_idx[hdr_end].max(hdr_end);
                    }
                    hdr_end += 1;
                }
                let hdr: Vec<usize> = (j..hdr_end).collect();
                let after_for = hdr
                    .iter()
                    .position(|&k| model.toks[k].is("for"))
                    .map(|p| p + 1)
                    .unwrap_or(0);
                let mut self_ty: Option<String> = None;
                for &k in &hdr[after_for..] {
                    let t = &model.toks[k];
                    if t.is("<") || t.is("where") {
                        break;
                    }
                    if t.kind == TokKind::Ident
                        && !matches!(t.text.as_str(), "dyn" | "mut" | "for" | "crate" | "super")
                    {
                        self_ty = Some(t.text.clone());
                    }
                }
                if hdr_end < end && model.toks[hdr_end].is("{") {
                    let close = model.match_idx[hdr_end];
                    walk_items(model, hdr_end + 1, close, self_ty.as_deref(), in_test);
                    i = close + 1;
                } else {
                    i = hdr_end + 1;
                }
                attr_test = false;
            }
            "mod" => {
                let mod_test = attr_test;
                let mut j = i + 1;
                while j < end && !model.toks[j].is("{") && !model.toks[j].is(";") {
                    j += 1;
                }
                if j < end && model.toks[j].is("{") {
                    let close = model.match_idx[j];
                    walk_items(model, j + 1, close, impl_type, in_test || mod_test);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
                attr_test = false;
            }
            "struct" => {
                let name = match model.toks.get(i + 1) {
                    Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let mut j = i + 2;
                let mut fields = Vec::new();
                while j < end {
                    match model.toks[j].kind {
                        TokKind::Punct if model.toks[j].is(";") => {
                            j += 1;
                            break;
                        }
                        TokKind::Open if model.toks[j].is("(") => {
                            // Tuple struct: skip to the `;`.
                            j = model.match_idx[j].max(j) + 1;
                        }
                        TokKind::Open if model.toks[j].is("{") => {
                            let close = model.match_idx[j];
                            fields = parse_fields(model, j + 1, close);
                            j = close + 1;
                            break;
                        }
                        TokKind::Open => j = model.match_idx[j].max(j) + 1,
                        _ => j += 1,
                    }
                }
                model.structs.push(StructItem { name, fields, line });
                i = j;
                attr_test = false;
            }
            // Items we do not model: skip to their end so their contents
            // cannot masquerade as top-level tokens.
            "enum" | "trait" | "union" => {
                let mut j = i + 1;
                while j < end && !model.toks[j].is("{") && !model.toks[j].is(";") {
                    if model.toks[j].kind == TokKind::Open {
                        j = model.match_idx[j].max(j);
                    }
                    j += 1;
                }
                if j < end && model.toks[j].is("{") {
                    i = model.match_idx[j].max(j) + 1;
                } else {
                    i = j + 1;
                }
                attr_test = false;
            }
            _ => i += 1,
        }
    }
}

/// Parses named struct fields between brace tokens: each field is
/// `[attrs] [pub[(scope)]] name : type`, comma-separated.
fn parse_fields(model: &FileModel, mut i: usize, end: usize) -> Vec<String> {
    let mut fields = Vec::new();
    while i < end {
        // Skip attributes and visibility.
        if model.toks[i].is("#") {
            if let Some(t) = model.toks.get(i + 1) {
                if t.is("[") {
                    i = model.match_idx[i + 1].max(i + 1) + 1;
                    continue;
                }
            }
        }
        if model.toks[i].is("pub") {
            i += 1;
            if i < end && model.toks[i].is("(") {
                i = model.match_idx[i].max(i) + 1;
            }
            continue;
        }
        if model.toks[i].kind == TokKind::Ident && model.toks.get(i + 1).is_some_and(|t| t.is(":"))
        {
            fields.push(model.toks[i].text.clone());
            // Skip the type to the next comma at this level.
            i += 2;
            while i < end && !model.toks[i].is(",") {
                if model.toks[i].kind == TokKind::Open {
                    i = model.match_idx[i].max(i);
                }
                i += 1;
            }
            i += 1;
            continue;
        }
        i += 1;
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::strip;

    fn model(src: &str) -> FileModel {
        parse_file("crates/simdfs/src/x.rs", &strip(src).masked)
    }

    #[test]
    fn tokenizer_matches_delimiters() {
        let (toks, mi) = tokenize("fn f(a: u8) { g([1, 2]); }");
        let open_brace = toks.iter().position(|t| t.is("{")).unwrap();
        assert!(toks[mi[open_brace]].is("}"));
        let open_bracket = toks.iter().position(|t| t.is("[")).unwrap();
        assert!(toks[mi[open_bracket]].is("]"));
    }

    #[test]
    fn parses_fns_with_impl_context() {
        let m = model(
            "struct Cluster { files: u8, used: u64 }\n\
             impl Cluster {\n    pub fn store(&mut self) { self.touch(1); }\n}\n\
             impl std::fmt::Display for Cluster { fn fmt(&self) {} }\n\
             fn free() {}\n",
        );
        assert_eq!(m.structs.len(), 1);
        assert_eq!(m.structs[0].fields, vec!["files", "used"]);
        let names: Vec<(&str, Option<&str>)> = m
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("store", Some("Cluster")),
                ("fmt", Some("Cluster")),
                ("free", None)
            ]
        );
    }

    #[test]
    fn generic_impl_headers_resolve_the_self_type() {
        let m = model("impl<'a, T: Clone> Holder<T> { fn get(&self) {} }");
        assert_eq!(m.fns[0].impl_type.as_deref(), Some("Holder"));
    }

    #[test]
    fn cfg_test_modules_and_test_attrs_mark_fns() {
        let m = model(
            "fn live() {}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n    fn helper() {}\n}\n",
        );
        let by_name = |n: &str| m.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("live").in_test);
        assert!(by_name("t").in_test);
        assert!(by_name("helper").in_test);
    }

    #[test]
    fn body_facts_extract_calls_and_write_chains() {
        let m = model(
            "impl Cluster { fn f(&mut self) {\n\
                self.cluster.storage.get_mut(&id).unwrap().volumes[0].used += 1;\n\
                let x = a == b; let y = c <= d; m.insert(k, v);\n\
                self.touch_volume(vol);\n\
             } }",
        );
        let (o, c) = m.fns[0].body.unwrap();
        let facts = BodyFacts::extract(&m, o, c);
        let w = facts
            .chains
            .iter()
            .find(|ch| ch.op == "+=")
            .expect("write chain found");
        assert_eq!(
            w.segs,
            vec!["self", "cluster", "storage", "get_mut", "unwrap", "volumes", "used"]
        );
        assert!(w.has_pair("storage", "get_mut"));
        assert!(w.writes_field("used"));
        assert!(facts
            .calls
            .iter()
            .any(|ch| ch.segs == ["self", "touch_volume"]));
        assert!(facts
            .chains
            .iter()
            .any(|ch| ch.op == "insert" && ch.segs == ["m", "insert"]));
        // `==` and `<=` are not writes.
        assert!(!facts
            .chains
            .iter()
            .any(|ch| ch.segs.last().is_some_and(|s| s == "x")));
    }

    #[test]
    fn call_graph_reaches_hooks_transitively() {
        let m = model(
            "impl Cluster {\n\
               fn deep(&mut self) { self.middle(); }\n\
               fn middle(&mut self) { self.touch_volume(v); }\n\
               fn touch_volume(&mut self, v: u8) {}\n\
             }",
        );
        let cm = CrateModel {
            root: "crates/simdfs".to_string(),
            files: vec![m],
        };
        let targets: BTreeSet<&str> = ["touch_volume"].into_iter().collect();
        assert!(cm.reaches(Some("Cluster"), "deep", &targets, 4));
        assert!(!cm.reaches(Some("Cluster"), "deep", &targets, 0));
    }
}
