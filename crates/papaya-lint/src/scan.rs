//! Token-stream scanning: one parsed source file plus the shared helpers
//! rules are written against — `#[cfg(test)]` region exclusion, allow
//! directives, balanced-delimiter matching, and struct/enum/destructure
//! field extraction.

use crate::lexer::{lex, Comment, Token, TokenKind};

/// One lexed workspace file with the derived facts every rule needs.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes
    /// (`crates/papaya-core/src/config.rs`).
    pub path: String,
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
    /// 1-indexed line → the line is inside a `#[test]`/`#[cfg(test)]` item.
    test_lines: Vec<bool>,
    /// Sorted, deduplicated lines that carry at least one code token.
    code_lines: Vec<u32>,
}

impl SourceFile {
    /// Lexes `src` and computes test regions and code-line positions.
    pub fn parse(path: impl Into<String>, src: &str) -> SourceFile {
        let out = lex(src);
        let max_line = src.lines().count().max(1) as u32;
        let test_lines = test_line_map(&out.tokens, max_line);
        let mut code_lines: Vec<u32> = out.tokens.iter().map(|t| t.line).collect();
        code_lines.dedup();
        SourceFile {
            path: path.into(),
            tokens: out.tokens,
            comments: out.comments,
            test_lines,
            code_lines,
        }
    }

    /// Whether the 1-indexed line sits inside a test item (a `#[test]` fn or
    /// a `#[cfg(test)]` module): production rules skip those regions.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.get(line as usize).copied().unwrap_or(false)
    }

    /// The first line at or after `line` that carries code, if any — the
    /// line a standalone allow comment covers.
    pub fn next_code_line(&self, line: u32) -> Option<u32> {
        let idx = self.code_lines.partition_point(|&l| l < line);
        self.code_lines.get(idx).copied()
    }

    /// Whether `line` carries at least one code token.
    pub fn has_code_on(&self, line: u32) -> bool {
        self.code_lines.binary_search(&line).is_ok()
    }
}

/// Marks every line covered by a test-gated item.  An attribute whose
/// bracket contents mention both `cfg` and `test` (or bare `test`) gates the
/// item that follows: the region runs to the item's closing brace, or to the
/// terminating `;` for brace-less items.
fn test_line_map(tokens: &[Token], max_line: u32) -> Vec<bool> {
    let mut map = vec![false; max_line as usize + 2];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text != "#" || tokens.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        let close = match matching(tokens, i + 1, "[", "]") {
            Some(c) => c,
            None => break,
        };
        let body = &tokens[i + 2..close];
        let mentions = |name: &str| {
            body.iter()
                .any(|t| t.kind == TokenKind::Ident && t.text == name)
        };
        // `not(test)` gates *production* code; only positive test cfgs count.
        let is_test_attr =
            mentions("test") && !mentions("not") && (mentions("cfg") || body.len() == 1);
        if !is_test_attr {
            i = close + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut j = close + 1;
        while tokens.get(j).map(|t| t.text.as_str()) == Some("#")
            && tokens.get(j + 1).map(|t| t.text.as_str()) == Some("[")
        {
            match matching(tokens, j + 1, "[", "]") {
                Some(c) => j = c + 1,
                None => return map,
            }
        }
        // Find the item's extent: the first top-level `{ … }`, or a `;`.
        let mut end = None;
        let mut k = j;
        while let Some(tok) = tokens.get(k) {
            match tok.text.as_str() {
                ";" => {
                    end = Some(k);
                    break;
                }
                "{" => {
                    end = matching(tokens, k, "{", "}");
                    break;
                }
                _ => k += 1,
            }
        }
        let end = match end {
            Some(e) => e,
            None => tokens.len() - 1,
        };
        let from = tokens[i].line as usize;
        let to = tokens[end].line as usize;
        for line in from..=to.min(map.len() - 1) {
            map[line] = true;
        }
        i = end + 1;
    }
    map
}

/// Index of the delimiter closing `tokens[open]` (which must equal `open_d`),
/// honoring nesting.  `None` when unbalanced.
pub fn matching(tokens: &[Token], open: usize, open_d: &str, close_d: &str) -> Option<usize> {
    debug_assert_eq!(tokens[open].text, open_d);
    let mut depth = 0usize;
    for (i, tok) in tokens.iter().enumerate().skip(open) {
        if tok.kind == TokenKind::Punct {
            if tok.text == open_d {
                depth += 1;
            } else if tok.text == close_d {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
        }
    }
    None
}

/// First index at or after `start` where the token texts match `pattern`
/// exactly, with every `pattern` entry matched against consecutive tokens.
pub fn find_seq(tokens: &[Token], start: usize, pattern: &[&str]) -> Option<usize> {
    if pattern.is_empty() || tokens.len() < pattern.len() {
        return None;
    }
    (start..=tokens.len() - pattern.len()).find(|&i| {
        pattern
            .iter()
            .enumerate()
            .all(|(j, p)| tokens[i + j].text == *p)
    })
}

/// A struct field or enum variant name with its source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NamedItem {
    /// Field or variant identifier.
    pub name: String,
    /// 1-indexed line of the identifier.
    pub line: u32,
}

/// The named fields of `struct name { … }`, or `None` when the struct (or
/// its brace body) is not found.  Attributes on fields are skipped; tuple
/// structs yield an empty list.
pub fn struct_fields(file: &SourceFile, name: &str) -> Option<Vec<NamedItem>> {
    fields_of(&file.tokens, "struct", name)
}

/// The variants of `enum name { … }`, or `None` when not found.
pub fn enum_variants(file: &SourceFile, name: &str) -> Option<Vec<NamedItem>> {
    fields_of(&file.tokens, "enum", name)
}

fn fields_of(tokens: &[Token], keyword: &str, name: &str) -> Option<Vec<NamedItem>> {
    let at = find_seq(tokens, 0, &[keyword, name])?;
    // Skip generics, then expect the brace body.
    let mut i = at + 2;
    if tokens.get(i).map(|t| t.text.as_str()) == Some("<") {
        i = skip_angles(tokens, i)?;
    }
    if tokens.get(i).map(|t| t.text.as_str()) != Some("{") {
        return None; // tuple struct / unit struct / `enum X;`
    }
    let close = matching(tokens, i, "{", "}")?;
    let mut items = Vec::new();
    let mut j = i + 1;
    while j < close {
        // Skip attributes on the field/variant.
        while tokens[j].text == "#" && tokens.get(j + 1).map(|t| t.text.as_str()) == Some("[") {
            j = matching(tokens, j + 1, "[", "]")? + 1;
        }
        // Skip visibility.
        if tokens[j].text == "pub" {
            j += 1;
            if tokens.get(j).map(|t| t.text.as_str()) == Some("(") {
                j = matching(tokens, j, "(", ")")? + 1;
            }
        }
        if j >= close {
            break;
        }
        if tokens[j].kind == TokenKind::Ident {
            items.push(NamedItem {
                name: tokens[j].text.clone(),
                line: tokens[j].line,
            });
        }
        // Advance to the comma ending this field/variant, skipping nested
        // delimiters (variant payloads, generic field types, defaults).
        j += 1;
        let mut depth = 0usize;
        while j < close {
            match tokens[j].text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth = depth.saturating_sub(1),
                "," if depth == 0 => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
    }
    Some(items)
}

/// The methods of `trait name { … }` that carry a default body — the ones
/// an implementor inherits silently by not defining them — or `None` when
/// the trait is not found.  Required methods (signature ending in `;`) are
/// left out: the compiler already enforces those.
pub fn trait_default_methods(file: &SourceFile, name: &str) -> Option<Vec<String>> {
    let tokens = &file.tokens;
    let at = find_seq(tokens, 0, &["trait", name])?;
    let open = (at + 2..tokens.len()).find(|&i| tokens[i].text == "{")?;
    let close = matching(tokens, open, "{", "}")?;
    let mut methods = Vec::new();
    let mut i = open + 1;
    while let Some(f) = find_seq(&tokens[..close], i, &["fn"]) {
        // The signature runs to its `;` (required) or body `{` (defaulted).
        let end = (f + 2..close).find(|&j| matches!(tokens[j].text.as_str(), ";" | "{"))?;
        i = end + 1;
        if tokens[end].text == "{" {
            methods.push(tokens[f + 1].text.clone());
            i = matching(tokens, end, "{", "}")? + 1;
        }
    }
    Some(methods)
}

/// Skips a balanced `< … >` starting at `open`; returns the index after the
/// closing `>`.  Good enough for declaration generics (no shift operators).
fn skip_angles(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, tok) in tokens.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// The token range (exclusive of braces) of the body of `fn name`, searched
/// from `start`.  Returns `(body_start, body_end, fn_line)`.
pub fn fn_body(file: &SourceFile, name: &str, start: usize) -> Option<(usize, usize, u32)> {
    let at = find_seq(&file.tokens, start, &["fn", name])?;
    let line = file.tokens[at].line;
    let mut i = at + 2;
    while i < file.tokens.len() && file.tokens[i].text != "{" {
        if file.tokens[i].text == ";" {
            return None; // trait method signature without a body
        }
        i += 1;
    }
    if i >= file.tokens.len() {
        return None;
    }
    let close = matching(&file.tokens, i, "{", "}")?;
    Some((i + 1, close, line))
}

/// A struct destructuring pattern `Name { a, b: _, … }` found inside a token
/// range: the bound field names plus whether a `..` rest pattern appears.
#[derive(Clone, Debug, Default)]
pub struct Destructure {
    /// Field names bound (or explicitly ignored with `field: _`).
    pub fields: Vec<NamedItem>,
    /// Whether the pattern uses `..` (which silently absorbs new fields).
    pub has_rest: bool,
    /// Line the pattern starts on.
    pub line: u32,
}

/// Finds the first `name { … }` destructure inside `tokens[range]`.
pub fn find_destructure(
    tokens: &[Token],
    range: (usize, usize),
    name: &str,
) -> Option<Destructure> {
    let (start, end) = range;
    let at = find_seq(&tokens[..end], start, &[name, "{"])?;
    let open = at + 1;
    let close = matching(tokens, open, "{", "}")?;
    let mut out = Destructure {
        line: tokens[at].line,
        ..Destructure::default()
    };
    let mut j = open + 1;
    while j < close {
        if tokens[j].text == "." && tokens.get(j + 1).map(|t| t.text.as_str()) == Some(".") {
            out.has_rest = true;
            j += 2;
            continue;
        }
        if tokens[j].kind == TokenKind::Ident && tokens[j].text != "ref" && tokens[j].text != "mut"
        {
            out.fields.push(NamedItem {
                name: tokens[j].text.clone(),
                line: tokens[j].line,
            });
        }
        // Skip to the comma ending this binding (`field: pattern` included).
        j += 1;
        let mut depth = 0usize;
        while j < close {
            match tokens[j].text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth = depth.saturating_sub(1),
                "," if depth == 0 => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("crates/demo/src/lib.rs", src)
    }

    #[test]
    fn cfg_test_module_lines_are_test_lines() {
        let f = file("fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn prod2() {}\n");
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn test_attribute_fn_is_excluded() {
        let f = file("#[test]\nfn check() {\n    body();\n}\nfn prod() {}\n");
        assert!(f.is_test_line(3));
        assert!(!f.is_test_line(5));
    }

    #[test]
    fn cfg_all_test_is_recognized() {
        let f = file("#[cfg(all(test, feature = \"x\"))]\nmod t {\n    fn a() {}\n}\n");
        assert!(f.is_test_line(3));
    }

    #[test]
    fn struct_fields_with_attrs_and_pub() {
        let f = file(
            "pub struct S {\n    pub a: u64,\n    #[allow(dead_code)]\n    b: Vec<(f64, u64)>,\n    pub(crate) c: Option<f64>,\n}\n",
        );
        let fields = struct_fields(&f, "S").expect("struct found");
        let names: Vec<_> = fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(fields[1].line, 4);
    }

    #[test]
    fn enum_variants_with_payloads() {
        let f = file(
            "pub enum E {\n    Plain,\n    Tuple(u64, f64),\n    Struct { x: u64, y: u64 },\n}\n",
        );
        let names: Vec<_> = enum_variants(&f, "E")
            .expect("enum found")
            .into_iter()
            .map(|v| v.name)
            .collect();
        assert_eq!(names, vec!["Plain", "Tuple", "Struct"]);
    }

    #[test]
    fn trait_default_methods_skip_required_signatures() {
        let f = file(
            "pub trait T: Send {\n    fn required(&self) -> u64;\n    \
             fn defaulted(&self) -> Option<u64> {\n        None\n    }\n    \
             fn with_nested(&mut self, _x: Vec<(u64, f64)>) {\n        if true { fn inner() {} }\n    }\n}\n\
             fn outside() {}\n",
        );
        let names = trait_default_methods(&f, "T").expect("trait found");
        assert_eq!(names, vec!["defaulted", "with_nested"]);
        assert!(trait_default_methods(&f, "Missing").is_none());
    }

    #[test]
    fn destructure_fields_and_rest() {
        let f = file("fn v(c: &C) {\n    let C { a, b: _, .. } = c;\n}\n");
        let (s, e, _) = fn_body(&f, "v", 0).expect("fn found");
        let d = find_destructure(&f.tokens, (s, e), "C").expect("destructure found");
        let names: Vec<_> = d.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(d.has_rest);
    }

    #[test]
    fn next_code_line_skips_blanks_and_comments() {
        let f = file("fn a() {}\n\n// comment\nfn b() {}\n");
        assert_eq!(f.next_code_line(2), Some(4));
        assert!(f.has_code_on(1));
        assert!(!f.has_code_on(3));
    }
}
