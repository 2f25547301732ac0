//! Table-driven fixtures for the lexer and the item parser.
//!
//! Every rule in this crate trusts two foundations: the lexer's claim that
//! literal contents and comment text never leak into the code channel, and
//! the parser's claim that items and spans are found where they are. These
//! fixtures pin both on the Rust surface syntax that historically breaks
//! hand-rolled lexers — raw strings with `#` guards, nested block comments
//! inside macro bodies, byte strings, the `'a`-lifetime vs `'a'`-char
//! ambiguity, and `r#ident` raw identifiers.

use popstab_lint::lexer::{contains_token, lex};
use popstab_lint::syntax::ParsedFile;

/// One lexer fixture: source, tokens that MUST survive in the code
/// channel, and tokens that MUST NOT appear there.
struct LexCase {
    name: &'static str,
    source: &'static str,
    in_code: &'static [&'static str],
    not_in_code: &'static [&'static str],
    in_comments: &'static [&'static str],
}

const LEX_CASES: &[LexCase] = &[
    LexCase {
        name: "raw string with hash guards hides its contents",
        source: r####"let re = r#"HashMap "quoted" // not a comment"#; let after = 1;"####,
        in_code: &["re", "after"],
        not_in_code: &["HashMap", "quoted", "not a comment"],
        in_comments: &[],
    },
    LexCase {
        name: "raw string with two hashes survives an embedded single-hash close",
        source: "let s = r##\"inner \"# HashMap\"##; let tail = 2;",
        in_code: &["tail"],
        not_in_code: &["HashMap", "inner"],
        in_comments: &[],
    },
    LexCase {
        name: "multiline raw string blanks every line it spans",
        source: "let s = r#\"first\nSystemTime::now()\nlast\"#;\nlet code = 3;",
        in_code: &["code"],
        not_in_code: &["SystemTime", "first", "last"],
        in_comments: &[],
    },
    LexCase {
        name: "nested block comment inside a macro body",
        source: "macro_rules! m { () => { /* outer /* HashSet */ still comment */ inner() }; }",
        in_code: &["macro_rules", "inner"],
        not_in_code: &["HashSet"],
        in_comments: &["outer", "still comment"],
    },
    LexCase {
        name: "byte and raw byte strings are literals too",
        source: "let b = b\"thread_rng\"; let rb = br#\"Instant::now\"#; let ok = 4;",
        in_code: &["ok"],
        not_in_code: &["thread_rng", "Instant"],
        in_comments: &[],
    },
    LexCase {
        name: "lifetime is code, char literal contents are not",
        source: "fn f<'a>(x: &'a str) -> char { 'H' }",
        in_code: &["f", "str", "char"],
        // The char literal's `H` must be blanked; `'a` must not open a
        // string-like state that swallows the rest of the line.
        not_in_code: &["'H'"],
        in_comments: &[],
    },
    LexCase {
        name: "char literal with escape does not open a string state",
        source: "let c = '\\''; let next = HashMap::new();",
        in_code: &["next", "HashMap"],
        not_in_code: &[],
        in_comments: &[],
    },
    LexCase {
        name: "line comment text is comment channel, not code",
        source: "let x = 1; // uses HashMap internally\nlet y = 2;",
        in_code: &["x", "y"],
        not_in_code: &["HashMap"],
        in_comments: &["uses HashMap internally"],
    },
    LexCase {
        name: "string with escaped quote does not end early",
        source: "let s = \"say \\\"HashMap\\\" loudly\"; let z = 5;",
        in_code: &["z"],
        not_in_code: &["HashMap", "loudly"],
        in_comments: &[],
    },
];

#[test]
fn lexer_fixture_table() {
    for case in LEX_CASES {
        let lines = lex(case.source);
        let code: String = lines
            .iter()
            .map(|l| format!("{}\n", l.code))
            .collect::<String>();
        let comments: String = lines
            .iter()
            .map(|l| format!("{}\n", l.comment))
            .collect::<String>();
        for tok in case.in_code {
            assert!(
                lines.iter().any(|l| contains_token(&l.code, tok)) || code.contains(tok),
                "[{}] expected `{tok}` in code channel:\n{code}",
                case.name
            );
        }
        for tok in case.not_in_code {
            assert!(
                !code.contains(tok),
                "[{}] `{tok}` leaked into code channel:\n{code}",
                case.name
            );
        }
        for text in case.in_comments {
            assert!(
                comments.contains(text),
                "[{}] expected `{text}` in comment channel:\n{comments}",
                case.name
            );
        }
    }
}

/// One parser fixture: source, expected `(kind, name)` item list (in
/// order), and whether each is test code.
struct ItemCase {
    name: &'static str,
    source: &'static str,
    fns: &'static [(&'static str, bool)],
}

const ITEM_CASES: &[ItemCase] = &[
    ItemCase {
        name: "raw identifiers parse as fn names",
        source: "fn r#loop() {}\nfn plain() { r#loop(); }",
        fns: &[("r#loop", false), ("plain", false)],
    },
    ItemCase {
        name: "cfg(test) module marks its fns as test code",
        source: "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn case() {}\n}",
        fns: &[("live", false), ("helper", true), ("case", true)],
    },
    ItemCase {
        // The walk records an item when its body closes, so the nested fn
        // lands before its enclosing one.
        name: "nested fns are found inside outer bodies",
        source: "fn outer() {\n    fn inner(x: u32) -> u32 { x }\n    inner(1);\n}",
        fns: &[("inner", false), ("outer", false)],
    },
    ItemCase {
        name: "fn pointer types are not definitions",
        source: "fn real(cb: fn(u32) -> u32) -> u32 { cb(1) }",
        fns: &[("real", false)],
    },
    ItemCase {
        name: "lifetimes in signatures do not derail fn parsing",
        source: "fn borrow<'a>(x: &'a [u8]) -> &'a [u8] { x }\nfn after() {}",
        fns: &[("borrow", false), ("after", false)],
    },
];

#[test]
fn parser_fixture_table() {
    use popstab_lint::syntax::ItemKind;
    for case in ITEM_CASES {
        let parsed = ParsedFile::parse(&lex(case.source));
        let got: Vec<(&str, bool)> = parsed
            .items
            .iter()
            .filter(|i| i.kind == ItemKind::Fn)
            .map(|i| (i.name.as_str(), i.is_test))
            .collect();
        let want: Vec<(&str, bool)> = case.fns.to_vec();
        assert_eq!(got, want, "[{}]", case.name);
    }
}
