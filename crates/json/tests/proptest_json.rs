//! Property-based tests for the JSON codec's strings and its parser.

use htsat_json::Json;
use proptest::prelude::*;

/// One character from every class the string codec treats differently:
/// the quote and backslash, every control character, printable ASCII, and
/// two-, three- and four-byte UTF-8 (astral) characters.
fn arb_char() -> impl Strategy<Value = char> {
    let scalar = |range: std::ops::Range<u32>| {
        range.prop_map(|code| char::from_u32(code).expect("a scalar value outside the surrogates"))
    };
    prop_oneof![
        Just('"'),
        Just('\\'),
        scalar(0..0x20),
        scalar(0x20..0x80),
        scalar(0x80..0x800),
        scalar(0x800..0xd800),
        scalar(0xe000..0x1_0000),
        scalar(0x1_0000..0x11_0000),
    ]
}

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_char(), 0..96).prop_map(|chars| chars.into_iter().collect())
}

/// Text built from JSON fragments, broken ones included, so the parser
/// meets truncated escapes, bad numbers, stray delimiters and raw control
/// and multi-byte characters at any position.
fn arb_text() -> impl Strategy<Value = String> {
    let fragment = prop_oneof![
        prop_oneof![
            Just("{"),
            Just("}"),
            Just("["),
            Just("]"),
            Just(","),
            Just(":"),
            Just("\""),
            Just("\\"),
            Just(" "),
            Just("\n"),
        ]
        .prop_map(str::to_string),
        prop_oneof![
            Just("\\u"),
            Just("\\ud83d"),
            Just("\\ude00"),
            Just("\\u+041"),
            Just("true"),
            Just("nul"),
            Just("-"),
            Just("0"),
            Just("17"),
            Just("."),
            Just("e+"),
            Just("\"key\":"),
        ]
        .prop_map(str::to_string),
        arb_char().prop_map(String::from),
    ];
    prop::collection::vec(fragment, 0..32).prop_map(|fragments| fragments.concat())
}

/// The char-at-a-time encoder the codec's run-copying one must match.
fn reference_encode(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn strings_round_trip(s in arb_string()) {
        let value = Json::Str(s);
        prop_assert_eq!(Json::parse(&value.encode()).expect("parse"), value);
    }

    #[test]
    fn strings_encode_like_the_char_by_char_reference(s in arb_string()) {
        prop_assert_eq!(Json::Str(s.clone()).encode(), reference_encode(&s));
        let nested = Json::obj(vec![(s.as_str(), Json::Arr(vec![Json::Str(s.clone())]))]);
        let want = format!("{{{}:[{}]}}", reference_encode(&s), reference_encode(&s));
        prop_assert_eq!(nested.encode(), want);
    }

    #[test]
    fn parsing_arbitrary_text_never_panics(text in arb_text()) {
        if let Err(error) = Json::parse(&text) {
            prop_assert!(error.offset <= text.len(), "{error} in {} bytes", text.len());
        }
    }
}
