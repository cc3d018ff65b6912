//! Differential test of the `classify` request front end.
//!
//! [`RequestEnvelope::read_classify`] reads a `classify` frame in one pass of
//! the JSON pull reader, straight into the problem. The service falls back to
//! the tree path (parse to a `JsonValue`, then the envelope, then the spec,
//! then the problem) whenever it returns `None`. So the front end may return
//! `Some` only where the tree path succeeds, and then with the same id and an
//! equal problem; wherever the tree path fails it must return `None`. This
//! test checks that on the corpus and generated problems in three spellings,
//! on targeted mutations, and on every truncation and a sweep of byte flips.

use lcl_paths::gen::{generate, Family, GenConfig};
use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{NormalizedLcl, ProblemSpec, RequestEnvelope};
use lcl_paths::problems;

/// The tree path: what the service did with every frame before the front end.
fn tree_path(text: &str) -> Option<(i64, NormalizedLcl)> {
    let envelope = RequestEnvelope::from_json_str(text).ok()?;
    if envelope.kind != "classify" {
        return None;
    }
    let spec = envelope.payload.require("problem").ok()?;
    let problem = ProblemSpec::from_json(spec).ok()?.to_problem().ok()?;
    Some((envelope.id, problem))
}

/// Both paths on `text`; panics where the front end is wrong. Returns
/// whether the front end and the tree path accepted the frame.
fn check(text: &str) -> (bool, bool) {
    let front = RequestEnvelope::read_classify(text);
    let tree = tree_path(text);
    match (&front, &tree) {
        (Some(front), Some(tree)) => assert_eq!(front, tree, "paths disagree on {text:?}"),
        (Some(_), None) => panic!("the front end accepted a frame the tree path refuses: {text:?}"),
        _ => {}
    }
    (front.is_some(), tree.is_some())
}

/// Both paths accept `text`, with equal results.
fn assert_accepted(text: &str) {
    assert_eq!(check(text), (true, true), "{text:?}");
}

/// Neither path accepts `text`.
fn assert_refused(text: &str) {
    assert_eq!(check(text), (false, false), "{text:?}");
}

/// The problems: the corpus, the two ladders and draws of every family.
fn problems() -> Vec<NormalizedLcl> {
    let mut out: Vec<NormalizedLcl> = problems::corpus().into_iter().map(|e| e.problem).collect();
    out.extend((2..=6).map(problems::coloring));
    out.extend((1..=4).map(problems::unconstrained));
    out.extend((0..48usize).map(|i| {
        let config = GenConfig::new(7_000 + i as u64)
            .family(Family::ALL[i % Family::ALL.len()])
            .input_labels(1 + (i / 4) % 3)
            .output_labels(2 + (i / 12) % 7);
        generate(&config).expect("valid config")
    }));
    out
}

/// The request document of a classify frame.
fn request(id: i64, spec: JsonValue) -> JsonValue {
    RequestEnvelope::new(id, "classify", JsonValue::object([("problem", spec)])).into_json()
}

/// Writes `value` with every object's keys in reverse order and `space`
/// after each separator.
fn write_reordered(value: &JsonValue, space: &str, out: &mut String) {
    match value {
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                    out.push_str(space);
                }
                write_reordered(item, space, out);
            }
            out.push(']');
        }
        JsonValue::Object(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().rev().enumerate() {
                if i > 0 {
                    out.push(',');
                    out.push_str(space);
                }
                out.push_str(&JsonValue::Str(key.clone()).to_json_string());
                out.push(':');
                out.push_str(space);
                write_reordered(item, space, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_json_string()),
    }
}

/// The canonical, spaced and key-reordered spellings of one document.
fn spellings(document: &JsonValue) -> [String; 3] {
    let canonical = document.to_json_string();
    let spaced = format!(" \t{}\r\n ", spaced_copy(&canonical));
    let mut reordered = String::new();
    write_reordered(document, " \n", &mut reordered);
    [canonical, spaced, reordered]
}

/// `text` with whitespace after every `,` and `:` outside strings and around
/// every bracket.
fn spaced_copy(text: &str) -> String {
    let mut out = String::new();
    let (mut in_string, mut escaped) = (false, false);
    for c in text.chars() {
        out.push(c);
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            ',' | ':' | '[' | '{' => out.push(' '),
            _ => {}
        }
    }
    out.replace(']', " ]").replace('}', "\t}")
}

/// Replaces field `key` of the object at `path` (a list of object keys) in
/// `document`; `None` removes it.
fn edited(document: &JsonValue, path: &[&str], key: &str, value: Option<JsonValue>) -> JsonValue {
    let mut copy = document.clone();
    let mut at = &mut copy;
    for step in path {
        let JsonValue::Object(map) = at else {
            panic!("path step {step} is not an object");
        };
        at = map.get_mut(*step).expect("path exists");
    }
    let JsonValue::Object(map) = at else {
        panic!("edit target is not an object");
    };
    match value {
        Some(value) => map.insert(key.to_string(), value),
        None => map.remove(key),
    };
    copy
}

const ENVELOPE: &[&str] = &[];
const PAYLOAD: &[&str] = &["payload"];
const SPEC: &[&str] = &["payload", "problem"];

#[test]
fn every_spelling_of_every_problem_reads_as_the_tree_path_reads_it() {
    let ids = [0, 1, -1, 42, i64::MAX, i64::MIN];
    let mut frames = 0;
    for (i, problem) in problems().iter().enumerate() {
        let document = request(ids[i % ids.len()], problem.to_spec().to_json());
        for text in spellings(&document) {
            assert_accepted(&text);
            frames += 1;
        }
    }
    assert!(frames >= 3 * 60, "{frames} frames");
}

#[test]
fn mutations_are_refused_or_read_as_the_tree_path_reads_them() {
    let document = request(7, problems::coloring(3).to_spec().to_json());
    assert_accepted(&document.to_json_string());
    let int = JsonValue::Int;
    let text = |s: &str| JsonValue::Str(s.to_string());

    // Unknown keys at every level: the tree path ignores them, the front
    // end declines the frame.
    for path in [ENVELOPE, PAYLOAD, SPEC] {
        let frame = edited(&document, path, "extra", Some(int(1))).to_json_string();
        assert_eq!(check(&frame), (false, true), "{frame}");
    }

    // Duplicate keys at every level: both refuse.
    let canonical = document.to_json_string();
    for (key, value) in [
        ("\"v\":", "1"),
        ("\"id\":", "7"),
        ("\"kind\":", "\"classify\""),
        ("\"payload\":", "{\"problem\":{}}"),
        ("\"problem\":", "{}"),
        ("\"version\":", "1"),
        ("\"name\":", "\"x\""),
        ("\"input_labels\":", "[\"x\"]"),
        ("\"output_labels\":", "[\"a\"]"),
        ("\"node_pairs\":", "[]"),
        ("\"edge_pairs\":", "[]"),
    ] {
        let at = canonical.find(key).expect("key present");
        let frame = format!("{}{key}{value},{}", &canonical[..at], &canonical[at..]);
        assert_refused(&frame);
    }

    // Escapes in names and keys read as the tree path reads them.
    for name in ["q\"u\\o/te", "tab\tnew\nline", "é😀", "\u{1}\u{1f}"] {
        let frame = edited(&document, SPEC, "name", Some(text(name))).to_json_string();
        assert_accepted(&frame);
    }
    let labels = JsonValue::str_array(["\u{7f}\\", "\"", ""]);
    assert_accepted(&edited(&document, SPEC, "output_labels", Some(labels)).to_json_string());
    for (plain, escaped) in [
        ("\"v\":", "\"\\u0076\":"),
        ("\"kind\":\"classify\"", "\"kind\":\"classif\\u0079\""),
        ("\"node_pairs\":", "\"node\\u005fpairs\":"),
        (
            "\"name\":\"3-coloring\"",
            "\"name\":\"3-\\ud83d\\ude00coloring\\/\"",
        ),
    ] {
        assert!(canonical.contains(plain), "{plain}");
        assert_accepted(&canonical.replacen(plain, escaped, 1));
    }

    // Versions, kinds and ids the tree path refuses.
    for v in [int(2), int(0), int(-1), text("1"), JsonValue::Null] {
        assert_refused(&edited(&document, ENVELOPE, "v", Some(v)).to_json_string());
    }
    for kind in ["classify_many", "health", "Classify", "", "classify "] {
        let frame = edited(&document, ENVELOPE, "kind", Some(text(kind))).to_json_string();
        assert_refused(&frame);
    }
    for id in ["\"7\"", "7.5", "1e3", "-0.0", "null", "true", "07", "+7"] {
        assert_refused(&canonical.replacen("\"id\":7", &format!("\"id\":{id}"), 1));
    }
    for id in [
        "9223372036854775808",
        "-9223372036854775809",
        "99999999999999999999",
    ] {
        assert_refused(&canonical.replacen("\"id\":7", &format!("\"id\":{id}"), 1));
    }
    assert_accepted(&canonical.replacen("\"id\":7", "\"id\":-0", 1));

    // Spec fields: missing, mistyped, out of range, wrong pair lengths.
    for field in [
        "version",
        "name",
        "input_labels",
        "output_labels",
        "node_pairs",
        "edge_pairs",
    ] {
        assert_refused(&edited(&document, SPEC, field, None).to_json_string());
        assert_refused(&edited(&document, SPEC, field, Some(JsonValue::Null)).to_json_string());
    }
    assert_refused(&edited(&document, SPEC, "version", Some(int(2))).to_json_string());
    let pair = |items: Vec<JsonValue>| JsonValue::Array(vec![JsonValue::Array(items)]);
    for bad in [
        pair(vec![]),
        pair(vec![int(0)]),
        pair(vec![int(0), int(0), int(0)]),
        pair(vec![int(0), int(-1)]),
        pair(vec![int(0), int(65_536)]),
        pair(vec![int(0), int(3)]),
        pair(vec![int(0), text("0")]),
        JsonValue::Array(vec![int(0)]),
        int(0),
    ] {
        assert_refused(&edited(&document, SPEC, "edge_pairs", Some(bad)).to_json_string());
    }
    let first_pair = "\"edge_pairs\":[[0,1]";
    assert!(canonical.contains(first_pair));
    for label in ["1.0", "99999999999999999999", "1e2", "-0.5", "01"] {
        let pair = format!("\"edge_pairs\":[[0,{label}]");
        assert_refused(&canonical.replacen(first_pair, &pair, 1));
    }
    assert_refused(
        &edited(
            &document,
            SPEC,
            "input_labels",
            Some(JsonValue::str_array(Vec::<String>::new())),
        )
        .to_json_string(),
    );
    assert_refused(&edited(&document, ENVELOPE, "payload", None).to_json_string());
    assert_refused(&edited(&document, PAYLOAD, "problem", None).to_json_string());
    assert_refused(&edited(&document, ENVELOPE, "payload", Some(JsonValue::Null)).to_json_string());

    // Trailing bytes: whitespace is fine, anything else is refused.
    assert_accepted(&format!("{canonical} \n\t"));
    for tail in ["x", " {}", ",", "]", "}", "\u{0}"] {
        assert_refused(&format!("{canonical}{tail}"));
    }
}

#[test]
fn truncations_and_byte_flips_never_outrun_the_tree_path() {
    const FLIPS: &[u8] = b"\"\\{}[],:-019.eE \nuntfavx\x01";
    let all = problems();
    let chosen = [&all[0], &all[all.len() / 2], &all[all.len() - 1]];
    let mut refused = 0;
    for (i, problem) in chosen.into_iter().enumerate() {
        let name = format!("p\\\"{i}é");
        let mut spec = problem.to_spec();
        spec.name = name;
        let frame = request(-5 + i as i64, spec.to_json()).to_json_string();
        assert_accepted(&frame);
        for end in 0..frame.len() {
            if frame.is_char_boundary(end) {
                let (front, _) = check(&frame[..end]);
                assert!(!front, "a truncation was accepted: {:?}", &frame[..end]);
            }
        }
        for at in 0..frame.len() {
            if !frame.as_bytes()[at].is_ascii() {
                continue;
            }
            for &flip in FLIPS {
                let mut bytes = frame.clone().into_bytes();
                bytes[at] = flip;
                let edited = String::from_utf8(bytes).expect("ASCII for ASCII");
                if !check(&edited).0 {
                    refused += 1;
                }
            }
        }
    }
    assert!(refused > 1000, "only {refused} flips were refused");
}
