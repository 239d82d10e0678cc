//! Diagnostic renderers: a human-readable text form and a versioned
//! JSON document built with the workspace's one JSON codec
//! ([`lip_obs::json`]).

use std::fmt::Write as _;

use lip_graph::Span;
use lip_obs::json::Json;

use crate::diag::{Diagnostic, Severity};

/// Version of the JSON diagnostics schema emitted by [`render_json`].
/// Re-exported from the central `lip_obs::schema` registry; bump it
/// there.
pub const LINT_SCHEMA_VERSION: u32 = lip_obs::schema::LINT;

fn position(file: &str, span: Option<Span>) -> String {
    match span {
        Some(s) => format!("{file}:{s}"),
        None => file.to_owned(),
    }
}

/// Render `diags` for humans: one block per diagnostic, then a
/// one-line tally (or `clean`).
#[must_use]
pub fn render_human(file: &str, diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(
            out,
            "{}: {}[{}]: {}",
            position(file, d.primary),
            d.severity,
            d.rule,
            d.message
        );
        for n in &d.nodes {
            let _ = writeln!(out, "  --> node `{}` at {}", n.name, position(file, n.span));
        }
        for c in &d.channels {
            let _ = writeln!(
                out,
                "  --> channel `{}` at {}",
                c.endpoints,
                position(file, c.span)
            );
        }
        if let Some(t) = d.predicted_throughput {
            let _ = writeln!(out, "  = predicted steady-state throughput: {t}");
        }
        if let Some(fix) = &d.fix_label {
            let _ = writeln!(out, "  = fix: {fix}");
        }
        if !d.related.is_empty() {
            let codes: Vec<&str> = d.related.iter().map(|r| r.code()).collect();
            let _ = writeln!(out, "  = related: {}", codes.join(", "));
        }
    }
    if diags.is_empty() {
        let _ = writeln!(out, "{file}: clean");
    } else {
        let (e, w, i) = Diagnostic::tally(diags);
        let _ = writeln!(
            out,
            "{file}: {} diagnostic(s): {e} error(s), {w} warning(s), {i} info(s)",
            diags.len()
        );
    }
    out
}

/// Render diagnostics for one or more files as a single versioned JSON
/// document, in the `lip_obs` codec's pretty layout:
///
/// ```json
/// {
///   "schema_version": 1,
///   "files": [
///     {
///       "file": "...",
///       "diagnostics": [...],
///       "counts": {"error": 0, "warning": 1, "info": 0}
///     }
///   ]
/// }
/// ```
#[must_use]
pub fn render_json(files: &[(String, Vec<Diagnostic>)]) -> String {
    let files = files.iter().map(|(file, diags)| {
        let (e, w, i) = Diagnostic::tally(diags);
        Json::obj([
            ("file", file.as_str().into()),
            (
                "diagnostics",
                Json::Arr(diags.iter().map(diag_json).collect()),
            ),
            (
                "counts",
                Json::obj([
                    ("error", e.into()),
                    ("warning", w.into()),
                    ("info", i.into()),
                ]),
            ),
        ])
    });
    Json::obj([
        ("schema_version", LINT_SCHEMA_VERSION.into()),
        ("files", Json::Arr(files.collect())),
    ])
    .to_pretty()
}

fn diag_json(d: &Diagnostic) -> Json {
    let span_json = |span: Option<Span>| {
        span.map_or(Json::Null, |s| {
            Json::obj([("line", s.line.into()), ("col", s.col.into())])
        })
    };
    let nodes = d.nodes.iter().map(|n| {
        Json::obj([
            ("name", n.name.as_str().into()),
            ("span", span_json(n.span)),
        ])
    });
    let channels = d.channels.iter().map(|c| {
        Json::obj([
            ("endpoints", c.endpoints.as_str().into()),
            ("span", span_json(c.span)),
        ])
    });
    Json::obj([
        ("rule", d.rule.code().into()),
        ("severity", d.severity.to_string().into()),
        ("message", d.message.as_str().into()),
        ("span", span_json(d.primary)),
        ("nodes", Json::Arr(nodes.collect())),
        ("channels", Json::Arr(channels.collect())),
        ("related", Json::arr(d.related.iter().map(|r| r.code()))),
        (
            "predicted_throughput",
            d.predicted_throughput
                .map_or(Json::Null, |t| Json::ratio(t.num(), t.den())),
        ),
        ("fix", d.fix_label.as_deref().into()),
    ])
}

/// `true` when a diagnostic of `severity` should fail the build on its
/// own (without an explicit `--deny`).
#[must_use]
pub fn fails_by_default(severity: Severity) -> bool {
    severity == Severity::Error
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lint;
    use lip_graph::{generate, SourceMap};

    #[test]
    fn human_render_mentions_rule_and_prediction() {
        let fig1 = generate::fig1();
        let diags = lint(&fig1.netlist, &SourceMap::new());
        let text = render_human("fig1", &diags);
        assert!(text.contains("warning[LIP004]"), "{text}");
        assert!(text.contains("info[LIP005]"), "{text}");
        assert!(text.contains("predicted steady-state throughput: 4/5"));
        assert!(text.contains("2 diagnostic(s)"));
    }

    #[test]
    fn clean_render_says_clean() {
        assert_eq!(render_human("x", &[]), "x: clean\n");
    }

    #[test]
    fn json_has_schema_version_and_balanced_braces() {
        let fig1 = generate::fig1();
        let diags = lint(&fig1.netlist, &SourceMap::new());
        let json = render_json(&[("fig1".to_owned(), diags)]);
        assert!(json.starts_with("{\n  \"schema_version\": 1,"), "{json}");
        assert!(json.contains("\"rule\": \"LIP004\""));
        let doc = lip_obs::json::parse(&json).unwrap();
        let diag = &doc.get("files").and_then(Json::as_arr).unwrap()[0]
            .get("diagnostics")
            .and_then(Json::as_arr)
            .unwrap()[0];
        assert_eq!(diag.get("rule").and_then(Json::as_str), Some("LIP004"));
        assert_eq!(diag.get("predicted_throughput"), Some(&Json::ratio(4, 5)));
        assert_eq!(
            doc.to_pretty(),
            json,
            "emit → parse → emit is byte-identical"
        );
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(Json::from("a\"b\\c\nd").to_compact(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn empty_file_list_renders() {
        let json = render_json(&[]);
        assert!(json.contains("\"files\": []"));
    }
}
