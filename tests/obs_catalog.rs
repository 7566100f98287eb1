//! The name catalogs in `docs/OBSERVABILITY.md` match the names the code
//! records, both ways, so a series, span or region cannot be renamed,
//! added or dropped without its documentation. The code side is every
//! crate's non-test source (each file up to its `#[cfg(test)]` module,
//! comment lines skipped): metrics are its `"pas.…"` literals, spans the
//! names passed to `pas_obs::span` / `span_since`, coarse regions those
//! passed to `pas_obs::span` (which enters a region) or
//! `profile::scope`, and detail regions the `"sim.event.…"` literals the
//! simulation runner records its per-event-kind regions under.

use std::collections::BTreeSet;
use std::path::Path;

type Names = BTreeSet<String>;

fn source_lines() -> Vec<String> {
    fn walk(dir: &Path, lines: &mut Vec<String>) {
        for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            if path.is_dir() {
                walk(&path, lines);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                let live = text.split("#[cfg(test)]").next().unwrap();
                let code = live.lines().filter(|l| !l.trim_start().starts_with("//"));
                lines.extend(code.map(String::from));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut lines = Vec::new();
    walk(&root.join("src"), &mut lines);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        if !krate.ends_with("vendor") {
            walk(&krate.join("src"), &mut lines);
        }
    }
    lines
}

/// The string literals that directly follow `call` (e.g. `span(`) where
/// it is not the tail of a longer identifier.
fn literals_after(lines: &[String], call: &str) -> Names {
    let mut out = Names::new();
    for line in lines {
        let pieces: Vec<&str> = line.split(call).collect();
        for (before, after) in pieces.iter().zip(&pieces[1..]) {
            let longer_ident = before.ends_with(|c: char| c.is_alphanumeric() || c == '_');
            if let (false, Some(lit)) = (longer_ident, after.strip_prefix('"')) {
                out.insert(lit.split('"').next().unwrap().to_string());
            }
        }
    }
    out
}

fn doc() -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/OBSERVABILITY.md"))
        .unwrap()
}

/// The text after `heading` up to the next heading.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    let body = &doc[doc.find(heading).expect(heading) + heading.len()..];
    &body[..body.find("\n#").unwrap_or(body.len())]
}

fn backticked(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split('`').skip(1).step_by(2).map(String::from)
}

/// The backticked names in the first column of the table rows of `text`.
fn first_column(text: &str) -> Names {
    text.lines()
        .filter(|l| l.starts_with("| `"))
        .flat_map(|l| backticked(l.split('|').nth(1).unwrap()))
        .collect()
}

fn assert_same(what: &str, documented: Names, count: usize, recorded: Names) {
    assert_eq!(documented.len(), count, "{what} documented: {documented:?}");
    assert_eq!(documented, recorded, "{what}: docs (left) vs code (right)");
}

#[test]
fn metric_catalog_matches_code() {
    let lines = source_lines();
    let recorded = lines.iter().flat_map(|l| {
        let literals = l.split("\"pas.").skip(1);
        literals.map(|rest| format!("pas.{}", rest.split('"').next().unwrap()))
    });
    let documented = first_column(&doc()).into_iter();
    assert_same(
        "metrics",
        documented.filter(|n| n.starts_with("pas.")).collect(),
        27,
        recorded.collect(),
    );
}

#[test]
fn span_catalog_matches_code() {
    let lines = source_lines();
    let mut recorded = literals_after(&lines, "span(");
    recorded.extend(literals_after(&lines, "span_since("));
    assert_same(
        "spans",
        first_column(section(&doc(), "## Span catalog")),
        12,
        recorded,
    );
}

#[test]
fn region_catalog_matches_code() {
    let (doc, lines) = (doc(), source_lines());
    let catalog = section(&doc, "### Region catalog");
    let mut coarse = literals_after(&lines, "span(");
    coarse.extend(literals_after(&lines, "scope("));
    assert_same("coarse regions", first_column(catalog), 14, coarse);
    let detail = &catalog[catalog.find("Detail regions").expect("detail paragraph")..];
    let detail = backticked(detail.split("\n\n").next().unwrap()).filter(|n| n.starts_with(EVENT));
    let quoted = format!("\"{EVENT}");
    let recorded = lines.iter().flat_map(|l| {
        let literals = l.split(quoted.as_str()).skip(1);
        literals.map(|rest| format!("{EVENT}{}", rest.split('"').next().unwrap()))
    });
    assert_same("detail regions", detail.collect(), 7, recorded.collect());
}

/// The prefix of the detail regions: one per simulation event kind.
const EVENT: &str = "sim.event.";
