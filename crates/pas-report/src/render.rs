//! Deterministic Markdown and JSON renderings of a [`Report`].
//!
//! Both renderers are pure functions of the report — no timestamps, no
//! host names, no locale — so the same batch renders to the same bytes
//! on every machine, thread count, and cache state. CI diffs the
//! Markdown against a committed golden on exactly that promise.

use crate::report::{Report, Source, REPORT_SCHEMA_VERSION};
use crate::stats::{BOOTSTRAP_RESAMPLES, CONFIDENCE};
use pas_scenario::json::quote;
use std::fmt::Write as _;

/// Escape Markdown table-breaking characters in a label.
fn md_cell(raw: &str) -> String {
    raw.replace('|', "\\|").replace(['\n', '\r'], " ")
}

/// Render the report as a Markdown document.
pub fn render_md(report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# pas-report — {}", md_cell(&report.scenario));
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "- source: {} ({} runs, {} cells)",
        report.source.as_str(),
        report.total_runs,
        report.cells.len()
    );
    match report.source {
        Source::Records => {
            let _ = writeln!(
                out,
                "- intervals: {:.0}% bootstrap CIs, {BOOTSTRAP_RESAMPLES} resamples, fixed seed",
                CONFIDENCE * 100.0
            );
        }
        Source::Summaries => {
            let _ = writeln!(
                out,
                "- intervals: {:.0}% normal approximation (means-only input)",
                CONFIDENCE * 100.0
            );
        }
    }
    if let Some((a, b)) = &report.compared {
        let _ = writeln!(
            out,
            "- comparison: {} − {}, paired by seed",
            md_cell(a),
            md_cell(b)
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "## Per-cell statistics");
    let _ = writeln!(out);

    let has_extra = report.cells.iter().any(|c| !c.extra.is_empty());
    let with_miss = report.source == Source::Records;
    let x_label = md_cell(&report.x_label);
    let mut header = format!("| {x_label} | policy |");
    let mut rule = "|---:|:---|".to_string();
    if has_extra {
        header.push_str(" assignments |");
        rule.push_str(":---|");
    }
    header.push_str(" n | delay mean (s) | delay 95% CI | energy mean (J) | energy 95% CI |");
    rule.push_str("---:|---:|:---:|---:|:---:|");
    if with_miss {
        header.push_str(" miss rate |");
        rule.push_str("---:|");
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{rule}");
    for c in &report.cells {
        let mut row = format!("| {} | {} |", c.x, md_cell(&c.policy));
        if has_extra {
            let _ = write!(row, " {} |", md_cell(&c.extra.join("; ")));
        }
        let _ = write!(
            row,
            " {} | {:.3} | [{:.3}, {:.3}] | {:.3} | [{:.3}, {:.3}] |",
            c.n,
            c.delay.mean,
            c.delay.ci_lo,
            c.delay.ci_hi,
            c.energy.mean,
            c.energy.ci_lo,
            c.energy.ci_hi
        );
        if with_miss {
            let _ = write!(row, " {:.1}% |", c.miss_rate * 100.0);
        }
        let _ = writeln!(out, "{row}");
    }

    if let Some((a, b)) = &report.compared {
        let _ = writeln!(out);
        let _ = writeln!(out, "## {} − {} (paired by seed)", md_cell(a), md_cell(b));
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Negative Δdelay means `{}` detects earlier than `{}` on the same \
             seed; an interval excluding zero is marked significant.",
            md_cell(a),
            md_cell(b)
        );
        let _ = writeln!(out);
        let mut header = format!("| {x_label} |");
        let mut rule = "|---:|".to_string();
        if has_extra {
            header.push_str(" assignments |");
            rule.push_str(":---|");
        }
        header
            .push_str(" pairs | Δdelay (s) | 95% CI | signif. | Δenergy (J) | 95% CI | signif. |");
        rule.push_str("---:|---:|:---:|:---:|---:|:---:|:---:|");
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{rule}");
        for c in &report.comparisons {
            let mut row = format!("| {} |", c.x);
            if has_extra {
                let _ = write!(row, " {} |", md_cell(&c.extra.join("; ")));
            }
            let _ = writeln!(
                out,
                "{row} {} | {:.3} | [{:.3}, {:.3}] | {} | {:.3} | [{:.3}, {:.3}] | {} |",
                c.n_pairs,
                c.delay.mean,
                c.delay.ci_lo,
                c.delay.ci_hi,
                if c.delay.significant { "yes" } else { "no" },
                c.energy.mean,
                c.energy.ci_lo,
                c.energy.ci_hi,
                if c.energy.significant { "yes" } else { "no" },
            );
        }
    }
    out
}

/// Render the report as machine-readable JSON (`report.json`).
pub fn render_json(report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema_version\": {REPORT_SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"scenario\": {},", quote(&report.scenario));
    let _ = writeln!(out, "  \"x_label\": {},", quote(&report.x_label));
    let _ = writeln!(out, "  \"source\": {},", quote(report.source.as_str()));
    let _ = writeln!(out, "  \"total_runs\": {},", report.total_runs);
    let _ = writeln!(out, "  \"confidence\": {CONFIDENCE},");
    let _ = writeln!(out, "  \"resamples\": {BOOTSTRAP_RESAMPLES},");
    match &report.compared {
        Some((a, b)) => {
            let _ = writeln!(out, "  \"compare\": [{}, {}],", quote(a), quote(b));
        }
        None => {
            let _ = writeln!(out, "  \"compare\": null,");
        }
    }
    let assignments_json = |extra: &[String]| -> String {
        let items: Vec<String> = extra.iter().map(|e| quote(e)).collect();
        format!("[{}]", items.join(","))
    };
    let cells: Vec<String> = report
        .cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"x\":{},\"policy\":{},\"assignments\":{},\"n\":{},\
                 \"delay\":{{\"mean\":{},\"std\":{},\"ci_lo\":{},\"ci_hi\":{},\"min\":{},\"max\":{}}},\
                 \"energy\":{{\"mean\":{},\"std\":{},\"ci_lo\":{},\"ci_hi\":{},\"min\":{},\"max\":{}}},\
                 \"reached\":{},\"detected\":{},\"missed\":{},\"miss_rate\":{}}}",
                c.x,
                quote(&c.policy),
                assignments_json(&c.extra),
                c.n,
                c.delay.mean,
                c.delay.std,
                c.delay.ci_lo,
                c.delay.ci_hi,
                c.delay.min,
                c.delay.max,
                c.energy.mean,
                c.energy.std,
                c.energy.ci_lo,
                c.energy.ci_hi,
                c.energy.min,
                c.energy.max,
                c.reached,
                c.detected,
                c.missed,
                c.miss_rate,
            )
        })
        .collect();
    let _ = writeln!(out, "  \"cells\": [\n{}\n  ],", cells.join(",\n"));
    let comparisons: Vec<String> = report
        .comparisons
        .iter()
        .map(|c| {
            format!(
                "    {{\"x\":{},\"assignments\":{},\"n_pairs\":{},\
                 \"delay\":{{\"mean\":{},\"ci_lo\":{},\"ci_hi\":{},\"significant\":{}}},\
                 \"energy\":{{\"mean\":{},\"ci_lo\":{},\"ci_hi\":{},\"significant\":{}}}}}",
                c.x,
                assignments_json(&c.extra),
                c.n_pairs,
                c.delay.mean,
                c.delay.ci_lo,
                c.delay.ci_hi,
                c.delay.significant,
                c.energy.mean,
                c.energy.ci_lo,
                c.energy.ci_hi,
                c.energy.significant,
            )
        })
        .collect();
    if comparisons.is_empty() {
        let _ = writeln!(out, "  \"comparisons\": []");
    } else {
        let _ = writeln!(
            out,
            "  \"comparisons\": [\n{}\n  ]",
            comparisons.join(",\n")
        );
    }
    let _ = writeln!(out, "}}");
    out
}
