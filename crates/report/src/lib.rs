//! **gem-report** — the convergence dashboard.
//!
//! The paper's central empirical claims are curves: GEM-A reaches the
//! accuracy target in fewer iterations than GEM-P (Tables 2–3), and
//! serving scales near-linearly (Fig. 6). The journals and `BENCH_*.json`
//! artifacts record exactly those curves — this crate is their consumer.
//! It reads everything the bench binaries leave behind and emits **one
//! self-contained HTML file** (inline SVG + inline CSS, no external
//! assets, opens from `file://` on an air-gapped host) with:
//!
//! * per-epoch charts from the training journals — Acc@10 GEM-A vs GEM-P
//!   overlay (with checkpoint/restore marks from the fault drill),
//!   steps/sec, loss proxy, norm drift, adaptive-refresh cadence;
//! * a bench-trajectory section rolling every `BENCH_*.json` into
//!   history tables with sparkline footers and host blocks.
//!
//! Built on the same rules as the rest of the workspace: std only, the
//! JSON oracle is [`gem_obs::json`], and the output is deterministic for
//! fixed inputs (inputs are sorted by file name, no timestamps) — so the
//! report itself is golden-testable. The `gem-report` binary wraps this
//! library and also hosts the offline streamed-trace → Chrome JSON
//! converter ([`gem_obs::read_trace_stream`]).

use gem_obs::json::{parse, JsonValue};
use std::path::Path;

pub mod bench;
pub mod series;
pub mod svg;

use series::TrainSeries;
use svg::Chart;

/// Everything found on disk that feeds one report.
#[derive(Default)]
pub struct ReportInputs {
    /// Parsed training journals, `(file_name, series)`, name-sorted.
    pub journals: Vec<(String, TrainSeries)>,
    /// Parsed bench artifacts, `(file_name, document)`, name-sorted.
    pub benches: Vec<(String, JsonValue)>,
}

/// A rendered report.
pub struct Report {
    /// The self-contained HTML document.
    pub html: String,
    /// The inline SVG charts, in document order (for gating/tests).
    pub charts: Vec<String>,
    /// Training journals consumed.
    pub journals: usize,
    /// Bench artifacts consumed.
    pub benches: usize,
}

/// Scan `dir` (non-recursively) for `journal_*.jsonl` training journals
/// and `BENCH_*.json` artifacts. Unreadable or non-training files are
/// skipped silently — the reporter is a consumer of whatever exists, not
/// a validator of what should.
///
/// # Errors
/// Only the directory listing itself can fail.
pub fn discover(dir: &Path) -> std::io::Result<ReportInputs> {
    let mut inputs = ReportInputs::default();
    let mut names: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in names {
        let path = dir.join(&name);
        if name.starts_with("journal_") && name.ends_with(".jsonl") {
            if let Ok(content) = std::fs::read_to_string(&path) {
                if let Some(series) = series::parse_train_journal(&content) {
                    inputs.journals.push((name, series));
                }
            }
        } else if name.starts_with("BENCH_") && name.ends_with(".json") {
            if let Ok(content) = std::fs::read_to_string(&path) {
                if let Ok(doc) = parse(&content) {
                    inputs.benches.push((name, doc));
                }
            }
        }
    }
    Ok(inputs)
}

/// Outcome of a successful [`emit_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmitOutcome {
    /// Charts rendered into the report.
    pub charts: usize,
    /// Training journals consumed.
    pub journals: usize,
    /// Bench artifacts consumed.
    pub benches: usize,
}

/// Discover journals/bench artifacts in `dir`, build the dashboard,
/// self-check it, and write `dir/report.html` — the one-call regenerate
/// path behind the bench harness's `gem_bench::emit_report`.
///
/// # Errors
/// A human-readable reason when nothing renderable exists in `dir`, the
/// rendered HTML fails the tag-balance self-check, or the write fails.
/// Callers decide whether that is fatal (benches log it and move on).
pub fn emit_into(dir: &Path) -> Result<EmitOutcome, String> {
    let inputs = discover(dir).map_err(|e| format!("cannot scan {}: {e}", dir.display()))?;
    let report = build_report(&inputs);
    if report.charts.is_empty() {
        return Err(format!(
            "no renderable journal_*.jsonl or BENCH_*.json in {}; run a bench with journals first",
            dir.display()
        ));
    }
    check_tag_balance(&report.html)
        .map_err(|e| format!("report failed well-formedness self-check: {e}"))?;
    std::fs::write(dir.join("report.html"), &report.html)
        .map_err(|e| format!("write report.html: {e}"))?;
    Ok(EmitOutcome {
        charts: report.charts.len(),
        journals: report.journals,
        benches: report.benches,
    })
}

/// Build the dashboard from parsed inputs.
pub fn build_report(inputs: &ReportInputs) -> Report {
    let mut charts = Vec::new();
    if let Some(chart) = accuracy_chart(inputs) {
        charts.push(chart.render());
    }
    type FieldOf = fn(&TrainSeries) -> &[f64];
    let per_epoch: [(&str, &str, FieldOf); 4] = [
        ("Training throughput", "steps / sec", |s| &s.steps_per_sec),
        ("Loss proxy", "mean loss proxy", |s| &s.loss_proxy),
        ("Norm drift", "Σ |Δ‖M‖| per epoch", |s| &s.drift_total),
        ("Adaptive refresh cadence", "refreshes / epoch", |s| &s.refreshes),
    ];
    for (title, y_label, field) in per_epoch {
        let mut chart = Chart::new(title, "epoch", y_label);
        for (_, s) in &inputs.journals {
            chart = chart.series(&s.label, s.points(field(s)));
        }
        if !chart.is_empty() {
            charts.push(chart.render());
        }
    }
    if let Some((_, s)) = inputs.journals.first() {
        let mut chart =
            Chart::new(&format!("Embedding norms ({})", s.label), "epoch", "Frobenius norm");
        for (matrix, values) in &s.norms {
            chart = chart.series(matrix, s.points(values));
        }
        if !chart.is_empty() {
            charts.push(chart.render());
        }
    }

    let mut html = String::with_capacity(64 * 1024);
    html.push_str(HTML_HEAD);
    html.push_str("<h1>ebsn-rec convergence dashboard</h1>\n");
    html.push_str(&format!(
        "<p class=\"meta\">{} training journal(s) · {} bench artifact(s) · {} chart(s)</p>\n",
        inputs.journals.len(),
        inputs.benches.len(),
        charts.len()
    ));
    for (name, s) in &inputs.journals {
        if s.skipped_lines > 0 {
            html.push_str(&format!(
                "<p class=\"warn\">{}: skipped {} unparseable line(s) (torn tail)</p>\n",
                svg::escape_xml(name),
                s.skipped_lines
            ));
        }
    }
    html.push_str("<section id=\"charts\">\n<h2>Convergence</h2>\n");
    if charts.is_empty() {
        html.push_str("<p class=\"warn\">no chartable journal or bench data found</p>\n");
    }
    for chart in &charts {
        html.push_str("<figure>");
        html.push_str(chart);
        html.push_str("</figure>\n");
    }
    html.push_str("</section>\n<section id=\"benches\">\n<h2>Bench trajectories</h2>\n");
    for (name, doc) in &inputs.benches {
        html.push_str(&bench::render_bench_section(name, doc));
    }
    html.push_str("</section>\n</body>\n</html>\n");

    Report { html, charts, journals: inputs.journals.len(), benches: inputs.benches.len() }
}

/// The Acc@10 overlay: accuracy curves live in `BENCH_convergence.json`
/// (journals record loss, not held-out accuracy); checkpoint cadence and
/// the restore point come from `BENCH_fault_drill.json`, rescaled from
/// steps to the convergence run's epoch axis. The marks are a different
/// run's positions — they annotate *where the checkpoint machinery acts*,
/// and are labeled as such.
fn accuracy_chart(inputs: &ReportInputs) -> Option<Chart> {
    let conv = inputs
        .benches
        .iter()
        .find(|(_, d)| d.get("bench").and_then(|b| b.as_str()) == Some("convergence_report"))
        .map(|(_, d)| d)?;
    let epoch_steps = conv.get("epoch_steps").and_then(|v| v.as_f64()).unwrap_or(1.0).max(1.0);
    let mut chart = Chart::new("Acc@10 per epoch (GEM-A vs GEM-P)", "epoch", "Acc@10");
    if let Some(target) = conv.get("target_accuracy_at_10").and_then(|v| v.as_f64()) {
        let max_epochs = conv.get("max_epochs").and_then(|v| v.as_f64()).unwrap_or(1.0);
        chart = chart.series("target", vec![(0.0, target), (max_epochs - 1.0, target)]);
    }
    for variant in conv.get("variants").and_then(|v| v.as_array()).unwrap_or(&[]) {
        let label = variant.get("variant").and_then(|v| v.as_str()).unwrap_or("?");
        let curve: Vec<(f64, f64)> = variant
            .get("accuracy_curve")
            .and_then(|v| v.as_array())
            .unwrap_or(&[])
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_f64().map(|a| (i as f64, a)))
            .collect();
        chart = chart.series(label, curve);
    }
    if let Some(drill) = inputs
        .benches
        .iter()
        .find(|(_, d)| d.get("bench").and_then(|b| b.as_str()) == Some("fault_drill"))
        .map(|(_, d)| d)
    {
        let cadence = drill.get("cadence").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let steps = drill.get("steps").and_then(|v| v.as_f64()).unwrap_or(0.0);
        if cadence > 0.0 {
            let mut at = cadence;
            while at <= steps {
                chart = chart.mark(at / epoch_steps, &format!("ckpt {}k", at / 1e3), "#bbbbbb");
                at += cadence;
            }
        }
        if let Some(restored) = drill.get("restored_steps").and_then(|v| v.as_f64()) {
            chart = chart.mark(
                restored / epoch_steps,
                &format!("restore {}k (drill)", restored / 1e3),
                "#d62728",
            );
        }
    }
    if chart.is_empty() {
        None
    } else {
        Some(chart)
    }
}

/// Verify that `html` (or an SVG fragment) has balanced, properly nested
/// tags — the cheap well-formedness oracle the CI smoke job runs over the
/// generated report.
///
/// # Errors
/// A description of the first imbalance: a close tag with no matching
/// open, a mismatched nesting pair, or tags left open at end of input.
pub fn check_tag_balance(html: &str) -> Result<(), String> {
    const VOID: [&str; 8] = ["area", "base", "br", "col", "hr", "img", "input", "meta"];
    let mut stack: Vec<String> = Vec::new();
    let bytes = html.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'<' {
            i += 1;
            continue;
        }
        let rest = &html[i..];
        if rest.starts_with("<!--") {
            i += rest.find("-->").ok_or("unterminated comment")? + 3;
            continue;
        }
        if rest.starts_with("<!") {
            i += rest.find('>').ok_or("unterminated doctype")? + 1;
            continue;
        }
        let end = rest.find('>').ok_or_else(|| format!("unterminated tag at byte {i}"))?;
        let inner = &rest[1..end];
        i += end + 1;
        if let Some(name) = inner.strip_prefix('/') {
            let name = name.trim().to_ascii_lowercase();
            match stack.pop() {
                Some(open) if open == name => {}
                Some(open) => return Err(format!("mismatched </{name}>, expected </{open}>")),
                None => return Err(format!("close tag </{name}> with empty stack")),
            }
        } else if !inner.ends_with('/') {
            let name: String = inner
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect::<String>()
                .to_ascii_lowercase();
            if !name.is_empty() && !VOID.contains(&name.as_str()) {
                stack.push(name);
            }
        }
    }
    if stack.is_empty() {
        Ok(())
    } else {
        Err(format!("unclosed tags at end of input: {stack:?}"))
    }
}

const HTML_HEAD: &str = concat!(
    "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\"/>\n",
    "<title>ebsn-rec convergence dashboard</title>\n<style>\n",
    "body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:72rem;",
    "padding:0 1rem;color:#1a1a2e;background:#fafafa}\n",
    "h1{font-size:1.5rem}h2{border-bottom:2px solid #ddd;padding-bottom:.25rem}\n",
    "h3{margin-top:2rem;font-family:ui-monospace,monospace}\n",
    "figure{margin:1rem 0;background:#fff;border:1px solid #e0e0e0;border-radius:6px;",
    "padding:.5rem;max-width:680px}\n",
    "svg.chart{width:100%;height:auto}\n",
    ".title{font-size:15px;font-weight:600}.tick{font-size:10px;fill:#666}\n",
    ".axis{font-size:11px;fill:#444}.legend{font-size:11px;fill:#333}\n",
    ".frame{fill:none;stroke:#999}.grid{stroke:#eee}\n",
    ".line{stroke-width:1.8}.mark{stroke-dasharray:4 3;stroke-width:1}\n",
    ".marklabel{font-size:9px}\n",
    "svg.spark .bar{fill:#1f77b4}\n",
    "table{border-collapse:collapse;margin:.5rem 0;font-size:13px}\n",
    "td,th{border:1px solid #ddd;padding:.2rem .5rem;text-align:right}\n",
    "th{background:#f0f0f4}table.facts td:first-child{text-align:left;",
    "font-family:ui-monospace,monospace;color:#555}\n",
    ".host{color:#555}.meta{color:#777}.warn{color:#b00;font-weight:600}\n",
    ".vals{color:#888;font-size:12px}\n",
    "</style>\n</head>\n<body>\n"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_balance_accepts_wellformed_and_rejects_torn_markup() {
        check_tag_balance("<div><p>hi<br/></p><svg><g/></svg></div>").unwrap();
        check_tag_balance("<!DOCTYPE html><!-- c --><b>x</b>").unwrap();
        assert!(check_tag_balance("<div><p></div>").is_err());
        assert!(check_tag_balance("<div>").is_err());
        assert!(check_tag_balance("</div>").is_err());
    }

    fn fixture_inputs() -> ReportInputs {
        let journal = concat!(
            "{\"journal\":\"train\",\"label\":\"GEM-A\",\"epoch_steps\":100}\n",
            "{\"epoch\":0,\"steps_per_sec\":50.0,\"loss_proxy\":0.9,\"refreshes\":2,",
            "\"refresh_ms\":1.0,\"drift.users\":0,\"drift.events\":0,\"drift.regions\":0,",
            "\"drift.times\":0,\"drift.words\":0,\"norm.users\":1,\"norm.events\":2,",
            "\"norm.regions\":3,\"norm.times\":4,\"norm.words\":5}\n",
            "{\"epoch\":1,\"steps_per_sec\":60.0,\"loss_proxy\":0.5,\"refreshes\":3,",
            "\"refresh_ms\":1.2,\"drift.users\":1,\"drift.events\":0,\"drift.regions\":0,",
            "\"drift.times\":0,\"drift.words\":0,\"norm.users\":1,\"norm.events\":2,",
            "\"norm.regions\":3,\"norm.times\":4,\"norm.words\":5}\n",
        );
        let conv = parse(
            "{\"bench\":\"convergence_report\",\"epoch_steps\":100,\"max_epochs\":2,\
             \"target_accuracy_at_10\":0.5,\"variants\":[\
             {\"variant\":\"GEM-A\",\"accuracy_curve\":[0.2,0.6]},\
             {\"variant\":\"GEM-P\",\"accuracy_curve\":[0.1,0.4]}]}",
        )
        .unwrap();
        let drill = parse(
            "{\"bench\":\"fault_drill\",\"cadence\":50,\"steps\":150,\"restored_steps\":100}",
        )
        .unwrap();
        ReportInputs {
            journals: vec![(
                "journal_gem_a.jsonl".into(),
                series::parse_train_journal(journal).unwrap(),
            )],
            benches: vec![
                ("BENCH_convergence.json".into(), conv),
                ("BENCH_fault_drill.json".into(), drill),
            ],
        }
    }

    #[test]
    fn report_is_selfcontained_with_overlay_marks_and_five_charts() {
        let report = build_report(&fixture_inputs());
        assert!(report.charts.len() >= 5, "only {} charts", report.charts.len());
        check_tag_balance(&report.html).expect("balanced html");
        for chart in &report.charts {
            check_tag_balance(chart).expect("balanced svg");
        }
        let acc = &report.charts[0];
        assert!(acc.contains("GEM-A") && acc.contains("GEM-P"), "accuracy overlay");
        assert!(acc.contains("ckpt") && acc.contains("restore"), "checkpoint marks");
        // Self-contained: no external fetches of any kind.
        for needle in ["http://", "https://", "src=", "href="] {
            let hits = report.html.matches(needle).count();
            let allowed = if needle == "http://" {
                report.html.matches("http://www.w3.org/2000/svg").count()
            } else {
                0
            };
            assert_eq!(hits, allowed, "external asset reference via {needle}");
        }
    }

    #[test]
    fn empty_inputs_still_produce_wellformed_html() {
        let report = build_report(&ReportInputs::default());
        assert_eq!(report.charts.len(), 0);
        check_tag_balance(&report.html).expect("balanced");
        assert!(report.html.contains("no chartable"));
    }
}
