//! Rendering: human-readable text and `--json` output.
//!
//! JSON is serialized by hand — the linter is dependency-free on
//! principle (it is the tool that polices the dependency graph).

use crate::Report;

/// Render the human-readable report.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for finding in &report.findings {
        out.push_str(&format!("{finding}\n"));
    }
    for allow in &report.allows {
        out.push_str(&format!(
            "note: {}:{} suppressed {} via gfwlint: allow\n",
            allow.file, allow.line, allow.rule
        ));
    }
    if !report.alloc_counts.is_empty() {
        let counts: Vec<String> = report
            .alloc_counts
            .iter()
            .map(|(n, c)| format!("{n}={c}"))
            .collect();
        out.push_str(&format!("alloc sites (A1): {}\n", counts.join(" ")));
    }
    if report.is_clean() {
        out.push_str(&format!(
            "gfw-lint: clean ({} files scanned, {} allow escape(s) honored)\n",
            report.files_scanned,
            report.allows.len()
        ));
    } else {
        out.push_str(&format!(
            "gfw-lint: {} finding(s) across {} files ({} allow escape(s) honored)\n",
            report.findings.len(),
            report.files_scanned,
            report.allows.len()
        ));
    }
    out
}

/// Render the report as JSON.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
            json_str(f.rule),
            json_str(&f.file),
            f.line,
            json_str(&f.message)
        ));
    }
    out.push_str("\n  ],\n  \"allows\": [");
    for (i, a) in report.allows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}}}",
            json_str(&a.rule),
            json_str(&a.file),
            a.line
        ));
    }
    out.push_str("\n  ],\n  \"alloc_counts\": {");
    for (i, (name, count)) in report.alloc_counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}: {}", json_str(name), count));
    }
    out.push_str("\n  },\n  \"alloc_sites\": [");
    render_sites(&mut out, &report.alloc_sites);
    out.push_str(&format!(
        "\n  ],\n  \"files_scanned\": {},\n  \"clean\": {}\n}}\n",
        report.files_scanned,
        report.is_clean()
    ));
    out
}

/// Render the allocation-site array: each site names its enclosing
/// function, so `--json` consumers can aggregate per-function.
fn render_sites(out: &mut String, sites: &[crate::Site]) {
    for (i, s) in sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"function\": {}, \"token\": {}}}",
            json_str(&s.file),
            s.line,
            json_str(&s.function),
            json_str(&s.token)
        ));
    }
}

/// JSON string literal with escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_shape() {
        let mut report = Report::default();
        report.findings.push(Finding {
            rule: "W1",
            file: "crates/core/src/x.rs".into(),
            line: 3,
            message: "bad \"thing\"".into(),
        });
        report.files_scanned = 7;
        let json = render_json(&report);
        assert!(json.contains("\"rule\": \"W1\""));
        assert!(json.contains("\"line\": 3"));
        assert!(json.contains("\\\"thing\\\""));
        assert!(json.contains("\"clean\": false"));
    }

    #[test]
    fn human_clean_summary() {
        let report = Report {
            files_scanned: 4,
            ..Report::default()
        };
        assert!(render_human(&report).contains("clean (4 files"));
    }
}
