//! The checked-in budget baseline (`lint-baseline.toml`).
//!
//! The file holds one table, `[alloc-budget]`, which maps crypto
//! hot-path areas to the number of heap-allocation sites (`.to_vec()` /
//! `Vec::new()` / `.clone()`) allowed there (rule A1). The rule fails
//! when an area exceeds its budget; `--bless` regenerates the file and
//! only ever ratchets the numbers *down* — raising a budget is a
//! deliberate act done by editing the file by hand.
//!
//! The parser is a deliberately tiny TOML subset (named tables, `key =
//! integer` entries, `#` comments) so the linter stays dependency-free.

use std::collections::BTreeMap;
use std::path::Path;

/// File name of the baseline, relative to the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.toml";

/// Parsed baseline: the budget table keyed by area name.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    /// A1 budgets per hot-path area name.
    pub alloc_budgets: BTreeMap<String, usize>,
}

impl Baseline {
    /// Load the baseline from `root`, if present. Returns `Ok(None)`
    /// when the file does not exist.
    pub fn load(root: &Path) -> Result<Option<Baseline>, String> {
        let path = root.join(BASELINE_FILE);
        if !path.exists() {
            return Ok(None);
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Some(Baseline::parse(&text)?))
    }

    /// Parse baseline text. Tables other than `[alloc-budget]` are
    /// ignored.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut out = Baseline::default();
        let mut in_alloc = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                in_alloc = line == "[alloc-budget]";
                continue;
            }
            if !in_alloc {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "{BASELINE_FILE}:{}: expected `name = count`",
                    lineno + 1
                ));
            };
            let count: usize = value.trim().parse().map_err(|_| {
                format!(
                    "{BASELINE_FILE}:{}: `{}` is not a count",
                    lineno + 1,
                    value.trim()
                )
            })?;
            out.alloc_budgets.insert(key.trim().to_string(), count);
        }
        Ok(out)
    }

    /// Serialize to the canonical file format.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Heap-allocation budget per crypto hot-path area (gfw-lint rule A1).\n\
             # Counts cover `.to_vec()` / `Vec::new()` / `.clone()` in non-test\n\
             # code. Regenerate with `cargo run -p gfw-lint -- --bless`;\n\
             # blessing only ratchets budgets DOWN. Raising one is a hand edit.\n\
             \n[alloc-budget]\n",
        );
        for (name, count) in &self.alloc_budgets {
            out.push_str(&format!("{name} = {count}\n"));
        }
        out
    }

    /// Write the baseline file under `root`.
    pub fn store(&self, root: &Path) -> Result<(), String> {
        let path = root.join(BASELINE_FILE);
        std::fs::write(&path, self.render()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let b =
            Baseline::parse("# hi\n[alloc-budget]\nsscrypto = 7 # note\nshadowsocks-wire = 0\n")
                .unwrap();
        assert_eq!(b.alloc_budgets.get("sscrypto"), Some(&7));
        assert_eq!(b.alloc_budgets.get("shadowsocks-wire"), Some(&0));
        let again = Baseline::parse(&b.render()).unwrap();
        assert_eq!(again.alloc_budgets, b.alloc_budgets);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Baseline::parse("[alloc-budget]\nsscrypto three\n").is_err());
        assert!(Baseline::parse("[alloc-budget]\nsscrypto = lots\n").is_err());
    }

    #[test]
    fn other_tables_ignored() {
        let b = Baseline::parse("[other]\nx = 9\n[alloc-budget]\nsscrypto = 1\n").unwrap();
        assert_eq!(b.alloc_budgets.len(), 1);
    }
}
