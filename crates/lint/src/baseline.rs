//! The checked-in budget baseline (`lint-baseline.toml`).
//!
//! The file holds two tables. `[panic-budget]` maps crate directory
//! names to the number of explicit panic sites (`unwrap()` / `expect(` /
//! `panic!` / `unreachable!`) allowed in that crate's non-test code
//! (rule P1). `[alloc-budget]` maps crypto hot-path areas to the number
//! of heap-allocation sites (`.to_vec()` / `Vec::new()` / `.clone()`)
//! allowed there (rule A1). Each rule fails when an area exceeds its
//! budget; `--bless` regenerates the file and only ever ratchets the
//! numbers *down* — raising a budget is a deliberate act done by
//! editing the file by hand.
//!
//! The parser is a deliberately tiny TOML subset (named tables, `key =
//! integer` entries, `#` comments) so the linter stays dependency-free.

use std::collections::BTreeMap;
use std::path::Path;

/// File name of the baseline, relative to the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.toml";

/// Parsed baseline: budget tables keyed by crate/area name.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    /// P1 budgets per crate directory name.
    pub budgets: BTreeMap<String, usize>,
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

    /// Parse baseline text.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        #[derive(PartialEq)]
        enum Table {
            None,
            Panic,
            Alloc,
        }
        let mut out = Baseline::default();
        let mut table = Table::None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                table = match line {
                    "[panic-budget]" => Table::Panic,
                    "[alloc-budget]" => Table::Alloc,
                    _ => Table::None,
                };
                continue;
            }
            if table == Table::None {
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
            let dest = match table {
                Table::Panic => &mut out.budgets,
                Table::Alloc => &mut out.alloc_budgets,
                Table::None => unreachable!(),
            };
            dest.insert(key.trim().to_string(), count);
        }
        Ok(out)
    }

    /// Serialize to the canonical file format.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Panic-site budget per crate (gfw-lint rule P1).\n\
             # Counts cover `unwrap()` / `expect(` / `panic!` / `unreachable!` in\n\
             # non-test code. Regenerate with `cargo run -p gfw-lint -- --bless`;\n\
             # blessing only ratchets budgets DOWN. Raising one is a hand edit.\n\
             \n[panic-budget]\n",
        );
        for (name, count) in &self.budgets {
            out.push_str(&format!("{name} = {count}\n"));
        }
        if !self.alloc_budgets.is_empty() {
            out.push_str(
                "\n# Heap-allocation budget per crypto hot-path area (rule A1).\n\
                 # Counts cover `.to_vec()` / `Vec::new()` / `.clone()` in non-test\n\
                 # code. Same ratchet: blessing only goes down.\n\
                 \n[alloc-budget]\n",
            );
            for (name, count) in &self.alloc_budgets {
                out.push_str(&format!("{name} = {count}\n"));
            }
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
        let b = Baseline::parse("# hi\n[panic-budget]\ncore = 3 # note\nnetsim = 0\n").unwrap();
        assert_eq!(b.budgets.get("core"), Some(&3));
        assert_eq!(b.budgets.get("netsim"), Some(&0));
        let again = Baseline::parse(&b.render()).unwrap();
        assert_eq!(again.budgets, b.budgets);
    }

    #[test]
    fn parse_roundtrip_with_alloc_table() {
        let b = Baseline::parse(
            "[panic-budget]\ncore = 3\n\n[alloc-budget]\nsscrypto = 7\nshadowsocks-wire = 2\n",
        )
        .unwrap();
        assert_eq!(b.budgets.get("core"), Some(&3));
        assert_eq!(b.alloc_budgets.get("sscrypto"), Some(&7));
        assert_eq!(b.alloc_budgets.get("shadowsocks-wire"), Some(&2));
        let again = Baseline::parse(&b.render()).unwrap();
        assert_eq!(again.budgets, b.budgets);
        assert_eq!(again.alloc_budgets, b.alloc_budgets);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Baseline::parse("[panic-budget]\ncore three\n").is_err());
        assert!(Baseline::parse("[panic-budget]\ncore = many\n").is_err());
        assert!(Baseline::parse("[alloc-budget]\nsscrypto = lots\n").is_err());
    }

    #[test]
    fn other_tables_ignored() {
        let b = Baseline::parse("[other]\nx = 9\n[panic-budget]\ncore = 1\n").unwrap();
        assert_eq!(b.budgets.len(), 1);
        assert!(b.alloc_budgets.is_empty());
    }
}
