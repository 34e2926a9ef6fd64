//! `gfw-lint` command-line entry point.
//!
//! ```text
//! gfw-lint [--root DIR] [--json] [--bless] [--explain RULE]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO error.

use gfw_lint::{bless, explain, report, run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    json: bool,
    bless: bool,
    explain: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        json: false,
        bless: false,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--bless" => args.bless = true,
            "--root" => {
                let dir = it.next().ok_or("--root needs a directory argument")?;
                args.root = Some(PathBuf::from(dir));
            }
            "--explain" => {
                let rule = it
                    .next()
                    .ok_or("--explain needs a rule ID (try `--explain W1`)")?;
                args.explain = Some(rule);
            }
            "--help" | "-h" => {
                println!(
                    "gfw-lint: workspace invariant checker\n\n\
                     USAGE: gfw-lint [--root DIR] [--json] [--bless] [--explain RULE]\n\n\
                     Rules: A1 allocation budget (crypto hot path), H1 workspace\n\
                     dependencies and lints, W1 wrapping-arithmetic discipline\n\
                     on the hot path. Clock, thread, heap and hash-order bans\n\
                     live in clippy.toml; SAFETY comments and panic sites are\n\
                     clippy lints; protocol constants are pinned by the\n\
                     protocol crates' own tests.\n\
                     Suppress one finding with `// gfwlint: allow(RULE)`.\n\n\
                     --root DIR     lint this workspace (default: nearest enclosing workspace)\n\
                     --json         machine-readable output (incl. per-function allocation sites)\n\
                     --bless        regenerate the A1 baseline (budgets only ratchet down)\n\
                     --explain RULE print a rule's rationale and escape hatch"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// Walk upward from the current directory to the nearest directory with
/// a `Cargo.toml` declaring `[workspace]`.
fn discover_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).unwrap_or_default();
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no enclosing Cargo workspace found (use --root)".to_string());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gfw-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match args.root.map(Ok).unwrap_or_else(discover_root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gfw-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(rule) = &args.explain {
        return match explain::explain(rule) {
            Some(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("gfw-lint: unknown rule `{rule}`\n{}", explain::index());
                ExitCode::from(2)
            }
        };
    }

    if args.bless {
        return match bless(&root) {
            Ok(msg) => {
                println!("gfw-lint: {msg}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("gfw-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    match run(&Options { root }) {
        Ok(rep) => {
            if args.json {
                print!("{}", report::render_json(&rep));
            } else {
                print!("{}", report::render_human(&rep));
            }
            if rep.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("gfw-lint: {e}");
            ExitCode::from(2)
        }
    }
}
