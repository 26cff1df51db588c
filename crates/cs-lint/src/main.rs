//! CLI for the workspace determinism lint.
//!
//! ```text
//! cs-lint [--root <dir>] [--json]
//! ```
//!
//! Exits 0 when the scan is clean, 1 when any unannotated finding
//! exists, 2 on usage or I/O errors. `--json` is hand-rolled (the
//! workspace has no serializer dependency).

use std::path::PathBuf;
use std::process::ExitCode;

use cs_lint::{engine, report};

struct Options {
    root: Option<PathBuf>,
    json: bool,
}

const USAGE: &str = "usage: cs-lint [--root <dir>] [--json]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--root" => {
                let dir = args
                    .next()
                    .ok_or_else(|| "--root needs a directory".to_string())?;
                opts.root = Some(PathBuf::from(dir));
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Finds the workspace root: the nearest ancestor of the current
/// directory whose `Cargo.toml` declares `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found above the current directory".to_string());
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let root = match opts.root.map(Ok).unwrap_or_else(find_workspace_root) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("cs-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let scan = match engine::scan_workspace(&root) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("cs-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    if opts.json {
        print!("{}", report::json(&scan));
    } else {
        print!("{}", report::human(&scan));
    }

    if scan.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
