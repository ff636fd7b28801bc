//! Where a result came from: compiler, source revision, CPU, core count.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root (the parent of this package).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

/// Every file under `dir` (recursively), for the source digest.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => files_under(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// FNV-1a digest over the paths and contents of the workspace sources
/// and manifests.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        files_under(&root.join(dir), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock"].map(|f| root.join(f)));
    files.sort();
    let mut h = crate::outputs::Fnv::new();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f).to_string_lossy();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h.word(b as u64);
        }
    }
    format!("src-{:016x}", h.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance fields as JSON object members (no braces).
pub fn fields(seed: u64) -> String {
    let root = repo_root();
    let rustc = command_line("rustc", &["--version"], &root).unwrap_or_else(|| "unknown".into());
    // `--dirty` marks a tree with uncommitted changes; the source digest
    // identifies the measured code either way.
    let commit = command_line("git", &["describe", "--always", "--dirty"], &root)
        .unwrap_or_else(|| "none".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "\"rustc\": {}, \"commit\": {}, \"source\": {}, \"cpu\": {}, \"nproc\": {nproc}, \"seed\": {seed}",
        json_str(&rustc),
        json_str(&commit),
        json_str(&source_digest(&root)),
        json_str(&cpu_model()),
    )
}
