//! Records the rustc version and the repository commit in the binary, so
//! every result names the toolchain and the code it measured.

use std::fs;
use std::path::Path;
use std::process::Command;

/// The commit `HEAD` names in `git_dir`, read from the files git keeps
/// there (a checkout without `.git` has no commit to report).
fn commit(git_dir: &Path) -> Option<String> {
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    let loose = git_dir.join(reference);
    if let Ok(id) = fs::read_to_string(&loose) {
        println!("cargo:rerun-if-changed={}", loose.display());
        return Some(id.trim().to_string());
    }
    fs::read_to_string(git_dir.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| {
            l.strip_suffix(reference)?
                .strip_suffix(' ')
                .map(str::to_string)
        })
}

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let git_dir = Path::new("../.git");
    if git_dir.join("HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
    let commit = commit(git_dir).unwrap_or_else(|| "unknown".to_string());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
}
