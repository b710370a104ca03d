//! Records the compiler and profile that built the harness, for the host
//! record written into every result file.

use std::process::Command;

fn main() {
    // Without this cargo reruns the script, and rebuilds the harness, whenever
    // any file under `benchmark/` changes, and every run writes `out/`.
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=WFBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=WFBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into())
    );
}
