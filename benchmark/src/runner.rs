//! Building and driving the `lsa-runner` binary as a child process:
//! wall-clock, waited-children CPU and polled peak RSS around each
//! invocation. What the runner is asked to do and how its output reads
//! is `sut.rs`'s business; this file only runs processes.

use crate::procfs;
use crate::sut;
use std::ffi::OsString;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How often the harness reads the runner's `/proc/<pid>/status` while
/// it waits. Each read costs tens of microseconds, so 5 ms keeps the
/// harness under 1 % of the CPU it shares with the runner's processes,
/// and adds 2.5 ms on average to an invocation of a second and more.
const POLL: Duration = Duration::from_millis(5);

/// The root of the checkout this harness was built in.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repo root")
}

/// Where the harness writes traces and runner output.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Every `LSA_*` variable in the environment. The harness refuses to
/// start when one is set and strips them from every child regardless:
/// the benchmark measures the defaults users get.
pub fn lsa_variables() -> Vec<OsString> {
    std::env::vars_os()
        .map(|(key, _)| key)
        .filter(|key| key.to_string_lossy().starts_with("LSA_"))
        .collect()
}

fn clean_command(program: impl AsRef<std::ffi::OsStr>) -> Command {
    let mut command = Command::new(program);
    for key in lsa_variables() {
        command.env_remove(key);
    }
    command
}

/// Build the runner with the repo's own release profile, into the
/// target directory this harness was built into, and return the
/// binary's path. A no-op build costs a fraction of a second; it is
/// never inside a timed span.
pub fn build_runner() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| format!("{} is not inside a cargo target directory", exe.display()))?;
    let output = clean_command("cargo")
        .args(["build", "--release", "--offline", "--quiet", "-p"])
        .arg(sut::RUNNER_PACKAGE)
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", target_dir)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawning cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "building {} failed:\n{}",
            sut::RUNNER_PACKAGE,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let binary = target_dir.join("release").join(sut::RUNNER_BINARY);
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("cargo built no {}", binary.display()))
    }
}

/// One finished runner invocation.
#[derive(Debug)]
pub struct Invocation {
    pub wall_s: f64,
    /// CPU of the runner and every process it waited for.
    pub cpu_s: f64,
    /// Last `VmHWM` reading of the runner process before it exited.
    pub peak_rss_mib: f64,
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
}

/// Run `binary args…` to completion. Standard output and error go to
/// files under [`out_dir`] (the output outgrows a pipe buffer, and the
/// harness must keep polling instead of draining a pipe).
pub fn invoke(binary: &Path, args: &[String]) -> std::io::Result<Invocation> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let (out_path, err_path) = (dir.join("runner.stdout"), dir.join("runner.stderr"));
    let cpu_before = procfs::self_cpu().waited_children_s;
    let started = Instant::now();
    let mut child = clean_command(binary)
        .args(args)
        .stdin(Stdio::null())
        .stdout(File::create(&out_path)?)
        .stderr(File::create(&err_path)?)
        .spawn()?;
    let mut peak_rss_mib = 0.0;
    let status = loop {
        if let Some(status) = child.try_wait()? {
            break status;
        }
        if let Some(mib) = procfs::vm_hwm_mib(child.id()) {
            peak_rss_mib = mib;
        }
        std::thread::sleep(POLL);
    };
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Invocation {
        wall_s,
        cpu_s: procfs::self_cpu().waited_children_s - cpu_before,
        peak_rss_mib,
        success: status.success(),
        stdout: std::fs::read_to_string(&out_path)?,
        stderr: std::fs::read_to_string(&err_path)?,
    })
}
