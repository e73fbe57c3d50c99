//! What the harness reads from `/proc`: process CPU time, peak RSS and
//! the host's CPU description. Parsing is split from reading so the
//! parsers are unit-tested on fixed text.

use std::fs;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields.
/// `USER_HZ` is 100 on every Linux ABI the repo builds for; `sysconf`
/// would need libc, which the offline build does not have.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds from one `/proc/<pid>/stat` line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTimes {
    /// utime + stime of the process itself (all its threads).
    pub own_s: f64,
    /// cutime + cstime: children the process has waited for, and theirs.
    pub waited_children_s: f64,
}

/// Parse a `/proc/<pid>/stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(line: &str) -> Option<CpuTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime..cstime are fields 14..17
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || fields.next()?.parse::<u64>().ok();
    let (utime, stime, cutime, cstime) = (tick()?, tick()?, tick()?, tick()?);
    Some(CpuTimes {
        own_s: (utime + stime) as f64 / TICKS_PER_SECOND,
        waited_children_s: (cutime + cstime) as f64 / TICKS_PER_SECOND,
    })
}

/// Parse the `VmHWM` (peak resident set) line of `/proc/<pid>/status`
/// into MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU model name and whether the `avx2` flag is present, from
/// `/proc/cpuinfo` text.
pub fn parse_cpuinfo(cpuinfo: &str) -> (String, bool) {
    let field = |name: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    let model = field("model name").unwrap_or_else(|| "unknown".into());
    let avx2 = field("flags").is_some_and(|flags| flags.split(' ').any(|f| f == "avx2"));
    (model, avx2)
}

/// CPU times of this process.
pub fn self_cpu() -> CpuTimes {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|line| parse_stat(&line))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak RSS of process `pid` in MiB, or `None` once it is gone.
pub fn vm_hwm_mib(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_mib(&status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let line = "4242 (lsa bench) x) S 1 4242 4242 0 -1 4194304 1200 300 0 0 \
                    1234 56 700 80 20 0 2 0 123456 1000000 250 18446744073709551615";
        let times = parse_stat(line).unwrap();
        assert_eq!(times.own_s, 12.90);
        assert_eq!(times.waited_children_s, 7.80);
        assert_eq!(parse_stat("no parenthesis here"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tlsa\nVmPeak:\t  999999 kB\nVmHWM:\t  235520 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(230.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tzombie\n"), None);
    }

    #[test]
    fn cpuinfo_yields_model_and_avx2() {
        let text =
            "processor\t: 0\nmodel name\t: Fast CPU @ 3GHz\nflags\t\t: fpu sse2 avx avx2 bmi2\n";
        assert_eq!(parse_cpuinfo(text), ("Fast CPU @ 3GHz".into(), true));
        let text = "model name\t: Old CPU\nflags\t\t: fpu sse2 avx\n";
        assert_eq!(parse_cpuinfo(text), ("Old CPU".into(), false));
        assert_eq!(parse_cpuinfo(""), ("unknown".into(), false));
    }

    #[test]
    fn live_reads_work_on_this_host() {
        assert!(self_cpu().own_s >= 0.0);
        assert!(vm_hwm_mib(std::process::id()).unwrap() > 0.0);
    }
}
