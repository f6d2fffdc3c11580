//! Outside-in counters, read without any dependency: `/proc` for a live
//! server, `getrusage(RUSAGE_CHILDREN)` in a small helper process for CLI
//! runs (see [`run_measured`]), and `TCP_INFO` on the benchmark's own
//! client sockets for what the server put on the wire.

use std::ffi::OsString;
use std::io;
use std::path::Path;
use std::process::{Command, ExitCode, Output, Stdio};
use std::time::{Duration, Instant};

/// First argument that turns the harness binary into the measuring helper.
pub const MEASURE_MODE: &str = "exec-measured";

/// What one measured child process cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildCost {
    /// Spawn to exit.
    pub wall: Duration,
    /// Peak resident set size (`ru_maxrss`), in KiB.
    pub max_rss_kib: u64,
    /// User plus system CPU time, over all its threads.
    pub cpu: Duration,
}

/// Run `program args` through `helper` (this harness binary, started in
/// [`MEASURE_MODE`]) and return the program's output and cost.
///
/// The peak RSS of a child cannot be read from a large process: at exec,
/// Linux folds the peak RSS of the address space being replaced into the
/// new program's `ru_maxrss`, and `posix_spawn` (like `fork`) starts the
/// child from the parent's address space. Every child of the harness would
/// then report at least the harness's own peak. The helper is freshly
/// exec'd and small, so what it reports for its one child is the child's.
pub fn run_measured(
    helper: &Path,
    cost_file: &Path,
    program: &Path,
    args: &[OsString],
) -> io::Result<(Output, ChildCost)> {
    let _ = std::fs::remove_file(cost_file);
    let out = Command::new(helper)
        .arg(MEASURE_MODE)
        .arg(cost_file)
        .arg(program)
        .args(args)
        .stdin(Stdio::null())
        .output()?;
    let text = std::fs::read_to_string(cost_file).map_err(|e| {
        io::Error::other(format!(
            "measuring helper wrote no cost ({e}): {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    })?;
    let cost = parse_cost(&text)
        .ok_or_else(|| io::Error::other(format!("unparseable child cost `{}`", text.trim())))?;
    Ok((out, cost))
}

/// The helper's side: `exec-measured COST_FILE PROGRAM [ARGS...]` runs
/// PROGRAM on this process's stdio, writes `<wall ns> <peak RSS KiB> <CPU ns>`
/// to COST_FILE and exits with PROGRAM's exit code.
pub fn exec_measured(args: &[String]) -> ExitCode {
    let [cost_file, program, rest @ ..] = args else {
        eprintln!("perfbench: usage: {MEASURE_MODE} COST_FILE PROGRAM [ARGS...]");
        return ExitCode::from(2);
    };
    let t0 = Instant::now();
    let status = match Command::new(program).args(rest).status() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot run {program}: {e}");
            return ExitCode::from(2);
        }
    };
    let wall = t0.elapsed();
    let written = children_usage().and_then(|(kib, cpu)| {
        let line = format!("{} {kib} {}\n", wall.as_nanos(), cpu.as_nanos());
        std::fs::write(cost_file, line)
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot record the cost of {program}: {e}");
        return ExitCode::from(2);
    }
    if status.success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(status.code().map_or(1, |c| c.clamp(1, 255) as u8))
    }
}

fn parse_cost(text: &str) -> Option<ChildCost> {
    let mut it = text.split_whitespace().map(str::parse::<u64>);
    let (Some(Ok(ns)), Some(Ok(kib)), Some(Ok(cpu)), None) =
        (it.next(), it.next(), it.next(), it.next())
    else {
        return None;
    };
    Some(ChildCost {
        wall: Duration::from_nanos(ns),
        max_rss_kib: kib,
        cpu: Duration::from_nanos(cpu),
    })
}

/// Bytes a live process has caused to be sent to the storage layer
/// (`write_bytes` of `/proc/<pid>/io`). Socket writes never count here,
/// so on a server this is its WAL and checkpoint traffic.
pub fn write_bytes(pid: u32) -> io::Result<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/io"))?;
    field(&text, "write_bytes:")
}

/// User plus system CPU time a live process has used so far
/// (`utime` + `stime` of `/proc/<pid>/stat`, in clock ticks).
pub fn cpu_time(pid: u32) -> io::Result<Duration> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let ticks = stat_cpu_ticks(&text)
        .ok_or_else(|| io::Error::other(format!("unparseable /proc/{pid}/stat")))?;
    Ok(Duration::from_secs_f64(ticks as f64 / clock_ticks_per_s()))
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name (field
/// 2) may hold spaces, so fields are counted after its closing `)`.
fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let mut after = stat.get(stat.rfind(')')? + 1..)?.split_whitespace();
    // Fields 3.. follow the name; utime and stime are fields 14 and 15.
    let utime: u64 = after.nth(11)?.parse().ok()?;
    let stime: u64 = after.next()?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(target_os = "linux")]
fn clock_ticks_per_s() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf reads a constant of the C library; no memory is passed.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

#[cfg(not(target_os = "linux"))]
fn clock_ticks_per_s() -> f64 {
    100.0
}

/// Peak resident set size (`VmHWM`) of a live process, in KiB.
pub fn vm_hwm_kib(pid: u32) -> io::Result<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    field(&text, "VmHWM:")
}

/// The first number after `key` at the start of a line of `text`.
fn field(text: &str, key: &str) -> io::Result<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| io::Error::other(format!("no `{key}` counter")))
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod rusage {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
    /// which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    const RUSAGE_CHILDREN: i32 = -1;

    /// Largest peak RSS (KiB) and total user + system CPU time of this
    /// process's waited-for children.
    pub fn children_usage() -> std::io::Result<(u64, std::time::Duration)> {
        let mut usage = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `usage` is a live, writable value with the C layout of
        // `struct rusage` on this target, and getrusage writes only it.
        let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
        if rc != 0 {
            return Err(std::io::Error::last_os_error());
        }
        let micros = |t: &Timeval| (t.sec.max(0) as u64) * 1_000_000 + t.usec.max(0) as u64;
        let cpu = std::time::Duration::from_micros(micros(&usage.utime) + micros(&usage.stime));
        Ok((usage.maxrss.max(0) as u64, cpu))
    }
}

/// Largest peak RSS among this process's waited-for children, in KiB, and
/// their CPU time. The peak includes this process's own (see
/// [`run_measured`]), so only the small measuring helper calls it.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub use rusage::children_usage;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_usage() -> io::Result<(u64, Duration)> {
    Err(io::Error::other("child RSS is read on 64-bit Linux only"))
}

#[cfg(target_os = "linux")]
mod tcp_info {
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;

    extern "C" {
        fn getsockopt(fd: i32, level: i32, name: i32, value: *mut u8, len: *mut u32) -> i32;
    }

    const IPPROTO_TCP: i32 = 6;
    const TCP_INFO: i32 = 11;
    /// Byte offset of `tcpi_data_segs_in` in `struct tcp_info` (Linux 4.6+).
    const DATA_SEGS_IN: usize = 152;

    pub fn data_segs_in(stream: &TcpStream) -> std::io::Result<u64> {
        let mut info = [0u8; 256];
        let mut len = info.len() as u32;
        // SAFETY: `info` is writable for `len` bytes and `len` points to a
        // live socklen_t-sized value; the kernel writes at most `len` bytes.
        let rc = unsafe {
            getsockopt(
                stream.as_raw_fd(),
                IPPROTO_TCP,
                TCP_INFO,
                info.as_mut_ptr(),
                &mut len,
            )
        };
        if rc != 0 {
            return Err(std::io::Error::last_os_error());
        }
        if (len as usize) < DATA_SEGS_IN + 4 {
            return Err(std::io::Error::other("tcp_info lacks tcpi_data_segs_in"));
        }
        let field = info[DATA_SEGS_IN..DATA_SEGS_IN + 4]
            .try_into()
            .expect("four bytes");
        Ok(u64::from(u32::from_ne_bytes(field)))
    }
}

/// Data-carrying TCP segments received so far on a client socket: how
/// many segments the server's replies were cut into on the wire.
#[cfg(target_os = "linux")]
pub use tcp_info::data_segs_in;

#[cfg(not(target_os = "linux"))]
pub fn data_segs_in(_: &std::net::TcpStream) -> io::Result<u64> {
    Err(io::Error::other("TCP_INFO is read on Linux only"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_parse_from_proc_text() {
        let io = "rchar: 10\nwchar: 20\nsyscr: 3\nsyscw: 4\nread_bytes: 0\nwrite_bytes: 4096\n";
        assert_eq!(field(io, "syscw:").unwrap(), 4);
        assert_eq!(field(io, "write_bytes:").unwrap(), 4096);
        assert!(field(io, "missing:").is_err());
        let status = "Name:\tdepkit\nVmPeak:\t  9000 kB\nVmHWM:\t    1234 kB\n";
        assert_eq!(field(status, "VmHWM:").unwrap(), 1234);
    }

    #[test]
    fn the_helpers_cost_line_parses() {
        assert_eq!(
            parse_cost("2500000000 392000 2400000000\n"),
            Some(ChildCost {
                wall: Duration::from_millis(2500),
                max_rss_kib: 392_000,
                cpu: Duration::from_millis(2400),
            })
        );
        assert_eq!(parse_cost(""), None);
        assert_eq!(parse_cost("12 x 3"), None);
        assert_eq!(parse_cost("1 2"), None);
        assert_eq!(parse_cost("1 2 3 4"), None);
    }

    #[test]
    fn cpu_ticks_parse_past_a_name_with_spaces() {
        let stat = "4242 (my depkit) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    150 25 0 0 20 0 3 0 1000 1000000 2000 18446744073709551615";
        assert_eq!(stat_cpu_ticks(stat), Some(175));
        assert_eq!(stat_cpu_ticks("4242 (x) S 1"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn own_counters_are_readable() {
        let pid = std::process::id();
        write_bytes(pid).unwrap();
        assert!(vm_hwm_kib(pid).unwrap() > 0);
        std::process::Command::new("true").status().unwrap();
        assert!(children_usage().unwrap().0 > 0);
        cpu_time(pid).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn data_segments_count_what_the_peer_sent() {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            let mut byte = [0u8; 1];
            for _ in 0..3 {
                s.read_exact(&mut byte).unwrap();
                s.write_all(b"reply\n").unwrap();
            }
        });
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let before = data_segs_in(&client).unwrap();
        let mut buf = [0u8; 6];
        for _ in 0..3 {
            client.write_all(b"q").unwrap();
            client.read_exact(&mut buf).unwrap();
        }
        peer.join().unwrap();
        assert_eq!(data_segs_in(&client).unwrap() - before, 3);
    }
}
