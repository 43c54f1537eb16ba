//! What the host reports about this process, the host calibration
//! loop, and the loopback echo probe, in a process of its own, that
//! tracks the host's speed.

use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100
/// on every mainstream Linux build).
const TICKS_PER_SEC: u64 = 100;

/// User + system CPU time of the whole process (every thread, live or
/// joined), in nanoseconds, at tick resolution.
///
/// # Errors
///
/// Fails when `/proc/self/stat` is missing or unreadable.
pub fn cpu_ns() -> io::Result<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) * (1_000_000_000 / TICKS_PER_SEC)),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unparsable /proc/self/stat",
        )),
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
///
/// # Errors
///
/// Fails when `/proc/self/status` is missing or lacks `VmHWM`.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
}

/// Runs a fixed, seeded CPU and memory loop that calls no code of the
/// system under test, and returns its wall time in milliseconds. The
/// loop does the same work on every call, so a change in its time is a
/// change in the host, not in the program.
#[must_use]
pub fn calib_ms() -> f64 {
    const WORDS: usize = 1 << 20; // 8 MiB: past the L2, into shared cache and DRAM
    const STEPS: u64 = 1 << 22;
    let t0 = Instant::now();
    let mut buf = vec![0u64; WORDS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (WORDS - 1);
        buf[j] = buf[j].wrapping_mul(31).wrapping_add(x ^ i);
    }
    black_box(buf.iter().fold(0u64, |a, &w| a ^ w));
    t0.elapsed().as_secs_f64() * 1e3
}

/// glibc's `mallopt` parameter for the mmap threshold.
const M_MMAP_THRESHOLD: i32 = -3;
/// glibc's initial mmap threshold, 128 KiB.
const MMAP_THRESHOLD: i32 = 128 * 1024;

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fixes glibc's mmap threshold at its initial 128 KiB for the whole
/// process. Left alone, glibc raises the threshold each time a large
/// block is freed, after which blocks of that size come from the heap of
/// the allocating thread's arena and stay resident once freed. Across a
/// run's set-ups, which encode the graph again and again on a thread of
/// their own, how much stays then depends on the seed's buffer sizes:
/// serve-zipf's `peak_rss_mb` read 43.4 to 51.5 MB over seeds 1–10, and
/// 36.0 to 36.1 MB with the threshold fixed. Fixed, every block of
/// 128 KiB or more is mapped on its own and unmapped when freed.
///
/// # Errors
///
/// Fails when the allocator refuses the setting.
pub fn fix_mmap_threshold() -> io::Result<()> {
    // SAFETY: `mallopt` takes two integers and only changes the
    // allocator's own settings.
    if unsafe { mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) } == 1 {
        Ok(())
    } else {
        Err(io::Error::other("mallopt refused the mmap threshold"))
    }
}

/// `SCHED_IDLE`, the Linux scheduling policy of the system under test's
/// threads (see [`lower_priority`]); the echo probe keeps the default.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Moves the calling thread to the `SCHED_IDLE` policy. Threads it
/// starts later inherit it. On a CPU shared with the echo probe, whose
/// threads keep the default policy, the probe preempts such a thread as
/// soon as it wakes, so program work still runnable when a probe starts
/// does not delay it.
///
/// # Errors
///
/// Fails when the kernel refuses the policy.
pub fn lower_priority() -> io::Result<()> {
    let priority: i32 = 0;
    // pid 0: the calling thread. `param` points at a `struct
    // sched_param`, whose only field is the int priority.
    // SAFETY: `priority` outlives the call, which only reads it.
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Bytes in one echo message.
const ECHO_BYTES: usize = 64;
/// The argument that turns the benchmark binary into the echo probe.
pub const PROBE_ARG: &str = "--echo-probe";

/// A loopback TCP echo pair in a process of its own: the benchmark
/// binary started again with [`PROBE_ARG`] (see [`serve_echo_probe`]).
/// It runs on the CPU the program runs on, so it sees the state that
/// CPU is in, but at a higher priority than the program's threads (see
/// [`lower_priority`]), so program work left runnable does not delay it.
/// One round trip ([`EchoProbe::rtt_ns`]) costs what the host charges for
/// a small loopback exchange between two threads (syscalls, wake-ups,
/// context switches) and runs no code of the system under test, so its
/// time changes with the host and not with the program.
pub struct EchoProbe {
    child: Child,
    to_probe: Option<ChildStdin>,
    from_probe: BufReader<ChildStdout>,
}

impl EchoProbe {
    /// Starts `exe` (the benchmark binary) as the probe and waits until
    /// it is ready. The probe inherits the caller's CPUs and scheduling
    /// policy.
    ///
    /// # Errors
    ///
    /// Fails when the probe cannot be started.
    pub fn start(exe: &Path) -> io::Result<Self> {
        let mut child = Command::new(exe)
            .arg(PROBE_ARG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let (Some(to_probe), Some(out)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("echo probe pipes missing"));
        };
        let mut probe = Self {
            child,
            to_probe: Some(to_probe),
            from_probe: BufReader::new(out),
        };
        match probe.reply()?.as_str() {
            "ready" => Ok(probe),
            other => Err(io::Error::other(format!("echo probe: {other:?}"))),
        }
    }

    /// The probe's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn reply(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.from_probe.read_line(&mut line)? == 0 {
            return Err(io::Error::other("echo probe exited"));
        }
        Ok(line.trim_end().to_string())
    }

    /// Has the probe time one round trip and returns it, in ns.
    ///
    /// # Errors
    ///
    /// Fails when the probe has gone.
    pub fn rtt_ns(&mut self) -> io::Result<u64> {
        let to = self
            .to_probe
            .as_mut()
            .ok_or_else(|| io::Error::other("echo probe stopped"))?;
        to.write_all(b"p\n")?;
        to.flush()?;
        let line = self.reply()?;
        line.parse()
            .map_err(|_| io::Error::other(format!("echo probe: {line:?}")))
    }
}

impl Drop for EchoProbe {
    /// Closes the probe's input, which ends it, and waits for it.
    fn drop(&mut self) {
        drop(self.to_probe.take());
        if self.child.wait().is_err() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The echo probe process: for every `p` line on standard input, times
/// one round trip to an echo partner thread and writes it, in ns, to
/// standard output. Says `ready` first, and ends when standard input
/// closes.
///
/// # Errors
///
/// Fails when the loopback socket cannot be set up or standard
/// input/output fail.
pub fn serve_echo_probe() -> io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let partner = std::thread::spawn(move || {
        let Ok((mut peer, _)) = listener.accept() else {
            return;
        };
        let _ = peer.set_nodelay(true);
        let mut buf = [0u8; ECHO_BYTES];
        while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
    });
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut out = io::stdout().lock();
    writeln!(out, "ready")?;
    out.flush()?;
    let mut buf = [0x5Au8; ECHO_BYTES];
    let mut served = Ok(());
    for line in io::stdin().lock().lines() {
        if line?.as_str() != "p" {
            break;
        }
        let t0 = Instant::now();
        served = stream
            .write_all(&buf)
            .and_then(|()| stream.read_exact(&mut buf));
        if served.is_err() {
            break;
        }
        writeln!(out, "{}", t0.elapsed().as_nanos())?;
        out.flush()?;
    }
    // Hanging up ends the partner.
    drop(stream);
    let _ = partner.join();
    served
}
