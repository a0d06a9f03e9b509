//! Host steal accounting. On a shared virtual machine the host sometimes
//! deschedules this machine's CPUs for minutes at a time; wall times
//! measured meanwhile say more about the neighbours than about the
//! program. Timed phases are therefore reported net of host steal: each
//! phase is measured inside a [`Window`], and its wall-time samples are
//! scaled by the share of the window's wall time the process kept. Steal
//! is read from `/proc/stat` in 10 ms ticks, so windows span whole phases
//! (a setup, ten epochs of ingest, a query round, a recovery), never a
//! single call.

/// Clock ticks per second of `/proc/stat` (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// CPU time stolen from this machine so far, in seconds, summed over its
/// CPUs (the `steal` column of `/proc/stat`); 0 where there is none.
pub fn host_steal_secs() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|t| t.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// CPU time this process has used so far (`utime` + `stime` of
/// `/proc/self/stat`, every thread included), in seconds.
fn process_cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 1..];
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / USER_HZ)
        })
        .unwrap_or(0.0)
}

/// A stretch of wall time over which host steal is measured.
///
/// Steal accrues only on CPUs that want to run, and while this process
/// runs, it is the only thing on this machine that does. The wall time it
/// lost is the steal divided by how many of its threads were runnable:
/// its CPU demand, used plus stolen CPU time over wall time, at least 1.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    opened: std::time::Instant,
    steal: f64,
    cpu: f64,
}

impl Window {
    /// Opens a window now.
    pub fn open() -> Self {
        Window {
            opened: std::time::Instant::now(),
            steal: host_steal_secs(),
            cpu: process_cpu_secs(),
        }
    }

    /// The share of the window's wall time this process kept: wall time
    /// net of host steal, over wall time. 1 without steal.
    pub fn kept(&self) -> f64 {
        kept_share(
            self.opened.elapsed().as_secs_f64(),
            (host_steal_secs() - self.steal).max(0.0),
            (process_cpu_secs() - self.cpu).max(0.0),
        )
    }
}

/// The share of `wall` seconds a process kept when the host stole `steal`
/// CPU seconds while it used `cpu`. At most 90% counts as lost, which
/// bounds the error of the 10 ms tick counts on short windows.
fn kept_share(wall: f64, steal: f64, cpu: f64) -> f64 {
    if wall <= 0.0 {
        return 1.0;
    }
    let demand = ((cpu + steal) / wall).max(1.0);
    let lost = (steal / demand).min(0.9 * wall);
    (wall - lost) / wall
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_busy_thread_loses_all_the_steal() {
        // 1 s of wall, 0.2 s stolen, 0.8 s run: one thread was runnable.
        assert!((kept_share(1.0, 0.2, 0.8) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn two_busy_threads_share_the_steal() {
        // Both CPUs wanted to run for the whole second; each lost 0.2 s.
        assert!((kept_share(1.0, 0.4, 1.6) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn no_steal_keeps_everything() {
        assert_eq!(kept_share(1.0, 0.0, 0.5), 1.0);
        assert_eq!(kept_share(0.0, 0.0, 0.0), 1.0);
    }

    #[test]
    fn a_window_reads_a_share() {
        let kept = Window::open().kept();
        assert!((0.1..=1.0).contains(&kept));
    }
}
