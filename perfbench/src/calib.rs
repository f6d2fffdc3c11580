//! Host speed, measured beside every timed operation.
//!
//! The benchmark machine is a 2-vCPU share of a busy host. For a minute or
//! two at a time it runs CPU-bound code up to twice as slowly, in CPU time
//! as much as in wall time, so it is not steal. A run that falls in such a
//! phase reads slow in every percentile, and ten runs of the same code
//! then spread by more than any useful bound. So the harness times a fixed
//! reference kernel right beside each operation it measures, and
//! [`at_reference_speed`] rescales the operation's on-CPU share to the host
//! speed at which the kernel takes [`REFERENCE_MS`].
//!
//! The kernel does the kind of work `depkit` does on a spec: it parses
//! integers out of text, interns them in a hash map and sorts the distinct
//! values. It is the harness's own code, so no change to the program under
//! test can change it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time in ms on the machine the numbers in README.md were
/// recorded on, in its fast phases. Only the ratio of two runs' metrics
/// matters, so on other hardware this only scales every rescaled metric.
pub const REFERENCE_MS: f64 = 26.0;

/// Rows of the kernel's text; about `REFERENCE_MS` of work.
const ROWS: usize = 100_000;

/// Fx-style multiplicative hash: fast and deterministic, so the kernel's
/// work is the same in every process.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
}

/// The reference kernel over its fixed input.
pub struct Kernel {
    text: String,
}

impl Kernel {
    pub fn new() -> Kernel {
        let mut rng = crate::gen::Rng::new(0xCA11_B8A7E);
        let mut text = String::with_capacity(ROWS * 28);
        for i in 0..ROWS {
            let (a, b) = (rng.below(ROWS as u64 / 4), rng.below(1 << 20));
            text.push_str(&format!("row R {i} {a} {b}\n"));
        }
        Kernel { text }
    }

    /// One pass: parse, intern, sort. Returns a checksum of the result.
    pub fn run(&self) -> u64 {
        let mut ids: HashMap<i64, u32, BuildHasherDefault<FxHasher>> = HashMap::default();
        let mut column = Vec::new();
        for line in self.text.lines() {
            for field in line.split(' ').skip(2) {
                let v: i64 = field.parse().expect("the kernel's own text parses");
                let next = ids.len() as u32;
                column.push(*ids.entry(v).or_insert(next));
            }
        }
        let mut distinct: Vec<i64> = ids.into_keys().collect();
        distinct.sort_unstable();
        column.iter().map(|&id| u64::from(id)).sum::<u64>() ^ distinct.len() as u64
    }

    /// Time one pass, in ms.
    pub fn time_ms(&self) -> f64 {
        let t0 = Instant::now();
        black_box(self.run());
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Kernel passes interleaved with measured operations, so each operation
/// sits between the pass before it and the pass after it.
pub struct Bracket<'k> {
    kernel: &'k Kernel,
    last_ms: f64,
}

impl<'k> Bracket<'k> {
    /// Start with one pass, the "before" of the first operation.
    pub fn new(kernel: &'k Kernel) -> Bracket<'k> {
        Bracket {
            kernel,
            last_ms: kernel.time_ms(),
        }
    }

    /// Call right after an operation: one more pass, and the host speed
    /// around that operation as the mean of the passes either side (ms).
    pub fn after_op(&mut self) -> f64 {
        let now = self.kernel.time_ms();
        let around = (self.last_ms + now) / 2.0;
        self.last_ms = now;
        around
    }
}

/// `wall` with its on-CPU share `cpu` (clamped to `wall`) rescaled from
/// the host speed at which the kernel took `kernel_ms` to the speed at
/// which it takes [`REFERENCE_MS`]. Time spent off the CPU (waiting on a
/// timer, a socket or a disk) is kept as measured.
pub fn at_reference_speed(wall: f64, cpu: f64, kernel_ms: f64) -> f64 {
    let on_cpu = cpu.clamp(0.0, wall);
    wall - on_cpu + on_cpu * REFERENCE_MS / kernel_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_on_cpu_share_is_rescaled() {
        // A CPU-bound operation on a host running at half speed.
        assert_eq!(at_reference_speed(800.0, 800.0, 2.0 * REFERENCE_MS), 400.0);
        // CPU time beyond the wall time (two threads) counts as all of it.
        assert_eq!(at_reference_speed(800.0, 1200.0, 2.0 * REFERENCE_MS), 400.0);
        // A wait-bound operation keeps its waits.
        assert_eq!(at_reference_speed(264.0, 4.0, 2.0 * REFERENCE_MS), 262.0);
        assert_eq!(at_reference_speed(264.0, 0.0, 3.0 * REFERENCE_MS), 264.0);
        // At the reference speed nothing changes.
        assert_eq!(at_reference_speed(500.0, 300.0, REFERENCE_MS), 500.0);
    }

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let k = Kernel::new();
        assert_eq!(k.run(), k.run());
        assert_eq!(k.run(), Kernel::new().run());
        assert!(k.time_ms() > 0.0);
    }
}
