//! A fixed reference computation that measures how fast the host runs.
//!
//! On a shared host the vCPUs slow by up to 1.6x for seconds to minutes
//! at a time under co-tenant load: identical runs of one seed differed by
//! 20% in p50 while the work done (model ms, colors) did not change. The
//! probe runs the same greedy coloring of the same graph on the client
//! thread between ops, and the wall-time metrics are scaled by how much
//! slower than [`REFERENCE_MS`] it ran. The probe is the benchmark's own
//! code, so no change to the program moves it; a change that slows the
//! program slows its ops and not the probe, and still shows.

use std::time::Instant;

/// Probe time the wall-time metrics are scaled to: about the probe's
/// median on an unloaded 2-vCPU Xeon host.
pub const REFERENCE_MS: f64 = 3.0;

/// Vertices and out-edges per vertex of the probe's graph: 2 MiB of
/// edges, enough to leave the caches closest to the core.
const VERTICES: usize = 1 << 16;
const DEGREE: usize = 8;

pub struct HostProbe {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    samples: Vec<f64>,
}

impl HostProbe {
    /// Builds the probe's graph from a fixed xorshift stream.
    pub fn new() -> HostProbe {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let targets = (0..VERTICES * DEGREE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % VERTICES as u64) as u32
            })
            .collect();
        HostProbe {
            offsets: (0..=VERTICES).map(|v| (v * DEGREE) as u32).collect(),
            targets,
            samples: Vec::new(),
        }
    }

    /// Runs the greedy coloring once and records its time in ms. It runs
    /// on the calling thread: a probe on every vCPU at once tracked the
    /// ops less closely and spread twice as wide itself.
    pub fn sample(&mut self) {
        let ms = greedy_ms(&self.offsets, &self.targets);
        self.samples.push(ms);
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// First-fit greedy coloring of the probe graph; returns its wall ms.
fn greedy_ms(offsets: &[u32], targets: &[u32]) -> f64 {
    let start = Instant::now();
    let mut colors = vec![u32::MAX; VERTICES];
    for v in 0..VERTICES {
        let mut used = [false; 64];
        for &u in &targets[offsets[v] as usize..offsets[v + 1] as usize] {
            if let Some(slot) = used.get_mut(colors[u as usize] as usize) {
                *slot = true;
            }
        }
        colors[v] = used.iter().position(|u| !u).unwrap_or(63) as u32;
    }
    std::hint::black_box(&colors);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_records_one_positive_sample_per_call() {
        let mut p = HostProbe::new();
        p.sample();
        p.sample();
        assert_eq!(p.samples().len(), 2);
        assert!(p.samples().iter().all(|&ms| ms > 0.0));
    }
}
