//! Device configuration: the knobs of the performance model.

/// Static description of the simulated GPU.
///
/// The default, [`DeviceConfig::k40c`], approximates the NVIDIA Tesla K40c
/// used in the paper's experimental setup. Constants are derived from the
/// public datasheet (15 SMX units, 745 MHz base clock, 288 GB/s GDDR5)
/// plus conventional microbenchmark figures for launch overhead and atomic
/// throughput. The reproduction's claims are about *relative* behaviour,
/// so tests pin orderings rather than absolute values.
#[derive(Clone, Copy, Debug)]
pub struct DeviceConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// SIMT width.
    pub warp_size: u32,
    /// Threads per block used when mapping a launch onto the grid.
    pub block_size: u32,
    /// Effective warps the device can retire per clock (issue throughput
    /// across all SMs). The compute-bound term divides total warp-cycles
    /// by this.
    pub warp_throughput: u32,
    /// Core clock in GHz; converts cycles to nanoseconds.
    pub clock_ghz: f64,
    /// Sustained DRAM bandwidth in bytes per core clock cycle.
    pub dram_bytes_per_cycle: f64,
    /// Bytes billed for a non-coalesced (scattered) scalar access.
    pub transaction_bytes: u64,
    /// Cycles a thread spends issuing one global memory access.
    pub mem_issue_cycles: u64,
    /// Cycles a thread spends on one atomic operation.
    pub atomic_issue_cycles: u64,
    /// Device-wide atomics retired per cycle (serialization term).
    pub atomic_throughput: f64,
    /// Fixed cycles billed per kernel launch (driver + implicit sync on
    /// the stream). ~4 µs at the K40c clock.
    pub launch_overhead_cycles: u64,
    /// Extra cycles billed by an explicit device-wide synchronization
    /// (e.g. `cudaDeviceSynchronize` between dependent operators).
    pub sync_overhead_cycles: u64,
    /// Host↔device copy: fixed latency cycles per call.
    pub memcpy_latency_cycles: u64,
    /// Host↔device copy: PCIe bandwidth in bytes per core clock cycle.
    pub pcie_bytes_per_cycle: f64,
}

impl DeviceConfig {
    /// NVIDIA Tesla K40c-like configuration (the paper's GPU).
    pub fn k40c() -> Self {
        DeviceConfig {
            num_sms: 15,
            warp_size: 32,
            block_size: 256,
            // 15 SMX x 4 schedulers ~ 60 warp-instructions per clock.
            warp_throughput: 60,
            clock_ghz: 0.745,
            // 288 GB/s / 0.745 GHz ~ 386 bytes per cycle.
            dram_bytes_per_cycle: 386.0,
            transaction_bytes: 32,
            mem_issue_cycles: 4,
            atomic_issue_cycles: 24,
            atomic_throughput: 16.0,
            // ~4 us launch overhead.
            launch_overhead_cycles: 3000,
            // ~1.5 us explicit sync.
            sync_overhead_cycles: 1100,
            // ~8 us latency per cudaMemcpy plus ~10 GB/s effective PCIe 3.
            memcpy_latency_cycles: 6000,
            pcie_bytes_per_cycle: 13.4,
        }
    }

    /// NVIDIA Tesla V100-like configuration (what the paper's evaluation
    /// might have looked like a GPU generation later): 80 SMs at
    /// 1.38 GHz, 900 GB/s HBM2, cheaper launches and atomics. Used by
    /// the cross-device ablation to check that the reproduction's
    /// conclusions are not artifacts of the K40c constants.
    pub fn v100() -> Self {
        DeviceConfig {
            num_sms: 80,
            warp_size: 32,
            block_size: 256,
            // 80 SMs x 4 schedulers.
            warp_throughput: 320,
            clock_ghz: 1.38,
            // 900 GB/s / 1.38 GHz ~ 652 bytes per cycle.
            dram_bytes_per_cycle: 652.0,
            transaction_bytes: 32,
            mem_issue_cycles: 4,
            atomic_issue_cycles: 12,
            atomic_throughput: 64.0,
            // ~2.5 us launch overhead at the higher clock.
            launch_overhead_cycles: 3500,
            sync_overhead_cycles: 1400,
            memcpy_latency_cycles: 9000,
            // ~12 GB/s effective PCIe 3 x16.
            pcie_bytes_per_cycle: 8.7,
        }
    }

    /// A tiny deterministic configuration for unit tests: one warp-wide
    /// block, unit costs, 1 GHz clock so cycles == nanoseconds.
    pub fn test_tiny() -> Self {
        DeviceConfig {
            num_sms: 2,
            warp_size: 4,
            block_size: 8,
            warp_throughput: 2,
            clock_ghz: 1.0,
            dram_bytes_per_cycle: 64.0,
            transaction_bytes: 32,
            mem_issue_cycles: 4,
            atomic_issue_cycles: 24,
            atomic_throughput: 4.0,
            launch_overhead_cycles: 100,
            sync_overhead_cycles: 50,
            memcpy_latency_cycles: 200,
            pcie_bytes_per_cycle: 4.0,
        }
    }

    /// Converts model cycles to model nanoseconds.
    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles / self.clock_ghz
    }

    /// Total warp-contexts resident at once (for documentation purposes;
    /// the model uses [`Self::warp_throughput`]).
    pub fn concurrent_warps(&self) -> u32 {
        self.num_sms * 64
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::k40c()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40c_constants_sane() {
        let c = DeviceConfig::k40c();
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.warp_size, 32);
        assert!(c.clock_ghz > 0.5 && c.clock_ghz < 1.0);
        // 386 B/cycle * 0.745 GHz ~ 288 GB/s.
        let gbps = c.dram_bytes_per_cycle * c.clock_ghz;
        assert!((gbps - 288.0).abs() < 10.0);
    }

    #[test]
    fn cycle_conversion() {
        let c = DeviceConfig::test_tiny();
        assert_eq!(c.cycles_to_ns(1000.0), 1000.0);
        let k = DeviceConfig::k40c();
        assert!(c.cycles_to_ns(745.0) < k.cycles_to_ns(745.0));
    }

    #[test]
    fn block_size_is_warp_multiple() {
        for c in [
            DeviceConfig::k40c(),
            DeviceConfig::v100(),
            DeviceConfig::test_tiny(),
        ] {
            assert_eq!(c.block_size % c.warp_size, 0);
        }
    }

    #[test]
    fn v100_outclasses_k40c() {
        let k = DeviceConfig::k40c();
        let v = DeviceConfig::v100();
        assert!(v.num_sms > k.num_sms);
        assert!(v.clock_ghz > k.clock_ghz);
        assert!(v.dram_bytes_per_cycle > k.dram_bytes_per_cycle);
        // 652 B/cycle * 1.38 GHz ~ 900 GB/s.
        let gbps = v.dram_bytes_per_cycle * v.clock_ghz;
        assert!((gbps - 900.0).abs() < 15.0);
    }
}
