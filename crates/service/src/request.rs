//! Request and response types for the coloring service.

use std::sync::Arc;
use std::time::Duration;

use gc_core::color::Coloring;
use gc_core::verify::Violation;
use gc_graph::Csr;
use gc_vgpu::ProfileReport;

/// What the caller wants optimized — the axis of the paper's Figure 1
/// time/quality trade-off. The policy engine maps each objective to a
/// concrete implementation (see [`crate::policy`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize model time; color count is secondary (Naumov/Color_CC
    /// territory: the paper's fastest implementation, most colors).
    Fastest,
    /// Minimize the number of colors; time is secondary
    /// (GraphBLAST/Color_MIS territory: best quality, slowest).
    FewestColors,
    /// The knee of the trade-off curve (Gunrock/Color_IS territory).
    Balanced,
    /// The quality tier: run `Naumov/Color_CC`, the same base as
    /// [`Objective::Fastest`] (or sequential greedy on tiny graphs — see
    /// [`crate::policy::choose`]), then spend up to `budget_ms` of
    /// *model* time squeezing colors out with the iterated-greedy
    /// [`gc_core::reduce::reduce_colors`] post-pass. `budget_ms: 0`
    /// skips the post-pass entirely. A prior cached run of the same base
    /// colorer (under any objective, so a `Fastest` run under the same
    /// seed too) seeds the post-pass without a recolor; reduced results are
    /// cached under their own budget-tagged key so they never shadow
    /// base entries (see [`crate::cache::CacheKey::reduce_budget_ms`]).
    MinColors {
        /// Model-time budget for the color-reduction post-pass, in
        /// whole milliseconds (integral so the objective stays `Eq` +
        /// `Hash` for stats keys and the cache).
        budget_ms: u64,
    },
    /// Escape hatch: run exactly this registered implementation
    /// (resolved through `gc_core::runner::colorer_by_name`, which also
    /// covers the §VI extension registry).
    Explicit(String),
}

impl Objective {
    /// Short stable label used in stats keys and workload tables.
    pub fn label(&self) -> &str {
        match self {
            Objective::Fastest => "fastest",
            Objective::FewestColors => "fewest-colors",
            Objective::Balanced => "balanced",
            Objective::MinColors { .. } => "min-colors",
            Objective::Explicit(name) => name,
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A unit of work submitted to the service.
#[derive(Clone, Debug)]
pub struct ColorRequest {
    /// The graph to color. `Arc` so many requests (and the cache) can
    /// share one copy.
    pub graph: Arc<Csr>,
    pub objective: Objective,
    /// Seed forwarded to the chosen algorithm; the same (graph,
    /// objective, seed) triple always produces the same coloring.
    pub seed: u64,
    /// Wall-clock budget measured from submission. A request still
    /// queued past its deadline is shed instead of run.
    pub deadline: Option<Duration>,
    /// Pre-computed graph fingerprint for the result-cache key. `None`
    /// (the default) makes the worker hash the CSR itself (`O(E)`);
    /// front-ends that track graph identity — e.g. `gc-net`'s
    /// version-lineage fingerprints, which cost `O(Δ)` per mutation —
    /// pass it here so a cache hit never rehashes the whole graph. The
    /// caller owns the contract that the fingerprint identifies this
    /// exact adjacency structure.
    pub fingerprint: Option<u64>,
}

impl ColorRequest {
    pub fn new(graph: Arc<Csr>, objective: Objective) -> Self {
        ColorRequest {
            graph,
            objective,
            seed: 0,
            deadline: None,
            fingerprint: None,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Uses `fp` as the cache-key graph fingerprint instead of hashing
    /// the CSR (see [`ColorRequest::fingerprint`]).
    pub fn with_fingerprint(mut self, fp: u64) -> Self {
        self.fingerprint = Some(fp);
        self
    }
}

/// Metrics derived from the run's [`ProfileReport`], flattened so
/// responses stay cheap to copy around.
#[derive(Clone, Debug, Default)]
pub struct RequestMetrics {
    /// Kernel launches performed by the coloring run (0 for CPU paths).
    pub kernel_launches: u64,
    /// Total simulated thread executions across all launches — the
    /// work metric the incremental-recolor path is judged against
    /// (repairing a small delta must execute far fewer threads than a
    /// from-scratch recolor).
    pub thread_executions: u64,
    /// Device synchronizations.
    pub syncs: u64,
    /// Host<->device transfers.
    pub memcpys: u64,
    pub memcpy_bytes: u64,
    /// Total modeled cycles of the coloring run.
    pub model_cycles: f64,
    /// Kernel name with the largest share of model time, if any.
    pub hottest_kernel: Option<String>,
    /// Fraction of model time spent in `hottest_kernel`.
    pub hottest_fraction: f64,
}

impl RequestMetrics {
    pub fn from_profile(p: &ProfileReport) -> Self {
        let hottest = p
            .by_kernel
            .iter()
            .max_by(|a, b| a.1.total_cycles.total_cmp(&b.1.total_cycles))
            .map(|(name, s)| (name.clone(), s.total_cycles));
        let (hottest_kernel, hottest_fraction) = match hottest {
            Some((name, cycles)) if p.clock_cycles > 0.0 => (Some(name), cycles / p.clock_cycles),
            _ => (None, 0.0),
        };
        RequestMetrics {
            kernel_launches: p.launches,
            thread_executions: p.thread_executions,
            syncs: p.syncs,
            memcpys: p.memcpys,
            memcpy_bytes: p.memcpy_bytes,
            model_cycles: p.clock_cycles,
            hottest_kernel,
            hottest_fraction,
        }
    }
}

/// A completed coloring.
#[derive(Clone, Debug)]
pub struct ColorResponse {
    pub coloring: Coloring,
    pub num_colors: u32,
    /// Name of the implementation that produced the coloring.
    pub colorer: &'static str,
    pub objective: Objective,
    /// Modeled runtime of the coloring algorithm in milliseconds (the
    /// unit the paper reports). Cache hits carry the original run's time.
    pub model_ms: f64,
    pub iterations: u32,
    /// Whether this response was served from the result cache.
    pub cache_hit: bool,
    /// `true` — every response is verified proper before it is returned
    /// (improper colorings become [`ServiceError::ImproperColoring`]).
    pub verified: bool,
    /// Virtual devices the coloring ran on. 1 for the single-device
    /// path; >1 means the service sharded the graph via `gc_shard` and
    /// the response carries the merged, conflict-resolved coloring.
    pub devices: usize,
    /// Boundary-conflict resolution rounds the sharded path needed
    /// (0 on the single-device path and for boundary-free partitions).
    pub conflict_rounds: u32,
    /// Full-replication halo volume: what the conflict rounds would
    /// move if every round re-broadcast every boundary color to every
    /// peer (0 when devices=1).
    pub halo_bytes: u64,
    /// Bytes the delta halo exchange actually moved device-to-device
    /// (0 when devices=1).
    pub halo_bytes_delta: u64,
    /// Boundary vertices recolored across all conflict rounds.
    pub changed_boundary: u64,
    /// Fraction of async halo-transfer cycles hidden behind compute
    /// (0.0 when devices=1 or no async transfer ran).
    pub overlap_ratio: f64,
    /// Distinct colors before the `MinColors` reduction post-pass ran
    /// (0 when no post-pass ran — all non-`MinColors` objectives).
    pub colors_before: u32,
    /// Distinct colors after the post-pass; equals `num_colors` when a
    /// post-pass ran, 0 otherwise.
    pub colors_after: u32,
    /// Reduction sweeps the post-pass executed before converging or
    /// exhausting its budget (0 when no post-pass ran).
    pub reduction_passes: u32,
    pub metrics: RequestMetrics,
}

/// Why a request did not produce a coloring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded admission queue was full (`try_submit` only —
    /// blocking `submit` applies backpressure instead).
    QueueFull { capacity: usize },
    /// The request was still queued when its deadline expired; the
    /// service shed it without running the algorithm.
    DeadlineExceeded { queued_ms: u64 },
    /// `Objective::Explicit` named an implementation that is not in the
    /// registry (neither Figure 1 nor the extension set).
    UnknownColorer(String),
    /// The algorithm produced an improper coloring (should never happen;
    /// kept as a hard failure rather than a silent bad answer).
    ImproperColoring(Violation),
    /// The service shut down before the request completed.
    ShuttingDown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            ServiceError::DeadlineExceeded { queued_ms } => {
                write!(f, "deadline exceeded after {queued_ms} ms in queue")
            }
            ServiceError::UnknownColorer(name) => write!(f, "unknown colorer {name:?}"),
            ServiceError::ImproperColoring(v) => write!(f, "improper coloring: {v}"),
            ServiceError::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_labels() {
        assert_eq!(Objective::Fastest.label(), "fastest");
        assert_eq!(
            Objective::Explicit("Naumov/Color_CC".into()).label(),
            "Naumov/Color_CC"
        );
        assert_eq!(Objective::Balanced.to_string(), "balanced");
        assert_eq!(Objective::MinColors { budget_ms: 5 }.label(), "min-colors");
    }

    #[test]
    fn request_builder() {
        let g = Arc::new(gc_graph::generators::cycle(4));
        let r = ColorRequest::new(g, Objective::Balanced)
            .with_seed(7)
            .with_deadline(Duration::from_millis(100));
        assert_eq!(r.seed, 7);
        assert_eq!(r.deadline, Some(Duration::from_millis(100)));
    }

    #[test]
    fn error_display() {
        let e = ServiceError::QueueFull { capacity: 4 };
        assert!(e.to_string().contains("capacity 4"));
        assert!(ServiceError::ShuttingDown
            .to_string()
            .contains("shutting down"));
    }
}
