//! Coloring validity checking.

use gc_graph::Csr;

/// Checks that `colors` is a *proper, complete* coloring of `g`: every
/// vertex colored (non-zero) and no edge monochromatic. Returns the first
/// violation found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Vertex left uncolored.
    Uncolored(u32),
    /// Edge with equal endpoint colors.
    Conflict(u32, u32),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Uncolored(v) => write!(f, "vertex {v} is uncolored"),
            Violation::Conflict(u, v) => write!(f, "edge ({u}, {v}) is monochromatic"),
        }
    }
}

/// Validates a coloring; `Ok(())` when proper and complete.
pub fn is_proper(g: &Csr, colors: &[u32]) -> Result<(), Violation> {
    assert_eq!(
        colors.len(),
        g.num_vertices(),
        "color array length mismatch"
    );
    for (v, &c) in colors.iter().enumerate() {
        if c == 0 {
            return Err(Violation::Uncolored(v as u32));
        }
    }
    for (u, v) in g.edges() {
        if colors[u as usize] == colors[v as usize] {
            return Err(Violation::Conflict(u, v));
        }
    }
    Ok(())
}

/// Validates `colors` at `vertices` only: none of them is uncolored and
/// no edge with an endpoint among them is monochromatic. Costs the sum
/// of their degrees, not `O(E)`.
///
/// This equals [`is_proper`] whenever the rest of the coloring is known
/// to be proper — e.g. a coloring that was proper on the graph before
/// an edge delta and has changed only at `vertices`, where `vertices`
/// holds both endpoints of every inserted edge (deleting an edge cannot
/// make a coloring improper). The incremental-repair path of `gc-net`
/// checks its repaired colorings this way.
pub fn is_proper_at(g: &Csr, colors: &[u32], vertices: &[u32]) -> Result<(), Violation> {
    assert_eq!(
        colors.len(),
        g.num_vertices(),
        "color array length mismatch"
    );
    for &v in vertices {
        let c = colors[v as usize];
        if c == 0 {
            return Err(Violation::Uncolored(v));
        }
        if let Some(&u) = g.neighbors(v).iter().find(|&&u| colors[u as usize] == c) {
            return Err(Violation::Conflict(u.min(v), u.max(v)));
        }
    }
    Ok(())
}

/// Panics with a readable message on an invalid coloring (test helper).
pub fn assert_proper(g: &Csr, colors: &[u32]) {
    if let Err(v) = is_proper(g, colors) {
        panic!("invalid coloring: {v}");
    }
}

/// Counts monochromatic edges (used by the hash implementation's
/// conflict-resolution tests).
pub fn count_conflicts(g: &Csr, colors: &[u32]) -> usize {
    g.edges()
        .filter(|&(u, v)| {
            let (cu, cv) = (colors[u as usize], colors[v as usize]);
            cu != 0 && cu == cv
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::generators::{complete, cycle, path};

    #[test]
    fn accepts_proper_coloring() {
        let g = path(4);
        assert_eq!(is_proper(&g, &[1, 2, 1, 2]), Ok(()));
    }

    #[test]
    fn rejects_uncolored() {
        let g = path(3);
        assert_eq!(is_proper(&g, &[1, 0, 1]), Err(Violation::Uncolored(1)));
    }

    #[test]
    fn rejects_conflict() {
        let g = cycle(3);
        assert_eq!(is_proper(&g, &[1, 1, 2]), Err(Violation::Conflict(0, 1)));
    }

    #[test]
    fn complete_graph_needs_distinct() {
        let g = complete(3);
        assert!(is_proper(&g, &[1, 2, 3]).is_ok());
        assert!(is_proper(&g, &[1, 2, 2]).is_err());
    }

    #[test]
    fn local_check_sees_only_the_given_vertices() {
        let g = path(4);
        // Edge (2, 3) is monochromatic; vertex 0 is uncolored.
        let colors = [0, 2, 1, 1];
        assert_eq!(is_proper_at(&g, &colors, &[1]), Ok(()));
        assert_eq!(
            is_proper_at(&g, &colors, &[3]),
            Err(Violation::Conflict(2, 3))
        );
        assert_eq!(
            is_proper_at(&g, &colors, &[1, 0]),
            Err(Violation::Uncolored(0))
        );
        assert_eq!(is_proper_at(&g, &colors, &[]), Ok(()));
    }

    #[test]
    fn conflict_count() {
        let g = cycle(4);
        assert_eq!(count_conflicts(&g, &[1, 1, 1, 2]), 2);
        assert_eq!(count_conflicts(&g, &[1, 2, 1, 2]), 0);
        // Uncolored endpoints don't count as conflicts.
        assert_eq!(count_conflicts(&g, &[0, 0, 0, 0]), 0);
    }

    #[test]
    #[should_panic(expected = "invalid coloring")]
    fn assert_proper_panics() {
        assert_proper(&path(2), &[1, 1]);
    }
}
