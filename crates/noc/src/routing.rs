//! Dimension-ordered routing on the torus.

use crate::error::NocError;
use crate::topology::{NodeId, Torus};

/// The number of hops of the dimension-ordered (X-then-Y) minimal route from
/// `src` to `dst`, using wraparound links when they are shorter.
///
/// # Panics
///
/// Panics if either node is outside the torus (routing is on the hot path of
/// the simulator, so this is an assertion rather than a `Result`).
#[must_use]
pub fn hop_count(torus: &Torus, src: NodeId, dst: NodeId) -> u32 {
    let (sx, sy) = torus.coords(src).expect("src node out of range");
    let (dx, dy) = torus.coords(dst).expect("dst node out of range");
    (Torus::ring_distance(torus.width(), sx, dx) + Torus::ring_distance(torus.height(), sy, dy))
        as u32
}

/// The full dimension-ordered route from `src` to `dst`, inclusive of both
/// endpoints. X is routed first, then Y, always taking the shorter ring
/// direction (ties go to the increasing direction).
///
/// # Errors
///
/// Returns [`NocError::NodeOutOfRange`] if either endpoint is invalid.
pub fn route(torus: &Torus, src: NodeId, dst: NodeId) -> Result<Vec<NodeId>, NocError> {
    let (mut x, mut y) = torus.coords(src)?;
    let (dx, dy) = torus.coords(dst)?;
    let mut path = vec![src];

    let step = |cur: usize, dst: usize, k: usize| -> usize {
        if cur == dst {
            return cur;
        }
        let forward = (dst + k - cur) % k;
        let backward = (cur + k - dst) % k;
        if forward <= backward {
            (cur + 1) % k
        } else {
            (cur + k - 1) % k
        }
    };

    while x != dx {
        x = step(x, dx, torus.width());
        path.push(torus.node(x, y)?);
    }
    while y != dy {
        y = step(y, dy, torus.height());
        path.push(torus.node(x, y)?);
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_hops_to_self() {
        let t = Torus::paper_4x4();
        for n in t.nodes() {
            assert_eq!(hop_count(&t, n, n), 0);
            assert_eq!(route(&t, n, n).unwrap(), vec![n]);
        }
    }

    #[test]
    fn hop_count_is_symmetric() {
        let t = Torus::paper_4x4();
        for a in t.nodes() {
            for b in t.nodes() {
                assert_eq!(hop_count(&t, a, b), hop_count(&t, b, a));
            }
        }
    }

    #[test]
    fn max_distance_on_4x4_torus_is_4() {
        let t = Torus::paper_4x4();
        let max = t
            .nodes()
            .flat_map(|a| t.nodes().map(move |b| hop_count(&t, a, b)))
            .max()
            .unwrap();
        assert_eq!(max, 4);
    }

    #[test]
    fn route_length_matches_hop_count_and_steps_are_adjacent() {
        let t = Torus::paper_4x4();
        for a in t.nodes() {
            for b in t.nodes() {
                let r = route(&t, a, b).unwrap();
                assert_eq!(r.len() as u32, hop_count(&t, a, b) + 1);
                assert_eq!(*r.first().unwrap(), a);
                assert_eq!(*r.last().unwrap(), b);
                for w in r.windows(2) {
                    assert_eq!(hop_count(&t, w[0], w[1]), 1, "route steps must be links");
                }
            }
        }
    }

    #[test]
    fn wraparound_route_is_short() {
        let t = Torus::paper_4x4();
        let a = t.node(0, 0).unwrap();
        let b = t.node(3, 0).unwrap();
        assert_eq!(hop_count(&t, a, b), 1);
        assert_eq!(route(&t, a, b).unwrap().len(), 2);
    }
}
